"""Byte-precise write snooping shared by the three code caches.

The decoded-instruction cache, the block cache and the trace cache all
hold translations of code bytes, and each must drop a translation as
soon as a write lands on one of the bytes it was translated from.
:class:`SpanIndex` is the one structure they share for that.  Every
cached entry registers the byte spans ``[lo, hi)`` its translation
read; the spans are bucketed by 256-byte page (the memory's snoop
granule, :data:`~repro.hw.memory.SNOOP_PAGE_SHIFT`) so a write only
looks at the entries on the page(s) it touches, and within a page only
the entries whose spans the write overlaps are dropped.  Each page
also keeps the hull of its entries' spans, so a write to data that
sits past (or before) all the code on its page costs one comparison.
A store to data beside code therefore leaves that code's translations
alone, while a store onto a code byte still drops (and, through the
owning cache, invalidates) every translation built from it.

The no-block and no-trace markers register the bytes their verdict
read, like any other entry.  A marker never executes code, so a write
that changes its verdict without touching those bytes only costs a
missed retry, never architectural state.

The store side is the same test one level up: every registered span
also lands in :attr:`repro.hw.memory.PhysicalMemory.snoop_hulls`, and
compiled stores write the slab directly unless :func:`store_probe`
finds their bytes inside their granule's hull - only those stores take
the broadcast ``write_raw`` path this index is probed from.
"""

from __future__ import annotations

from repro.hw.memory import SNOOP_PAGE_SHIFT as PAGE_SHIFT


def store_probe(ea, size):
    """Generated-code test: does a ``size``-byte store at ``ea`` overlap
    cached code?

    ``ea`` is a local or literal holding an address aligned to ``size``
    (so the store never crosses a granule), and the generated body
    binds ``S = memory.snoop_hulls``.  True exactly when the store's
    bytes ``[ea, ea + size)`` overlap the hull ``(lo, hi)`` of its
    granule: ``lo - size < ea < hi``.
    """
    return "%s >> %d in S and (h := S[%s >> %d])[0] - %d < %s < h[1]" % (
        ea, PAGE_SHIFT, ea, PAGE_SHIFT, size, ea,
    )


class SpanIndex:
    """Key -> code byte spans, probed by overlap with a written range.

    ``add(key, spans)`` registers (or re-registers) a key; ``take``
    unregisters and returns every key a write overlaps.  Re-adding a
    key first drops its previous registration, so no stale page entry
    can outlive the translation it described.
    """

    __slots__ = ("_pages", "_keys")

    def __init__(self):
        #: page -> ``[lo, hi, {key: spans}]`` for every key with a span
        #: on that page; ``[lo, hi)`` covers each such span (it only
        #: grows while the page has entries, which keeps it a superset).
        #: Any byte a write shares with a span lies on a page both
        #: touch, so skipping pages whose hull the write misses is exact.
        self._pages = {}
        #: key -> pages the key is registered on.
        self._keys = {}

    def add(self, key, spans):
        """Register ``key`` as translated from the byte ``spans``."""
        if key in self._keys:
            self.discard(key)
        pages = self._pages
        touched = []
        for lo, hi in spans:
            for page in range(lo >> PAGE_SHIFT, ((hi - 1) >> PAGE_SHIFT) + 1):
                bucket = pages.get(page)
                if bucket is None:
                    pages[page] = [lo, hi, {key: spans}]
                    touched.append(page)
                    continue
                if lo < bucket[0]:
                    bucket[0] = lo
                if hi > bucket[1]:
                    bucket[1] = hi
                members = bucket[2]
                if key not in members:
                    members[key] = spans
                    touched.append(page)
        self._keys[key] = touched

    def discard(self, key):
        """Unregister ``key`` (no-op when absent)."""
        pages = self._pages
        for page in self._keys.pop(key, ()):
            members = pages[page][2]
            del members[key]
            if not members:
                del pages[page]

    def take(self, address, size):
        """Unregister and return the keys whose spans overlap the
        written range ``[address, address + size)``."""
        pages = self._pages
        if not pages or size <= 0:
            return ()
        end = address + size
        first = address >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        if first == last:
            # One page, the common case: miss it with one probe.
            bucket = pages.get(first)
            if bucket is None or end <= bucket[0] or bucket[1] <= address:
                return ()
        taken = []
        for page in range(first, last + 1):
            bucket = pages.get(page)
            if bucket is None or end <= bucket[0] or bucket[1] <= address:
                continue
            hits = []
            for key, spans in bucket[2].items():
                for lo, hi in spans:
                    if lo < end and address < hi:
                        hits.append(key)
                        break
            for key in hits:
                self.discard(key)
            taken.extend(hits)
        return taken

    def clear(self):
        """Unregister every key."""
        self._pages.clear()
        self._keys.clear()
