"""Decoded-instruction cache with write-snoop invalidation.

Decoding allocates a fresh :class:`~repro.isa.encoding.Instruction` on
every fetch; for loops that is pure waste.  The cache maps EIP to the
decoded object and snoops every memory write onto cached code (checked
or raw - both funnel through
:meth:`repro.hw.memory.PhysicalMemory.write_raw`, which skips writes
that miss the code hulls its owner records there) so that
self-modifying code, task loads, and live updates are re-decoded.

Invalidation is byte-precise: each cached instruction registers the
span ``[eip, eip + length)`` of its encoding in a
:class:`~repro.perf.spans.SpanIndex`; a write drops exactly the cached
instructions whose encoding bytes it overlaps, so stores to data that
shares a page with code leave the code's decodings cached.
"""

from __future__ import annotations

from repro.obs.counters import HitMissCounter
from repro.perf.spans import SpanIndex


class DecodedInsnCache:
    """EIP -> ``[Instruction, exec_epoch]``, invalidated by code writes.

    Each entry carries the EA-MPU rule-table epoch at which the execute
    check for its EIP last passed.  While the epoch is unchanged the
    check is provably still an allow, so the CPU skips it entirely; a
    stale epoch forces a re-check (which updates the entry in place).

    ``stats.invalidations`` counts one per instruction a write drops.
    """

    __slots__ = ("stats", "_insns", "_spans")

    #: Epoch sentinel for entries cached with no MPU attached; never
    #: equals a real MPU epoch, so attaching an MPU forces re-checks.
    NO_MPU_EPOCH = -1

    def __init__(self):
        self.stats = HitMissCounter("insn")
        self._insns = {}
        #: Encoding byte span of every cached EIP.
        self._spans = SpanIndex()

    def __len__(self):
        return len(self._insns)

    def get(self, eip):
        """The ``[insn, epoch]`` entry at ``eip`` or ``None`` (counted)."""
        entry = self._insns.get(eip)
        if entry is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return entry

    def peek(self, eip):
        """The cached decoding at ``eip`` or ``None`` (not counted)."""
        entry = self._insns.get(eip)
        return entry[0] if entry is not None else None

    def put(self, eip, insn, epoch=NO_MPU_EPOCH):
        """Cache ``insn`` as the decoding of the bytes at ``eip``."""
        self._insns[eip] = [insn, epoch]
        self._spans.add(eip, ((eip, eip + insn.length),))

    def note_write(self, address, size):
        """Snoop a write of ``size`` bytes at ``address``.

        Wired as a :class:`~repro.hw.memory.PhysicalMemory` write
        listener; drops every cached instruction whose encoding bytes
        the write overlaps.
        """
        dropped = self._spans.take(address, size)
        if dropped:
            insns = self._insns
            for eip in dropped:
                del insns[eip]
            self.stats.invalidations += len(dropped)

    def clear(self):
        """Drop every cached instruction (keeps the counters)."""
        self._insns.clear()
        self._spans.clear()
