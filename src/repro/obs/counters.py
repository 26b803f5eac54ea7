"""Counters: monotonic values and hit/miss stats behind one registry.

Every measurable quantity in the stack - fast-path cache hit rates,
delivered IPC messages, attestation reports issued - is either a plain
monotonic :class:`Counter` or a :class:`HitMissCounter`.  A
:class:`CounterRegistry` (one per :class:`~repro.obs.bus.EventBus`)
collects them so a single ``snapshot()`` call captures the whole
machine's counter state for benches, tests, and the summary exporter.

:class:`HitMissCounter` lives here so the perf layer and the
observability layer share one bookkeeping vocabulary.
"""

from __future__ import annotations


class Counter:
    """A named monotonic counter.

    The hot path pays one integer increment (:meth:`add`); everything
    derived is computed on demand.
    """

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def add(self, amount=1):
        """Increment by ``amount``."""
        self.value += amount

    def reset(self):
        """Zero the counter."""
        self.value = 0

    def snapshot(self):
        """Plain-dict view for JSON benches and assertions."""
        return {"value": self.value}

    def __repr__(self):
        return "Counter(%s, value=%d)" % (self.name, self.value)


class HitMissCounter:
    """Counts cache hits, misses, and invalidation events.

    The counters are plain attributes so the hot path pays a single
    integer increment; everything derived (totals, rates) is computed on
    demand by tests and benches.
    """

    __slots__ = ("name", "hits", "misses", "invalidations")

    def __init__(self, name):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def total(self):
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.total
        return self.hits / total if total else 0.0

    def reset(self):
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def snapshot(self):
        """Plain-dict view for JSON benches and assertions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 6),
        }

    def __repr__(self):
        return "HitMissCounter(%s, hits=%d, misses=%d, inval=%d)" % (
            self.name,
            self.hits,
            self.misses,
            self.invalidations,
        )


class CounterRegistry:
    """A name-indexed collection of counter objects.

    Accepts anything with a ``name`` attribute and a ``snapshot()``
    method (:class:`Counter`, :class:`HitMissCounter`, or user types).
    """

    def __init__(self):
        self._counters = {}

    def register(self, counter, replace=False):
        """Add ``counter`` under its own name; returns it.

        Registering a different object under an existing name raises
        unless ``replace`` is true (re-registering the same object is a
        no-op).
        """
        existing = self._counters.get(counter.name)
        if existing is not None and existing is not counter and not replace:
            raise ValueError("counter %r already registered" % counter.name)
        self._counters[counter.name] = counter
        return counter

    def counter(self, name):
        """Get or create the plain :class:`Counter` called ``name``."""
        existing = self._counters.get(name)
        if existing is None:
            existing = self._counters[name] = Counter(name)
        return existing

    def get(self, name):
        """The registered counter called ``name``, or ``None``."""
        return self._counters.get(name)

    def names(self):
        """All registered counter names, sorted."""
        return sorted(self._counters)

    def reset(self):
        """Reset every registered counter."""
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self):
        """``{name: counter.snapshot()}`` over every registered counter."""
        return {
            name: counter.snapshot()
            for name, counter in sorted(self._counters.items())
        }

    def __len__(self):
        return len(self._counters)

    def __repr__(self):
        return "CounterRegistry(%d counters)" % len(self._counters)
