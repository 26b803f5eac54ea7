"""Device-side path recording: taken transfers folded into a hash chain.

The recorder is the modelled hardware path monitor (RunPBA-style): every
*taken* control transfer whose source and destination both lie inside an
enrolled task region is folded into a running BLAKE2 path hash.  Edges
are region-relative (link-base-0 offsets), so the evidence a device
ships is directly comparable against the static
:class:`~repro.analysis.edges.EdgeModel` of the shipped image.

Logs stay bounded two ways:

* consecutive repeats of one edge fold into a single *run*
  ``(src, dst, count)`` - a tight counted loop costs one run, not one
  record per iteration - and :meth:`PathRecorder.record_run` is defined
  to be exactly equivalent to ``count`` single records, which is what
  lets the trace JIT's closed-form loop bodies record in bulk
  (:meth:`PathRecorder.record_cycle` is the same contract for a
  repeating sequence of edges: a looping trace body's iterations);
* after :data:`SEGMENT_RUNS` runs the segment *seals*: its runs are
  digested into the hash chain and the oldest sealed segment is evicted
  once :attr:`PathRecorder.max_segments` are retained (the eviction
  count and the pre-eviction chain digest travel with the evidence, so
  the verifier still recomputes an unbroken chain over what remains).

Sealing also happens at every kernel preemption point (see
:class:`~repro.cfa.engine.CfaEngine`), which is what makes the segment
stream identical across execution tiers: preemption lands on the same
instruction boundary in every tier, so the seals do too.

:class:`CfaCore` is the CPU attachment (``cpu.cfa``): it resolves the
enrolled region for an edge, charges the modelled per-edge cost on the
interpreter path, binds edges to their recorder at trace compile time
(:meth:`CfaCore.bind`), and bumps a generation counter whenever the
enrolled set changes so the trace tier can flush bodies bound to a
stale region set.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import cycle, islice, starmap

from repro import cycles

#: Closed edge runs per segment before it auto-seals.
SEGMENT_RUNS = 64

#: Sealed segments retained before the oldest is evicted.
MAX_SEGMENTS = 64

#: Path-hash width (BLAKE2s-128).
DIGEST_SIZE = 16

#: Chain root: the digest "before" the first segment.
ROOT_DIGEST = b"\x00" * DIGEST_SIZE

#: One edge run on the hash input / wire: src, dst, count.
RUN_STRUCT = struct.Struct("<IIQ")


def segment_digest(prev, runs):
    """Chain digest of one segment: ``H(prev | runs)``."""
    h = hashlib.blake2s(prev, digest_size=DIGEST_SIZE)
    h.update(b"".join(starmap(RUN_STRUCT.pack, runs)))
    return h.digest()


class PathSegment:
    """One sealed chunk of the path log."""

    __slots__ = ("index", "runs", "prev", "digest")

    def __init__(self, index, runs, prev, digest):
        #: Monotonic seal index (0-based) over the task's lifetime.
        self.index = index
        #: Tuple of ``(src, dst, count)`` region-relative edge runs.
        self.runs = runs
        #: Chain digest before this segment (the predecessor's digest).
        self.prev = prev
        #: ``segment_digest(prev, runs)``.
        self.digest = digest

    def __repr__(self):
        return "PathSegment(#%d, %d runs, %s)" % (
            self.index,
            len(self.runs),
            self.digest.hex()[:8],
        )


class PathRecorder:
    """Per-task path log: open run -> open segment -> sealed chain."""

    __slots__ = (
        "segment_runs",
        "max_segments",
        "segments",
        "prev_digest",
        "sealed",
        "dropped",
        "edges",
        "_open",
        "_runs",
    )

    def __init__(self, segment_runs=SEGMENT_RUNS, max_segments=MAX_SEGMENTS):
        if segment_runs < 1 or max_segments < 1:
            raise ValueError("segment_runs and max_segments must be >= 1")
        self.segment_runs = segment_runs
        self.max_segments = max_segments
        #: Retained sealed segments, oldest first.
        self.segments = []
        #: Chain digest of the most recently sealed segment.
        self.prev_digest = ROOT_DIGEST
        #: Total segments ever sealed (== index of the next seal).
        self.sealed = 0
        #: Sealed segments evicted from the bounded log.
        self.dropped = 0
        #: Total taken edges folded (diagnostics / overhead accounting).
        self.edges = 0
        self._open = None  # current [src, dst, count] run, or None
        self._runs = []  # closed runs of the open segment

    def record(self, src, dst):
        """Fold one taken edge (region-relative offsets)."""
        self.edges += 1
        open_ = self._open
        if open_ is not None:
            if open_[0] == src and open_[1] == dst:
                open_[2] += 1
                return
            self._close_run()
        self._open = [src, dst, 1]

    def record_run(self, src, dst, count):
        """Fold ``count`` consecutive repeats of one edge.

        Exactly equivalent to ``count`` calls to :meth:`record` - the
        contract the trace tier's closed-form loop bodies rely on.
        """
        if count <= 0:
            return
        self.edges += count
        open_ = self._open
        if open_ is not None:
            if open_[0] == src and open_[1] == dst:
                open_[2] += count
                return
            self._close_run()
        self._open = [src, dst, count]

    def record_cycle(self, pattern, count):
        """Fold ``count`` consecutive passes over the edge sequence
        ``pattern`` (``(src, dst)`` pairs).

        Exactly equivalent to ``count`` passes of :meth:`record` over
        ``pattern``, auto-seals included - the :meth:`record_run`
        contract for a repeating sequence, which is what lets a looping
        trace body record its completed iterations at exit.  The first
        pass goes through :meth:`record` (it may extend the open run);
        every later pass closes the same tuple of runs and leaves the
        same open run, so those runs are appended in bulk, sealing
        wherever the single-record stream would.
        """
        if count <= 0 or not pattern:
            return
        for src, dst in pattern:
            self.record(src, dst)
        rest = count - 1
        if not rest:
            return
        runs = []  # the pattern's own runs, [src, dst, n]
        for src, dst in pattern:
            if runs and runs[-1][0] == src and runs[-1][1] == dst:
                runs[-1][2] += 1
            else:
                runs.append([src, dst, 1])
        if len(runs) == 1:
            self.record_run(runs[0][0], runs[0][1], len(pattern) * rest)
            return
        first, last = runs[0], runs[-1]
        if first[0] == last[0] and first[1] == last[1]:
            # a pass's last run continues into the next pass's first
            closed = [(last[0], last[1], last[2] + first[2])]
            closed.extend(tuple(run) for run in runs[1:-1])
        else:
            closed = [tuple(last)]
            closed.extend(tuple(run) for run in runs[:-1])
        self.edges += len(pattern) * rest
        stream = islice(cycle(closed), len(closed) * rest)
        while True:
            chunk = list(islice(stream, self.segment_runs - len(self._runs)))
            if not chunk:
                return
            self._runs.extend(chunk)
            if len(self._runs) >= self.segment_runs:
                self._seal_runs()

    def _close_run(self):
        self._runs.append(tuple(self._open))
        self._open = None
        if len(self._runs) >= self.segment_runs:
            self._seal_runs()

    def seal(self):
        """Seal the open segment; returns it, or ``None`` if empty.

        Free at run time (the hardware monitor finalises the chain in a
        background pipeline); report generation is where CPU cycles are
        charged.
        """
        if self._open is not None:
            self._runs.append(tuple(self._open))
            self._open = None
        return self._seal_runs()

    def _seal_runs(self):
        """Seal the closed runs (the open run stays open)."""
        if not self._runs:
            return None
        runs = tuple(self._runs)
        self._runs = []
        segment = PathSegment(
            self.sealed, runs, self.prev_digest, segment_digest(self.prev_digest, runs)
        )
        self.prev_digest = segment.digest
        self.sealed += 1
        self.segments.append(segment)
        if len(self.segments) > self.max_segments:
            del self.segments[0]
            self.dropped += 1
        return segment

    def open_runs(self):
        """Runs of the not-yet-sealed segment, open run included."""
        runs = list(self._runs)
        if self._open is not None:
            runs.append(tuple(self._open))
        return runs

    def snapshot_segments(self):
        """Evidence view: sealed segments plus the open one as if
        sealed now.  Does **not** mutate the recorder - evidence can be
        generated repeatedly (one report per fleet challenge) without
        perturbing the path log it reports on."""
        segments = list(self.segments)
        runs = self.open_runs()
        if runs:
            runs = tuple(runs)
            segments.append(
                PathSegment(
                    self.sealed,
                    runs,
                    self.prev_digest,
                    segment_digest(self.prev_digest, runs),
                )
            )
        return segments

    def path_digest(self):
        """The running path hash over everything recorded so far."""
        segments = self.snapshot_segments()
        if not segments:
            return self.prev_digest
        return segments[-1].digest

    def __repr__(self):
        return "PathRecorder(%d edges, %d sealed, %d dropped)" % (
            self.edges,
            self.sealed,
            self.dropped,
        )


class CfaCore:
    """The CPU-side monitor port (``cpu.cfa``).

    Holds the enrolled ``(lo, hi, recorder)`` regions.  The interpreter
    tiers call :meth:`on_transfer` from ``CPU._jump`` (charging the
    modelled per-edge cost).  The trace builder resolves each stitched
    edge once, with :meth:`bind`, and the compiled body calls that
    :class:`PathRecorder` directly with the region-relative offsets -
    no region scan and no charge at run time, because the cost was
    baked into the trace's static cycle total at build time.
    :meth:`record_edge` / :meth:`record_edge_run` are the unbound form
    of the same uncharged recording.  ``generation`` moves on every
    enrolment change; the block engine flushes the trace cache when it
    observes a new generation, so no compiled body ever runs bound to
    a stale region set.
    """

    __slots__ = ("clock", "regions", "generation", "recorded", "bulk_recorded")

    def __init__(self, clock):
        self.clock = clock
        self.regions = []
        self.generation = 0
        #: Edges recorded one at a time through this port (the
        #: interpreter path and :meth:`record_edge`; bound trace bodies
        #: record on the recorder itself, see ``PathRecorder.edges``).
        self.recorded = 0
        #: Edges recorded through :meth:`record_edge_run`.
        self.bulk_recorded = 0

    def attach_region(self, lo, hi, recorder):
        """Start monitoring ``[lo, hi)`` into ``recorder``."""
        self.regions.append((lo, hi, recorder))
        self.generation += 1

    def detach_region(self, lo):
        """Stop monitoring the region based at ``lo``."""
        self.regions = [entry for entry in self.regions if entry[0] != lo]
        self.generation += 1

    def bind(self, src, dst):
        """``(recorder, src - lo, dst - lo)`` for a taken ``src -> dst``
        transfer the monitor records, else ``None``.

        The trace builder's compile-time form of :meth:`record_edge`:
        valid for one enrolment generation.
        """
        for lo, hi, recorder in self.regions:
            if lo <= src < hi:
                if lo <= dst < hi:
                    return recorder, src - lo, dst - lo
                return None
        return None

    def covers(self, src, dst):
        """Whether a taken ``src -> dst`` transfer would be recorded."""
        return self.bind(src, dst) is not None

    def on_transfer(self, src, dst):
        """Interpreter path: charge and record one taken transfer."""
        for lo, hi, recorder in self.regions:
            if lo <= src < hi:
                if lo <= dst < hi:
                    self.clock.charge(cycles.CFA_EDGE_CYCLES)
                    self.recorded += 1
                    recorder.record(src - lo, dst - lo)
                return

    def record_edge(self, src, dst):
        """Record without charging (the cost is statically baked)."""
        for lo, hi, recorder in self.regions:
            if lo <= src < hi:
                if lo <= dst < hi:
                    self.recorded += 1
                    recorder.record(src - lo, dst - lo)
                return

    def record_edge_run(self, src, dst, count):
        """``count`` repeats of one edge in bulk, without charging."""
        for lo, hi, recorder in self.regions:
            if lo <= src < hi:
                if lo <= dst < hi:
                    self.bulk_recorded += count
                    recorder.record_run(src - lo, dst - lo, count)
                return
