"""Property test: CFA path evidence is tier-independent under IRQs.

Hypothesis generates random straight-line loop bodies and a random
tick-timer period, then runs the same program on four full platforms -
baseline interpreter, fast path, block tier, and trace JIT - each with
a :class:`~repro.cfa.recorder.CfaCore` folding every taken transfer
into the path hash.  The final path digest, edge count, segment stream,
and the entire architectural outcome (registers, memory, cycles,
retired count, timer ticks) must be bit-for-bit identical: the trace
tier's closed-form bulk recording and the interpreter's per-edge
recording must commit to exactly the same path, even when interrupts
land mid-loop.  Loop bodies may ``call`` a random leaf, so stitched
call edges and guarded return edges are recorded in trace bodies; the
examples pinned in ``test_prop_blocks_irq`` (a leaf rewriting its
return address, a nested call, a faulting push, a stack inside the
code's granule) run here too.

Two more properties pin the recorder's bulk contracts directly:
``record_run(src, dst, n)`` and ``record_cycle(pattern, n)``,
interleaved with single records and preemption-style seals, are
exactly equivalent to ``n`` single records (``n`` passes over
``pattern``) with the same seals.
"""

from hypothesis import example, given, settings, strategies as st

from repro.cfa import CfaCore, PathRecorder
from repro.errors import HardwareFault
from repro.hw.exceptions import Vector
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble

from test_prop_blocks_irq import NESTED_CALL, PUSH_FAULT, RETURN_REWRITE, STACK_IN_CODE

_SCRATCH = ("eax", "edx", "esi", "edi", "ebp")

_reg = st.sampled_from(_SCRATCH)
_imm = st.integers(min_value=0, max_value=0xFFFF)
_disp = st.integers(min_value=0, max_value=0x38).map(lambda n: n * 4)

_insn = st.one_of(
    st.tuples(st.sampled_from(("addi", "subi", "xori", "andi", "ori")), _reg, _imm).map(
        lambda t: "%s %s, %d" % t
    ),
    st.tuples(st.sampled_from(("shli", "shri")), _reg, st.integers(0, 31)).map(
        lambda t: "%s %s, %d" % t
    ),
    st.tuples(st.sampled_from(("mov", "add", "sub", "xor", "cmp")), _reg, _reg).map(
        lambda t: "%s %s, %s" % t
    ),
    st.tuples(st.sampled_from(("ld", "st")), _reg, _disp).map(
        lambda t: "%s %s, [ebx+%d]" % t if t[0] == "ld" else "st [ebx+%d], %s" % (t[2], t[1])
    ),
)


#: A random leaf: ``(call position in the body, leaf instructions)``.
_leaf = st.none() | st.tuples(
    st.integers(min_value=0, max_value=20), st.lists(_insn, min_size=1, max_size=6)
)


def _program(body, iterations, data_base, leaf=None):
    """The test program; ``leaf`` is ``None`` or ``(position,
    instructions)``, as in ``test_prop_blocks_irq._program``."""
    lines = ["start:", "movi ebx, %d" % data_base, "movi ecx, %d" % iterations, "sti", "loop:"]
    body = list(body)
    if leaf is not None and "call leaf" not in body:
        body.insert(min(leaf[0], len(body)), "call leaf")
    lines.extend(body)
    lines.extend(["subi ecx, 1", "jnz loop", "cli", "hlt"])
    if leaf is not None:
        lines.append("leaf:")
        lines.extend(leaf[1])
        lines.append("ret")
    lines.extend(
        [
            "irq_handler:",
            "push eax",
            "push ebx",
            "movi ebx, %d" % data_base,
            "ld eax, [ebx+248]",
            "addi eax, 1",
            "st [ebx+248], eax",
            "pop ebx",
            "pop eax",
            "iret",
        ]
    )
    return "\n".join(lines) + "\n"


def _run(source, *, fastpath, blocks, traces, tick_period):
    platform = Platform(
        MachineConfig(
            blocks=blocks, traces=traces, fastpath=fastpath, tick_period=tick_period
        )
    )
    base = platform.config.task_ram_base
    data_base = base + 0x4000
    image = link(assemble(source), stack_size=64)
    handler = base + link(assemble(source), entry_symbol="irq_handler", stack_size=64).entry
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(4, "little")
    platform.memory.write_raw(base, bytes(blob))
    platform.engine.install_handler(Vector.TIMER, handler)
    cpu = platform.cpu
    cpu.regs.eip = base + image.entry
    cpu.regs.esp = base + 0x8000
    recorder = PathRecorder(segment_runs=8)
    cpu.cfa = CfaCore(platform.clock)
    cpu.cfa.attach_region(base, base + len(image.blob), recorder)
    platform.tick_timer.start(platform.clock.now)
    try:
        outcome = platform.run_isa_until_event(max_cycles=500_000).kind
    except HardwareFault as fault:
        outcome = "%s: %s" % (type(fault).__name__, fault)
    recorder.seal()
    return {
        "outcome": outcome,
        "digest": recorder.path_digest(),
        "edges": recorder.edges,
        "sealed": recorder.sealed,
        "dropped": recorder.dropped,
        "segments": [(s.index, s.runs, s.digest) for s in recorder.segments],
        "retired": cpu.retired,
        "cycles": platform.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        "data": platform.memory.read_raw(data_base, 0x100),
        "ticks": platform.tick_timer.ticks,
    }


_TIERS = (
    {"fastpath": False, "blocks": False, "traces": False},
    {"fastpath": True, "blocks": False, "traces": False},
    {"fastpath": True, "blocks": True, "traces": False},
    {"fastpath": True, "blocks": True, "traces": True},
)


@settings(max_examples=10, deadline=None)
@given(
    body=st.lists(_insn, min_size=4, max_size=20),
    leaf=_leaf,
    iterations=st.integers(min_value=2, max_value=40),
    tick_period=st.integers(min_value=60, max_value=3000),
)
@example(body=RETURN_REWRITE[0], leaf=RETURN_REWRITE[1], iterations=40, tick_period=90)
@example(body=NESTED_CALL[0], leaf=NESTED_CALL[1], iterations=40, tick_period=70)
@example(body=PUSH_FAULT[0], leaf=PUSH_FAULT[1], iterations=200, tick_period=3000)
@example(body=STACK_IN_CODE[0], leaf=STACK_IN_CODE[1], iterations=40, tick_period=80)
def test_path_evidence_identical_across_tiers_under_random_irqs(
    body, leaf, iterations, tick_period
):
    source = _program(body, iterations, 0x0010_4000, leaf)
    baseline = _run(source, tick_period=tick_period, **_TIERS[0])
    assert baseline["outcome"] == "halt" or body == PUSH_FAULT[0]
    assert baseline["edges"] > 0  # the loop back-edge was recorded
    for config in _TIERS[1:]:
        other = _run(source, tick_period=tick_period, **config)
        assert other == baseline, config
    if baseline["cycles"] > 2 * tick_period:
        assert baseline["ticks"] > 0


_run_item = st.tuples(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=9),
)

#: An op stream mixing edge runs with preemption-boundary seals (None).
_ops = st.lists(st.one_of(_run_item, st.none()), max_size=40)


@settings(max_examples=100, deadline=None)
@given(ops=_ops, segment_runs=st.integers(min_value=1, max_value=8))
def test_record_run_equivalent_to_repeated_record_with_seals(ops, segment_runs):
    bulk = PathRecorder(segment_runs=segment_runs, max_segments=4)
    single = PathRecorder(segment_runs=segment_runs, max_segments=4)
    for op in ops:
        if op is None:
            bulk.seal()
            single.seal()
            continue
        src, dst, count = op
        bulk.record_run(src, dst, count)
        for _ in range(count):
            single.record(src, dst)
    assert bulk.path_digest() == single.path_digest()
    assert bulk.open_runs() == single.open_runs()
    assert (bulk.edges, bulk.sealed, bulk.dropped) == (
        single.edges,
        single.sealed,
        single.dropped,
    )


_edge = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))

#: Single records, edge runs, edge cycles and seals (None), interleaved.
_cycle_ops = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.just("record"), _edge),
        st.tuples(st.just("run"), _edge, st.integers(min_value=0, max_value=9)),
        st.tuples(
            st.just("cycle"),
            st.lists(_edge, max_size=5),
            st.integers(min_value=0, max_value=12),
        ),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ops=_cycle_ops, segment_runs=st.integers(min_value=1, max_value=8))
def test_record_cycle_equivalent_to_repeated_records_with_seals(ops, segment_runs):
    bulk = PathRecorder(segment_runs=segment_runs, max_segments=4)
    single = PathRecorder(segment_runs=segment_runs, max_segments=4)
    for op in ops:
        if op is None:
            bulk.seal()
            single.seal()
        elif op[0] == "record":
            bulk.record(*op[1])
            single.record(*op[1])
        elif op[0] == "run":
            bulk.record_run(op[1][0], op[1][1], op[2])
            for _ in range(op[2]):
                single.record(*op[1])
        else:
            pattern, count = op[1], op[2]
            bulk.record_cycle(pattern, count)
            for _ in range(count):
                for src, dst in pattern:
                    single.record(src, dst)
    assert [(s.index, s.runs, s.prev, s.digest) for s in bulk.segments] == [
        (s.index, s.runs, s.prev, s.digest) for s in single.segments
    ]
    assert bulk.path_digest() == single.path_digest()
    assert bulk.open_runs() == single.open_runs()
    assert (bulk.edges, bulk.sealed, bulk.dropped) == (
        single.edges,
        single.sealed,
        single.dropped,
    )
