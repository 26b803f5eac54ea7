"""Property test: the block tier is invisible under random programs + IRQs.

Hypothesis generates random straight-line loop bodies (ALU and memory
traffic) and a random tick-timer period, then runs the same program on
two full platforms - block tier on and off.  The final architectural
state (registers, flags, memory, retired count, simulated cycles,
timer ticks) and the *entire observability event stream* (excluding
the block tier's own ``perf``-source lifecycle events) must be
bit-for-bit identical: interrupts must land on exactly the same
instruction boundary whether execution single-steps or runs
horizon-admitted superblocks.

The data pointer is drawn from two layouts: a page of its own
(``base + 0x4000``) or the first word-aligned address past the
program's code, inside the code's last 256-byte snoop granule - so
the random loads and stores land beside live code, and the code
caches' byte-precise write snooping is exercised on every store.

A loop body may also ``call`` a random leaf function placed after the
``hlt``, so the trace tier stitches ``call`` and guards ``ret`` under
the same random interrupts.  Pinned examples cover a leaf that
rewrites its own return address every other call (the return guard
must side-exit), a nested call, a ``call`` whose push faults once a
drifting stack pointer leaves RAM, and a stack inside the code's own
snoop granule (pushes beside cached code stay on the slab).
"""

from hypothesis import example, given, settings, strategies as st

from repro.errors import HardwareFault
from repro.hw.exceptions import Vector
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble

#: Registers random instructions may write (ebx holds the data pointer,
#: ecx the loop counter, esp the stack - all kept stable).
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
    st.tuples(st.sampled_from(("not", "neg")), _reg).map(lambda t: "%s %s" % t),
    st.tuples(st.sampled_from(("mov", "add", "sub", "xor", "mul", "cmp")), _reg, _reg).map(
        lambda t: "%s %s, %s" % t
    ),
    st.tuples(st.sampled_from(("ld", "st")), _reg, _disp).map(
        lambda t: "%s %s, [ebx+%d]" % t if t[0] == "ld" else "st [ebx+%d], %s" % (t[2], t[1])
    ),
    st.tuples(st.sampled_from(("ldb", "stb")), _reg, _disp).map(
        lambda t: "%s %s, [ebx+%d]" % t if t[0] == "ldb" else "stb [ebx+%d], %s" % (t[2], t[1])
    ),
)


#: Data pointer operand for the beside-code layout: a label placed at
#: the first word-aligned address past the program's code.
IN_CODE = "data"


#: A random leaf: ``(call position in the body, leaf instructions)``.
_leaf = st.none() | st.tuples(
    st.integers(min_value=0, max_value=24), st.lists(_insn, min_size=1, max_size=6)
)


def _program(body, iterations, data_base, leaf=None):
    """The test program; ``data_base`` is an address or :data:`IN_CODE`.

    ``leaf`` is ``None`` or ``(position, instructions)``: a ``call
    leaf`` goes in at ``position`` (unless the body already has one)
    and ``leaf:`` (the instructions, then ``ret``) follows the ``hlt``.
    """
    data = data_base if data_base == IN_CODE else "%d" % data_base
    lines = ["start:", "movi ebx, %s" % data, "movi ecx, %d" % iterations, "sti", "loop:"]
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
            "movi ebx, %s" % data,
            "ld eax, [ebx+248]",
            "addi eax, 1",
            "st [ebx+248], eax",
            "pop ebx",
            "pop eax",
            "iret",
        ]
    )
    if data_base == IN_CODE:
        lines.extend([".align 4", "%s:" % IN_CODE])
    return "\n".join(lines) + "\n"


#: Loop body that patches itself: ``loop`` is the ``movi``, so
#: ``[edi+8]`` is the low immediate byte of ``addi edx, 1``.
SMC_BODY = ["movi edi, loop", "addi edx, 1", "stb eax, [edi+8]", "addi eax, 3"]

#: A leaf that rewrites its own return address on every other call
#: (odd ``ecx``), skipping the ``addi`` after the call site: the return
#: guard's recorded target is wrong half the time and must side-exit.
RETURN_REWRITE = (
    ["addi eax, 1", "call leaf", "addi edx, 5", "skip:", "xori esi, 9"],
    (
        0,
        ["mov edi, ecx", "andi edi, 1", "jz keep", "movi edi, skip", "st [esp+0], edi", "keep:"],
    ),
)

#: A nested call: the leaf calls a second leaf (defined after its
#: ``ret``), so a trace stitches two calls and two returns.
NESTED_CALL = (
    ["addi eax, 3", "xor edx, eax", "call leaf", "subi esi, 1"],
    (
        0,
        ["addi edi, 7", "call leaf2", "xori edi, 2", "ret", "leaf2:", "shli edx, 1", "addi edx, 1"],
    ),
)

#: The stack pointer drifts down 256 bytes per iteration, so once the
#: traced loop is hot the ``call``'s push leaves task RAM and faults.
PUSH_FAULT = (
    ["subi esp, 256", "addi eax, 1", "call leaf", "xori edx, 3"],
    (0, ["addi edi, 1"]),
)


#: The stack sits in the code's own 256-byte granule, just above the
#: code (base 0x100000 is the task RAM base): the call's return address,
#: the leaf's pushed register and every interrupt frame land beside
#: cached code without touching it, so compiled pushes stay on the slab.
STACK_IN_CODE = (
    ["movi esp, 0x1000F0", "addi eax, 1", "call leaf", "xori edx, 5"],
    (0, ["push esi", "addi esi, 3", "pop edi"]),
)


def _run(source, blocks, tick_period, traces=True):
    platform = Platform(
        MachineConfig(blocks=blocks, traces=traces, tick_period=tick_period)
    )
    base = platform.config.task_ram_base
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
    platform.tick_timer.start(platform.clock.now)
    try:
        outcome = platform.run_isa_until_event(max_cycles=500_000).kind
    except HardwareFault as fault:
        outcome = "%s: %s" % (type(fault).__name__, fault)
    return {
        "outcome": outcome,
        "retired": cpu.retired,
        "cycles": platform.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        # Code and both data layouts (``base + 0x4000`` and beside code).
        "memory": platform.memory.read_raw(base, 0x4100),
        "ticks": platform.tick_timer.ticks,
        "events": [
            event.to_dict()
            for event in platform.obs.events
            if event.source != "perf"
        ],
    }


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(_insn, min_size=4, max_size=24),
    leaf=_leaf,
    iterations=st.integers(min_value=2, max_value=40),
    tick_period=st.integers(min_value=60, max_value=3000),
    in_code=st.booleans(),
)
# Regression: a flag-live shri over a folded add chain once compiled to
# ``X & 4294967295 >> 24`` - Python precedence rebinds that to a mask
# by 255 (render_clean must parenthesize).
@example(
    body=[
        "addi eax, 6188",
        "addi eax, 0",
        "addi eax, 0",
        "addi eax, 0",
        "addi eax, 0",
        "shri eax, 24",
        "ld edx, [ebx+0]",
    ],
    leaf=None,
    iterations=24,
    tick_period=60,
    in_code=False,
)
# True self-modifying code: each iteration's ``stb`` rewrites the
# immediate of the live ``addi edx, 1`` two instructions back.
@example(body=SMC_BODY, leaf=None, iterations=30, tick_period=60, in_code=True)
@example(
    body=RETURN_REWRITE[0], leaf=RETURN_REWRITE[1], iterations=40, tick_period=90, in_code=False
)
@example(body=NESTED_CALL[0], leaf=NESTED_CALL[1], iterations=40, tick_period=70, in_code=True)
@example(
    body=PUSH_FAULT[0], leaf=PUSH_FAULT[1], iterations=200, tick_period=3000, in_code=False
)
@example(
    body=STACK_IN_CODE[0], leaf=STACK_IN_CODE[1], iterations=40, tick_period=80, in_code=False
)
def test_blocks_invisible_under_random_irqs(body, leaf, iterations, tick_period, in_code):
    source = _program(body, iterations, IN_CODE if in_code else 0x0010_4000, leaf)
    plain = _run(source, blocks=False, tick_period=tick_period)
    blocked = _run(source, blocks=True, tick_period=tick_period)
    assert plain["outcome"] == "halt" or body == PUSH_FAULT[0]
    assert plain == blocked
    # The timer genuinely interrupted at least once on longer runs, so
    # the equality above exercised interrupt delivery, not just ALU.
    if plain["cycles"] > 2 * tick_period:
        assert plain["ticks"] > 0


@settings(max_examples=25, deadline=None)
@given(
    body=st.lists(_insn, min_size=4, max_size=24),
    leaf=_leaf,
    iterations=st.integers(min_value=2, max_value=40),
    tick_period=st.integers(min_value=60, max_value=3000),
    in_code=st.booleans(),
)
# Regression: a closed-form loop whose body folds away entirely once
# compiled to a ``for`` with no statements under it.
@example(
    body=["not eax", "addi eax, 0", "addi eax, 0", "not eax"],
    leaf=None,
    iterations=10,
    tick_period=60,
    in_code=False,
)
# Regression: an IRQ returning onto the loop's ``jnz`` after the final
# decrement made a trace anchored there fail its first guard and charge
# zero cycles, which the block tier took as progress - a livelock.
@example(
    body=[
        "st [ebx+152], esi",
        "add ebp, edx",
        "ld edi, [ebx+104]",
        "andi edi, 65535",
        "cmp ebp, eax",
        "ld edx, [ebx+172]",
        "ldb eax, [ebx+12]",
        "subi ebp, 690",
    ],
    leaf=None,
    iterations=13,
    tick_period=60,
    in_code=False,
)
# True self-modifying code: each iteration's ``stb`` rewrites the
# immediate of the live ``addi edx, 1`` two instructions back.
@example(body=SMC_BODY, leaf=None, iterations=30, tick_period=60, in_code=True)
@example(
    body=RETURN_REWRITE[0], leaf=RETURN_REWRITE[1], iterations=40, tick_period=90, in_code=False
)
@example(body=NESTED_CALL[0], leaf=NESTED_CALL[1], iterations=40, tick_period=70, in_code=True)
@example(
    body=PUSH_FAULT[0], leaf=PUSH_FAULT[1], iterations=200, tick_period=3000, in_code=False
)
@example(
    body=STACK_IN_CODE[0], leaf=STACK_IN_CODE[1], iterations=40, tick_period=80, in_code=False
)
def test_traces_invisible_under_random_irqs(body, leaf, iterations, tick_period, in_code):
    """The trace JIT is architecturally invisible: traces-on vs
    traces-off (block tier in both) agree on every final-state field
    and on the whole event stream - so every interrupt was delivered
    on exactly the same instruction boundary."""
    source = _program(body, iterations, IN_CODE if in_code else 0x0010_4000, leaf)
    ablated = _run(source, blocks=True, tick_period=tick_period, traces=False)
    traced = _run(source, blocks=True, tick_period=tick_period, traces=True)
    assert ablated["outcome"] == "halt" or body == PUSH_FAULT[0]
    assert ablated == traced
    if ablated["cycles"] > 2 * tick_period:
        assert ablated["ticks"] > 0
