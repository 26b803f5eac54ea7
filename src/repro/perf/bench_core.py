"""CPU-core throughput bench: baseline / fast path / blocks / traces.

Runs seven self-terminating workloads through identically configured
rigs (one per mode) and reports wall-clock instructions/sec, the
speedups, and the cache hit rates:

* ``alu`` - a long straight-line ALU loop: the block translator's best
  case (one superblock per iteration, all flag writes dead except the
  loop counter's).
* ``mem`` - a load/store-heavy loop: every iteration pays data-access
  EA-MPU checks, so this is the workload that exercises the
  ``mpu_access`` decision memo (the ALU loop never touches it: fetches
  go through the *transfer* memo and the instruction cache's epoch
  check, not the access memo) and the block tier's hoisted windows.
* ``irq`` - the ALU body under a live tick timer whose handler counts
  ticks: blocks may only run inside the event horizon, so this measures
  the tier with real interrupt batching (and proves delivery lands on
  the same instruction boundary in every mode).
* ``shared`` - a load/increment/store counter loop whose counter word
  sits in the same 256-byte snoop granule as the loop's code, right
  above it (the rig grants a write rule over that granule for this
  workload only): a code cache that drops translations beside the
  written bytes shows up here as a JIT tier slower than the
  interpreter.
* ``call`` - a loop whose body calls a three-instruction leaf: only
  the leaf forms a block, and the call, return, and countdown stay in
  the interpreter unless the trace tier stitches ``call`` and guards
  ``ret``.
* ``leaf2`` - the same loop with a two-instruction leaf: four of its
  six instructions per iteration are interpreted in ``blocks`` mode,
  so every dispatch the block tier refuses must cost next to nothing
  for that mode to beat the plain fast path.
* ``stack`` - a call/push loop whose stack is the 64 bytes just below
  its code, in the code's first 256-byte snoop granule (the rig grants
  a write rule over it): the layout of a task loaded right after
  another.  Every push shares a granule with cached code but misses
  its bytes, so a JIT tier that snoops by granule instead of by the
  code's hull sends every push down the broadcast write path.

The modes are ``baseline`` (every cache off), ``fastpath`` (PR 1's
caches), ``blocks`` (fast path plus the superblock tier, trace JIT
ablated), and ``traces`` (the full stack with the trace-recording
JIT).  All runs of one workload must be *architecturally identical* - same
retired count, same simulated cycles, same registers, memory, fault
log, and timer ticks - which the bench asserts before reporting
numbers.  Every mode runs :data:`TRIALS` times, the mode order
alternating between trials, and is timed by its fastest run, so the
``--check`` gates do not read one run a busy host slowed.  Each JIT mode also reports which tier retired the
instructions (``retired_share``: trace / block / interpreter).

Reports are cumulative: ``BENCH_cpu_core.json`` keeps a timestamped
``history`` list so the performance trajectory is tracked from PR to
PR (a pre-existing report in the old single-workload schema is folded
into the history rather than discarded).
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.hw.clock import CycleClock
from repro.hw.cpu import CPU
from repro.hw.ea_mpu import EAMPU, MpuRule, Perm
from repro.hw.exceptions import ExceptionEngine, Vector
from repro.hw.memory import MemoryMap, PhysicalMemory, RamRegion
from repro.hw.timer import TickTimer
from repro.image.linker import link
from repro.isa.assembler import assemble

CODE_BASE = 0x1000
STACK_BASE = 0x3000
DATA_BASE = 0x6000
OTHER_BASE = 0x8000
IDT_BASE = 0x0

#: The execution modes, cheapest-configured first.  ``blocks`` runs the
#: superblock tier with the trace JIT disabled (the ablation the trace
#: speedup is measured against); ``traces`` stacks the trace-recording
#: JIT on top.
MODES = ("baseline", "fastpath", "blocks", "traces")

#: Cycles between tick interrupts in the ``irq`` workload - short
#: enough that the event horizon genuinely constrains block admission.
IRQ_TICK_PERIOD = 400

#: ALU block repeated inside the loop body (straight-line hot path).
_ALU_BLOCK = """\
addi eax, 1
xori ebx, 0x55AA
andi edx, 0xFFFF
ori esi, 3
subi edi, 1
shli ebp, 1
add eax, ebx
xor edx, esi
"""

#: Instructions per iteration of each workload's loop (used to size the
#: iteration count from the requested instruction budget).
_ALU_REPEATS = 6
_ALU_PER_ITER = 8 * _ALU_REPEATS + 2
_MEM_PER_ITER = 14
_SHARED_PER_ITER = 5
_CALL_PER_ITER = 7
_LEAF2_PER_ITER = 6
_STACK_PER_ITER = 13

#: The call workloads' leaf body (``leaf2`` runs the first two).
_LEAF = ("addi eax, 7", "xori ebx, 0x55AA", "add edx, eax")


def _alu_source(iterations):
    """Straight-line ALU body looped ``iterations`` times, then halt."""
    body = _ALU_BLOCK * _ALU_REPEATS
    return "start:\nmovi ecx, %d\nloop:\n%ssubi ecx, 1\njnz loop\nhlt\n" % (
        iterations,
        body,
    )


def _mem_source(iterations):
    """Load/store-heavy loop: word and byte traffic plus stack pushes."""
    return """\
start:
movi ebx, %d
movi ecx, %d
loop:
ld eax, [ebx+0]
addi eax, 1
st [ebx+0], eax
ld edx, [ebx+8]
xor edx, eax
st [ebx+8], edx
ldb esi, [ebx+4]
stb esi, [ebx+5]
push eax
push edx
pop edx
pop eax
subi ecx, 1
jnz loop
hlt
""" % (DATA_BASE, iterations)


def _irq_source(ticks):
    """ALU work polled against a tick counter the IRQ handler bumps.

    The handler lives in the same code region as the task; hardware
    delivery and IRET are privileged transfers, so no extra EA-MPU
    rules are needed.  The main loop spins on the tick counter at
    ``DATA_BASE`` and exits after ``ticks`` interrupts.
    """
    return """\
start:
movi ebx, %d
st [ebx+0], eax
sti
loop:
%sld esi, [ebx+0]
cmpi esi, %d
jl loop
cli
hlt
irq_handler:
push eax
push ebx
movi ebx, %d
ld eax, [ebx+0]
addi eax, 1
st [ebx+0], eax
pop ebx
pop eax
iret
""" % (DATA_BASE, _ALU_BLOCK, ticks, DATA_BASE)


def _shared_source(iterations):
    """Counter loop whose counter is the word right after its code."""
    return """\
start:
movi ebx, counter
movi ecx, %d
loop:
ld eax, [ebx+0]
addi eax, 1
st [ebx+0], eax
subi ecx, 1
jnz loop
hlt
.align 4
counter:
.word 0
""" % iterations


def _call_source(iterations, leaf=3):
    """Leaf-call loop: ``call``, ``leaf`` ALU ops, ``ret``, countdown."""
    return """\
start:
movi ecx, %d
loop:
call work
subi ecx, 1
jnz loop
hlt
work:
%s
ret
""" % (iterations, "\n".join(_LEAF[:leaf]))


def _stack_source(iterations):
    """Call/push loop whose stack sits just below its code."""
    return """\
.space 64
start:
movi esp, start
movi ecx, %d
loop:
call work
push eax
push ecx
pop edx
pop esi
subi ecx, 1
jnz loop
hlt
work:
push ebx
addi eax, 7
xori ebx, 0x55AA
add edx, eax
pop ebx
ret
""" % iterations


def build_rig(fastpath, source=None, shared=False):
    """Assemble the workload into a CPU+EA-MPU rig; returns the CPU.

    ``shared`` grants the code a write rule over one 256-byte code
    granule: the one holding the image's last word (``True``; the
    ``shared`` workload's counter) or its first (``"first"``; the
    ``stack`` workload's stack).
    """
    memory = PhysicalMemory(MemoryMap())
    memory.map.cache_enabled = fastpath
    memory.map.add(RamRegion("idt", IDT_BASE, 0x400))
    memory.map.add(RamRegion("code", CODE_BASE, 0x1000))
    memory.map.add(RamRegion("stack", STACK_BASE, 0x1000))
    memory.map.add(RamRegion("data", DATA_BASE, 0x1000))
    memory.map.add(RamRegion("other", OTHER_BASE, 0x1000))
    mpu = EAMPU(decision_cache=fastpath)
    memory.attach_mpu(mpu)
    clock = CycleClock()
    cpu = CPU(memory, clock, fastpath=fastpath)

    image = link(assemble(source or _alu_source(3000)), stack_size=64)
    blob = bytearray(image.blob)
    for offset in image.relocations:
        value = int.from_bytes(blob[offset : offset + 4], "little")
        blob[offset : offset + 4] = ((value + CODE_BASE) & 0xFFFFFFFF).to_bytes(
            4, "little"
        )
    memory.write_raw(CODE_BASE, bytes(blob))
    entry = CODE_BASE + image.entry

    # Representative rule table: locked code + stack rules, a data rule,
    # and decoy task rules so every uncached check scans real slots.
    code = (CODE_BASE, CODE_BASE + 0x1000)
    mpu.program_slot(
        0,
        MpuRule("bench:code", code[0], code[1], code[0], code[1], Perm.RX, entry_point=entry),
        lock=True,
    )
    mpu.program_slot(
        1,
        MpuRule("bench:stack", code[0], code[1], STACK_BASE, STACK_BASE + 0x1000, Perm.RW),
        lock=True,
    )
    mpu.program_slot(
        2,
        MpuRule("bench:data", code[0], code[1], DATA_BASE, DATA_BASE + 0x1000, Perm.RW),
    )
    for slot in range(3, 7):
        base = OTHER_BASE + (slot - 3) * 0x100
        mpu.program_slot(
            slot,
            MpuRule(
                "bench:decoy%d" % slot,
                base,
                base + 0x100,
                base,
                base + 0x100,
                Perm.RX,
                entry_point=base,
            ),
        )
    if shared:
        granule = CODE_BASE if shared == "first" else (CODE_BASE + len(blob) - 4) & ~0xFF
        mpu.program_slot(
            7,
            MpuRule("bench:shared", code[0], code[1], granule, granule + 0x100, Perm.RW),
        )

    cpu.regs.eip = entry
    cpu.regs.esp = STACK_BASE + 0x1000
    return cpu


def _build_mode_rig(source, mode, irq=False, shared=False):
    """A ``build_rig`` CPU configured for one mode; returns (cpu, timer)."""
    cpu = build_rig(fastpath=mode != "baseline", source=source, shared=shared)
    timer = None
    if irq:
        engine = ExceptionEngine(cpu.memory, IDT_BASE)
        cpu.attach_engine(engine)
        timer = TickTimer(engine.controller, IRQ_TICK_PERIOD)
        cpu.clock.add_event_source(timer.next_event)
        handler = CODE_BASE + link(
            assemble(source), entry_symbol="irq_handler", stack_size=64
        ).entry
        engine.install_handler(Vector.TIMER, handler)
        timer.start(cpu.clock.now)
    if mode == "blocks":
        cpu.enable_blocks(cpu.clock.next_event_horizon, traces=False)
    elif mode == "traces":
        cpu.enable_blocks(cpu.clock.next_event_horizon, traces=True)
    return cpu, timer


def _run(cpu, timer):
    """Run the rig to completion (halt); returns wall-clock seconds.

    Mirrors the platform's slice loop: poll the timer, take a pending
    interrupt, step - so interrupt latency is at most one instruction
    (or one horizon-admitted block, which is the same boundary).
    """
    step = cpu.step
    start = time.perf_counter()
    if timer is None:
        while not cpu.halted:
            step()
    else:
        clock = cpu.clock
        tick = timer.tick
        take = cpu.maybe_take_interrupt
        while not cpu.halted:
            tick(clock.now)
            take()
            step()
    return time.perf_counter() - start


def _snapshot(cpu, timer):
    """Everything architectural a run produced (for equivalence checks)."""
    memory = cpu.memory
    snap = {
        "retired": cpu.retired,
        "cycles": cpu.clock.now,
        "gpr": list(cpu.regs.gpr),
        "eip": cpu.regs.eip,
        "eflags": cpu.regs.eflags,
        "code_sha": hashlib.sha256(memory.read_raw(CODE_BASE, 0x1000)).hexdigest(),
        "data_sha": hashlib.sha256(memory.read_raw(DATA_BASE, 0x1000)).hexdigest(),
        "stack_sha": hashlib.sha256(memory.read_raw(STACK_BASE, 0x1000)).hexdigest(),
        "faults": [str(fault) for fault in memory.mpu.fault_log],
    }
    if timer is not None:
        snap["ticks"] = timer.ticks
    return snap


def _workloads(instructions):
    """The bench's workload table, sized to the instruction budget."""
    alu_iters = max(1, instructions // _ALU_PER_ITER)
    mem_iters = max(1, instructions // _MEM_PER_ITER)
    irq_ticks = max(8, instructions // 200)
    shared_iters = max(1, instructions // _SHARED_PER_ITER)
    call_iters = max(1, instructions // _CALL_PER_ITER)
    leaf2_iters = max(1, instructions // _LEAF2_PER_ITER)
    stack_iters = max(1, instructions // _STACK_PER_ITER)
    return [
        (
            "alu",
            "straight-line ALU loop, EA-MPU live (%d iterations)" % alu_iters,
            _alu_source(alu_iters),
            False,
            False,
        ),
        (
            "mem",
            "load/store-heavy loop: word+byte+stack traffic (%d iterations)"
            % mem_iters,
            _mem_source(mem_iters),
            False,
            False,
        ),
        (
            "irq",
            "ALU loop under a %d-cycle tick timer (%d ticks)"
            % (IRQ_TICK_PERIOD, irq_ticks),
            _irq_source(irq_ticks),
            True,
            False,
        ),
        (
            "shared",
            "counter loop storing into its own code granule (%d iterations)"
            % shared_iters,
            _shared_source(shared_iters),
            False,
            True,
        ),
        (
            "call",
            "loop calling a three-instruction leaf (%d iterations)" % call_iters,
            _call_source(call_iters),
            False,
            False,
        ),
        (
            "leaf2",
            "loop calling a two-instruction leaf (%d iterations)" % leaf2_iters,
            _call_source(leaf2_iters, leaf=2),
            False,
            False,
        ),
        (
            "stack",
            "call/push loop, stack just below its code (%d iterations)" % stack_iters,
            _stack_source(stack_iters),
            False,
            "first",
        ),
    ]


#: Timed runs per workload and mode.  Each trial runs every mode back
#: to back, alternating the mode order between trials, and a mode's
#: time is its fastest run: load from elsewhere on the host only ever
#: slows a run, so one noisy run cannot flip a gate.
TRIALS = 3


def run_bench(instructions=150_000, blocks=True, traces=True):
    """Run every workload in every mode; returns the result dict.

    ``blocks=False`` drops both JIT tiers; ``traces=False`` keeps the
    block tier but ablates the trace JIT.  Every mode runs
    :data:`TRIALS` times and is timed by its fastest run.  Raises
    :class:`AssertionError` if any two runs of one workload disagree
    on any architectural outcome.
    """
    if not blocks:
        modes = MODES[:2]
    elif not traces:
        modes = MODES[:3]
    else:
        modes = MODES
    workloads = {}
    for name, description, source, irq, shared in _workloads(instructions):
        reference = None
        seconds = {mode: [] for mode in modes}
        stats = {}
        for trial in range(TRIALS):
            for mode in modes if trial % 2 == 0 else modes[::-1]:
                cpu, timer = _build_mode_rig(source, mode, irq=irq, shared=shared)
                seconds[mode].append(_run(cpu, timer))
                snap = _snapshot(cpu, timer)
                if reference is None:
                    reference = (mode, snap)
                elif snap != reference[1]:
                    diverged = sorted(
                        key for key in snap if snap[key] != reference[1][key]
                    )
                    raise AssertionError(
                        "%s: modes %r and %r diverged on %s"
                        % (name, reference[0], mode, ", ".join(diverged))
                    )
                if mode != "baseline":
                    stats[mode] = cpu.cache_stats()
        retired = reference[1]["retired"]
        entry = {"description": description, "modes": {}}
        for mode in modes:
            fastest = min(seconds[mode])
            result = {
                "seconds": round(fastest, 6),
                "trial_seconds": [round(value, 6) for value in seconds[mode]],
                "insns_per_sec": round(retired / fastest, 1),
            }
            if mode in stats:
                result["cache_stats"] = stats[mode]
                if "block" in stats[mode]:
                    result["retired_share"] = {
                        tier: round(count / retired, 4)
                        for tier, count in stats[mode]["block"]["retired"].items()
                    }
            entry["modes"][mode] = result
        entry["retired"] = retired
        entry["simulated_cycles"] = reference[1]["cycles"]
        if irq:
            entry["timer_ticks"] = reference[1]["ticks"]
        per = {m: entry["modes"][m]["insns_per_sec"] for m in modes}
        entry["speedups"] = {
            "fastpath_vs_baseline": round(per["fastpath"] / per["baseline"], 2)
        }
        if blocks:
            entry["speedups"]["blocks_vs_fastpath"] = round(
                per["blocks"] / per["fastpath"], 2
            )
            entry["speedups"]["blocks_vs_baseline"] = round(
                per["blocks"] / per["baseline"], 2
            )
        if "traces" in per:
            entry["speedups"]["traces_vs_blocks"] = round(
                per["traces"] / per["blocks"], 2
            )
            entry["speedups"]["traces_vs_fastpath"] = round(
                per["traces"] / per["fastpath"], 2
            )
            entry["speedups"]["traces_vs_baseline"] = round(
                per["traces"] / per["baseline"], 2
            )
        workloads[name] = entry
    return {
        "bench": "cpu_core",
        "instructions": instructions,
        "trials": TRIALS,
        "modes": list(modes),
        "workloads": workloads,
    }


def run_cfa_bench(instructions=150_000):
    """Path-recording overhead: the alu and call workloads, recording
    off vs on.

    Runs each workload in every mode twice - once bare and once with a
    :class:`~repro.cfa.recorder.CfaCore` folding every taken transfer
    into the path hash - and reports the wall-clock insns/sec cost of
    recording per tier, plus the modelled cycle cost (the per-edge
    charge the interpreter pays and the trace tier bakes into its
    bodies).  ``alu`` records one back edge per iteration (the
    closed-form ``record_run`` path); ``call`` records a call, a return
    and a back edge per iteration, through the recorder its trace bound
    at compile time and ``record_cycle``.  The run doubles as the
    cross-tier evidence gate: all four recording runs of a workload
    must retire the same count, charge the same cycles, and chain to
    the same path digest - divergence means a JIT's baked recording
    drifted from the interpreter's.
    """
    sources = {
        "alu": _alu_source(max(1, instructions // _ALU_PER_ITER)),
        "call": _call_source(max(1, instructions // _CALL_PER_ITER)),
    }
    return {
        "bench": "cfa_overhead",
        "instructions": instructions,
        "workloads": {name: _cfa_workload(name, source) for name, source in sources.items()},
    }


def _cfa_workload(name, source):
    """One workload of :func:`run_cfa_bench`, every mode, off and on."""
    from repro.cfa.recorder import CfaCore, PathRecorder

    modes_out = {}
    reference = None
    off_reference = None
    for mode in MODES:
        timings = {}
        evidence = None
        for recording in (False, True):
            cpu, timer = _build_mode_rig(source, mode)
            recorder = None
            if recording:
                recorder = PathRecorder()
                cpu.cfa = CfaCore(cpu.clock)
                cpu.cfa.attach_region(CODE_BASE, CODE_BASE + 0x1000, recorder)
            seconds = _run(cpu, timer)
            timings[recording] = (cpu.retired, cpu.clock.now, seconds)
            state = (list(cpu.regs.gpr), cpu.regs.eip, cpu.regs.eflags)
            if recording:
                if state != off_state:
                    raise AssertionError(
                        "cfa %s: %s architectural state differs with recording on"
                        % (name, mode)
                    )
            else:
                off_state = state
            if recording:
                recorder.seal()
                evidence = (
                    recorder.path_digest().hex(),
                    recorder.edges,
                    cpu.clock.now,
                    cpu.retired,
                )
        off_retired, off_cycles, off_seconds = timings[False]
        on_retired, on_cycles, on_seconds = timings[True]
        if off_retired != on_retired:
            raise AssertionError(
                "cfa %s: %s retired %d recording vs %d bare"
                % (name, mode, on_retired, off_retired)
            )
        if reference is None:
            reference = (mode, evidence)
            off_reference = (mode, (off_retired, off_cycles))
        else:
            if evidence != reference[1]:
                raise AssertionError(
                    "cfa %s: modes %r and %r diverged on recorded evidence"
                    % (name, reference[0], mode)
                )
            if (off_retired, off_cycles) != off_reference[1]:
                raise AssertionError(
                    "cfa %s: modes %r and %r diverged on the bare run"
                    % (name, off_reference[0], mode)
                )
        off_rate = round(off_retired / off_seconds, 1)
        on_rate = round(on_retired / on_seconds, 1)
        modes_out[mode] = {
            "off_insns_per_sec": off_rate,
            "on_insns_per_sec": on_rate,
            "recording_overhead_pct": round(100.0 * (off_rate - on_rate) / off_rate, 1),
        }
    digest, edges, on_cycles, retired = reference[1]
    off_cycles = off_reference[1][1]
    return {
        "retired": retired,
        "edges": edges,
        "path_digest": digest,
        "cycles_recording_off": off_cycles,
        "cycles_recording_on": on_cycles,
        "cycle_overhead_pct": round(100.0 * (on_cycles - off_cycles) / off_cycles, 2),
        "modes": modes_out,
    }


def write_cfa_report(
    path="BENCH_cpu_core.json",
    instructions=150_000,
    out=None,
    record=True,
):
    """Run the CFA overhead bench; publish it into the core report.

    The result lands under the ``"cfa"`` key of the existing report at
    ``path`` (created if absent) - :func:`write_report` preserves that
    section across throughput runs, so one JSON file carries both the
    tier trajectory and the latest recording-overhead numbers.
    """
    result = run_cfa_bench(instructions)
    if record:
        report = _load_report(path)
        report.setdefault("bench", "cpu_core")
        report["cfa"] = result
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if out is not None:
        for name, workload in result["workloads"].items():
            for mode in MODES:
                entry = workload["modes"][mode]
                print(
                    "cfa %-4s %-8s: %9.0f -> %9.0f insns/sec (%.1f%% recording overhead)"
                    % (
                        name,
                        mode,
                        entry["off_insns_per_sec"],
                        entry["on_insns_per_sec"],
                        entry["recording_overhead_pct"],
                    ),
                    file=out,
                )
            print(
                "cfa %-4s evidence: %d edges, digest %s, +%.2f%% simulated cycles"
                % (
                    name,
                    workload["edges"],
                    workload["path_digest"][:16],
                    workload["cycle_overhead_pct"],
                ),
                file=out,
            )
        if record:
            print("report: %s" % path, file=out)
        else:
            print("report: (check run, history not recorded)", file=out)
    return result


def _history_entry(result):
    """Compact trajectory record appended to the report's history."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "instructions": result["instructions"],
        "workloads": {
            name: {
                "insns_per_sec": {
                    mode: entry["modes"][mode]["insns_per_sec"]
                    for mode in entry["modes"]
                },
                "speedups": entry["speedups"],
            }
            for name, entry in result["workloads"].items()
        },
    }


def _legacy_history_entry(old):
    """Fold a pre-block-tier (single-workload) report into the history."""
    return {
        "timestamp": "(before run-history tracking)",
        "instructions": old.get("instructions"),
        "workloads": {
            "alu": {
                "insns_per_sec": {
                    "baseline": old["baseline"]["insns_per_sec"],
                    "fastpath": old["fastpath"]["insns_per_sec"],
                },
                "speedups": {"fastpath_vs_baseline": old["speedup"]},
            }
        },
    }


def _load_report(path):
    """The existing report at ``path`` as a dict ({} if absent/bad)."""
    try:
        with open(path) as handle:
            old = json.load(handle)
    except (OSError, ValueError):
        return {}
    return old if isinstance(old, dict) else {}


def _history_of(old):
    """The history list of an existing report, in either schema."""
    if isinstance(old.get("history"), list):
        return old["history"]
    if "baseline" in old and "fastpath" in old:
        try:
            return [_legacy_history_entry(old)]
        except (KeyError, TypeError):
            return []
    return []


def write_report(
    path="BENCH_cpu_core.json",
    instructions=150_000,
    out=None,
    blocks=True,
    traces=True,
    record=True,
):
    """Run the bench and write the JSON report to ``path``.

    The report carries a cumulative timestamped ``history`` of past
    runs (read back from any existing report at ``path``), so repeated
    bench runs track the trajectory instead of overwriting it.  With
    ``record=False`` (gate/CI checks) the report file is left untouched
    and only the result is returned - check runs must not pollute the
    history.  A dedupe guard also drops an append whose payload matches
    the previous entry exactly (timestamp aside), so re-running the
    same bench back-to-back records one trajectory point, not two.
    """
    result = run_bench(instructions, blocks=blocks, traces=traces)
    if record:
        old = _load_report(path)
        history = _history_of(old)
        entry = _history_entry(result)
        if history:
            previous = dict(history[-1], timestamp=None)
            if previous == dict(entry, timestamp=None):
                history = history[:-1]
        result["history"] = history + [entry]
        if "cfa" in old:
            # --cfa runs publish into the same report; keep their section.
            result["cfa"] = old["cfa"]
        with open(path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if out is not None:
        for name, entry in sorted(result["workloads"].items()):
            per = entry["modes"]
            line = "cpu_core %-3s: %8.0f" % (
                name,
                per["baseline"]["insns_per_sec"],
            )
            line += " -> %8.0f (%.2fx fastpath)" % (
                per["fastpath"]["insns_per_sec"],
                entry["speedups"]["fastpath_vs_baseline"],
            )
            if "blocks" in per:
                line += " -> %8.0f (%.2fx blocks)" % (
                    per["blocks"]["insns_per_sec"],
                    entry["speedups"]["blocks_vs_baseline"],
                )
            if "traces" in per:
                line += " -> %8.0f (%.2fx traces)" % (
                    per["traces"]["insns_per_sec"],
                    entry["speedups"]["traces_vs_baseline"],
                )
            line += " insns/sec"
            print(line, file=out)
            for mode in ("blocks", "traces"):
                if mode in per:
                    share = per[mode]["retired_share"]
                    print(
                        "  %-6s retired by tier: trace %5.1f%%, block %5.1f%%,"
                        " interpreter %5.1f%%"
                        % (
                            mode,
                            100 * share["trace"],
                            100 * share["block"],
                            100 * share["interpreter"],
                        ),
                        file=out,
                    )
        if record:
            print("report: %s" % path, file=out)
        else:
            print("report: (check run, history not recorded)", file=out)
    return result
