"""The trace-recording JIT changes wall-clock speed only.

Differentials pin the tier's invisibility (traces-on vs. the block
tier alone must agree on every architectural outcome), and the
structural tests pin the mechanisms that make the differential hold:
guard side exits restore exact register/flag/cycle state, counted
loops engage the unrolled fast body, self-modifying stores abort the
running trace, the write snoop and the EA-MPU epoch drop cached
traces, and the trace counters land on the platform's obs registry.
Call-heavy code is traced too: ``call`` is stitched, ``ret`` is a
return guard that side-exits on a rewritten return address, and CFA
edge recording is baked into both.
"""

import io

import pytest

from repro.core.system import build_freertos_baseline
from repro.hw.platform import MachineConfig, Platform
from repro.image.linker import link
from repro.isa.assembler import assemble
from repro.cfa import CfaCore, PathRecorder
from repro.core.system import TyTAN
from repro.perf.bench_core import (
    CODE_BASE,
    DATA_BASE,
    _build_mode_rig,
    _call_source,
    _irq_source,
    _run,
    _shared_source,
    _snapshot,
    _stack_source,
)
from repro.perf import traces as traces_mod
from repro.perf.traces import TRACE_HOT_EDGE, Trace, TraceCache, build_trace, EdgeProfile

#: A loop whose conditional branch flips direction partway through:
#: ``jl skip`` is taken for the first 20 iterations and falls through
#: for the rest, so whichever direction the trace records, the other
#: direction exercises the guard's side exit mid-trace.
_GUARD_FLIP_SOURCE = """\
start:
    movi ecx, 60
    movi ebx, %d
loop:
    addi eax, 1
    cmpi eax, 20
    jl skip
    addi edx, 5
    st [ebx+0], edx
skip:
    xori esi, 0x33
    subi ecx, 1
    jnz loop
    hlt
""" % DATA_BASE

#: Pure counted ALU loop: no memory traffic, counter in ecx - the
#: shape the unrolled ``run_fast`` body requires.
_COUNTED_SOURCE = """\
start:
    movi ecx, 500
loop:
    addi eax, 3
    xori edx, 0x0F0F
    add esi, eax
    subi ecx, 1
    jnz loop
    hlt
"""

#: Rewrites its own loop body (the ``addi eax, 1`` at ``patch``) from
#: *inside* the loop, so a compiled trace over the body must notice
#: the store and abort before running the stale code again.
_SELF_PATCH_SOURCE = """\
start:
    movi ecx, 40
loop:
    movi ebx, patch
    ld eax, [ebx+0]
    st [ebx+0], eax
patch:
    addi eax, 1
    addi edx, 3
    subi ecx, 1
    jnz loop
    hlt
"""


#: Two equal-priority spinners whose counter sits in the same 256-byte
#: snoop granule as their code (every store lands beside the loop).
_SPIN_SOURCE = """
.global start
start:
    movi esi, c
again:
    ld eax, [esi]
    addi eax, 1
    st [esi], eax
    jmp again
.section .data
c:
    .word 0
"""

#: The counted loop, placed so its body straddles the 0x1100 page
#: boundary (``start`` is 11 bytes, so ``loop`` lands at 0x10F4).
_TWO_PAGE_SOURCE = """\
start:
    movi ecx, 500
    jmp loop
    .space 233
loop:
    addi eax, 3
    xori edx, 0x0F0F
    add esi, eax
    subi ecx, 1
    jnz loop
    hlt
"""


def _pair(source, irq=False):
    """(block-tier-only snapshot, traces snapshot, traced cpu)."""
    ablated, ablated_timer = _build_mode_rig(source, "blocks", irq=irq)
    traced, traced_timer = _build_mode_rig(source, "traces", irq=irq)
    _run(ablated, ablated_timer)
    _run(traced, traced_timer)
    return (
        _snapshot(ablated, ablated_timer),
        _snapshot(traced, traced_timer),
        traced,
    )


def _trace_stats(cpu):
    return cpu.block_engine.snapshot()["traces"]


class TestDifferential:
    def test_counted_loop_identical_and_fast(self):
        plain, traced, cpu = _pair(_COUNTED_SOURCE)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["compiles"] > 0
        fast = [
            trace
            for trace in cpu.block_engine.traces.cache.entries.values()
            if trace.run_fast is not None
        ]
        assert fast, "counted ALU loop should compile an unrolled fast body"
        assert fast[0].counter_reg == 1  # ecx

    def test_guard_side_exit_identical(self):
        plain, traced, cpu = _pair(_GUARD_FLIP_SOURCE)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["compiles"] > 0
        # The branch flips direction at iteration 20, so the recorded
        # direction's guard failed at least once - and the equality
        # above proves the side exit restored exact register, flag,
        # and cycle state.
        assert stats["guard_exits"] > 0

    def test_irq_workload_identical(self):
        plain, traced, cpu = _pair(_irq_source(ticks=12), irq=True)
        assert plain == traced
        assert plain["ticks"] == traced["ticks"] == 12

    def test_irq_workload_admits_prefixes(self):
        """The 400-cycle tick horizon rarely fits a whole loop body, so
        the dispatcher must land on the checkpoint-prefix path - and the
        differential above proves each cut is architecturally exact."""
        plain, traced, cpu = _pair(_irq_source(ticks=12), irq=True)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["admit"]["prefix"] > 0
        # Admission telemetry is exhaustive: every admitted dispatch is
        # either whole-body or prefix, every refusal a reject.
        assert stats["admit"]["full"] >= 0
        assert stats["admit"]["reject"] >= 0

    def test_unbounded_run_admits_only_full_bodies(self):
        plain, traced, cpu = _pair(_COUNTED_SOURCE)
        assert plain == traced
        stats = _trace_stats(cpu)
        assert stats["admit"]["full"] > 0
        assert stats["admit"]["prefix"] == 0
        assert stats["admit"]["reject"] == 0

    def test_mixed_width_slab_traffic_identical(self):
        source = """\
start:
    movi ebx, %d
    movi ecx, 300
loop:
    ld eax, [ebx+0]
    addi eax, 1
    st [ebx+0], eax
    ldh edx, [ebx+4]
    addi edx, 3
    sth [ebx+4], edx
    ldb esi, [ebx+6]
    stb [ebx+7], esi
    ldh edi, [ebx+9]
    sth [ebx+9], edi
    subi ecx, 1
    jnz loop
    hlt
""" % DATA_BASE
        plain, traced, cpu = _pair(source)
        assert plain == traced
        stats = _trace_stats(cpu)
        # Aligned u16/u8 sites ride the slab.  The deliberately
        # misaligned [ebx+9] pair splits: the *load* is served inline
        # too (an in-window misaligned read goes through the region's
        # byte slab - the window range already proves MPU permission),
        # while the *store* must stay on the checked slow path (a
        # misaligned store may cross a 256-byte snoop page, so the
        # single-probe fast path cannot cover it).
        assert stats["slab_load_u16"]["hits"] > 0
        assert stats["slab_store_u16"]["hits"] > 0
        assert stats["slab_load_u8"]["hits"] > 0
        assert stats["slab_store_u8"]["hits"] > 0
        # (a handful of warmup iterations run below the trace tier, so
        # the floor is a little under the 300 loop trips)
        assert stats["slab_load_u16"]["misses"] <= 50
        assert stats["slab_store_u16"]["misses"] >= 250


class TestSelfModification:
    def test_self_patching_loop_identical(self):
        plain = Platform(MachineConfig(blocks=True, traces=False))
        traced = Platform(MachineConfig(blocks=True, traces=True))
        results = []
        for platform in (plain, traced):
            from repro.image.linker import link
            from repro.isa.assembler import assemble

            base = platform.config.task_ram_base
            image = link(assemble(_SELF_PATCH_SOURCE), stack_size=64)
            blob = bytearray(image.blob)
            for offset in image.relocations:
                value = int.from_bytes(blob[offset : offset + 4], "little")
                blob[offset : offset + 4] = (
                    (value + base) & 0xFFFFFFFF
                ).to_bytes(4, "little")
            platform.memory.write_raw(base, bytes(blob))
            platform.cpu.regs.eip = base + image.entry
            platform.cpu.regs.esp = base + 0x8000
            entry = platform.run_isa_until_event(max_cycles=200_000)
            assert entry.kind == "halt"
            cpu = platform.cpu
            results.append(
                (
                    cpu.retired,
                    platform.clock.now,
                    list(cpu.regs.gpr),
                    cpu.regs.eflags,
                )
            )
        assert results[0] == results[1]

    def test_note_write_drops_spanning_trace(self):
        _, _, cpu = _pair(_COUNTED_SOURCE)
        cache = cpu.block_engine.traces.cache
        victims = [t for t in cache.entries.values() if t.run is not None]
        assert victims
        victim = victims[0]
        cache.note_write(victim.start, 1)
        assert victim.start not in cache.entries
        assert not victim.valid


class TestByteSpanSnoop:
    """A write drops exactly the traces whose code bytes it overlaps."""

    @staticmethod
    def _traced(source, **rig):
        cpu, timer = _build_mode_rig(source, "traces", **rig)
        _run(cpu, timer)
        cache = cpu.block_engine.traces.cache
        traces = [t for t in cache.entries.values() if t.run is not None]
        assert len(traces) == 1
        return cpu, cache, traces[0]

    @staticmethod
    def _trace(start, spans):
        trace = Trace(start, (("insn", start, None),), False, None)
        trace.spans = spans
        return trace

    def test_write_just_past_last_code_byte_keeps_trace(self):
        _, cache, trace = self._traced(_shared_source(100), shared=True)
        end = trace.spans[-1][1]
        assert end >> 8 == trace.start >> 8
        cache.note_write(end, 1)
        assert cache.entries[trace.start] is trace
        assert trace.valid

    def test_write_on_last_code_byte_drops_trace(self):
        _, cache, trace = self._traced(_shared_source(100), shared=True)
        before = cache.stats.invalidations
        cache.note_write(trace.spans[-1][1] - 1, 1)
        assert trace.start not in cache.entries
        assert not trace.valid
        assert cache.stats.invalidations == before + 1

    def test_store_beside_code_keeps_trace(self):
        cpu, cache, trace = self._traced(_shared_source(2_000), shared=True)
        assert cpu.regs.gpr[0] == 2_000
        assert cache.stats.invalidations == 0
        assert _trace_stats(cpu)["compiles"] == 1

    def test_two_page_trace_dropped_from_second_page(self):
        _, cache, trace = self._traced(_TWO_PAGE_SOURCE)
        assert trace.start == CODE_BASE + 0xF4
        last = trace.spans[-1][1] - 1
        assert last >> 8 == (trace.start >> 8) + 1
        cache.note_write(last - 4, 1)
        assert trace.start not in cache.entries
        assert not trace.valid

    def test_marker_dropped_only_by_a_write_on_its_bytes(self):
        # A refused head's marker spans the bytes the failed build read
        # (here just the ``hlt``), and so do the memory's snoop hulls.
        cpu, cache, trace = self._traced(_COUNTED_SOURCE)
        hlt = trace.spans[-1][1]
        jit = cpu.block_engine.traces
        jit.maybe_build(hlt)
        marker = cache.entries[hlt]
        assert marker.is_marker()
        assert marker.spans == ((hlt, hlt + 1),)
        assert cpu.memory.snoop_hulls[hlt >> 8][1] == hlt + 1
        cache.note_write((hlt | 0xFF) + 1, 4)  # next page: kept
        cache.note_write(hlt | 0xFC, 4)  # elsewhere on the head's page: kept
        cache.note_write(hlt + 1, 4)  # just past the head: kept
        assert cache.entries[hlt] is marker
        cache.note_write(hlt, 1)  # the head itself
        assert hlt not in cache.entries
        assert cache.entries[trace.start] is trace

    def test_reput_leaves_no_stale_span(self):
        cache = TraceCache()
        cache.put(self._trace(0x10F0, ((0x10F0, 0x1100), (0x1180, 0x1190))))
        short = self._trace(0x10F0, ((0x10F0, 0x1100),))
        cache.put(short)
        cache.note_write(0x1180, 4)  # only the old trace's second page
        assert cache.entries[0x10F0] is short
        assert short.valid
        cache.note_write(0x10FF, 1)
        assert 0x10F0 not in cache.entries
        assert not short.valid
        long = self._trace(0x10F0, ((0x10F0, 0x1100), (0x1180, 0x1190)))
        cache.put(long)
        cache.note_write(0x118F, 1)  # the new trace's second page
        assert 0x10F0 not in cache.entries
        assert not long.valid

    def test_shared_page_spinners_compile_few_traces(self):
        # The round-robin kernel from the rtos edge tests: two spinners
        # whose counter shares their code granule.  Page-granular
        # snooping dropped the issuing trace on every store (~7800
        # compiles in these 80k cycles).
        platform, kernel, loader = build_freertos_baseline()
        for name in ("a", "b"):
            image = link(assemble(_SPIN_SOURCE, name), name=name, stack_size=256)
            loader.load_synchronously(image, secure=False, name=name)
        kernel.run(max_cycles=80_000)
        assert not kernel.faulted
        compiles = _trace_stats(platform.cpu)["compiles"]
        assert 1 <= compiles <= 4


#: Self-modifying code in the image's first granule: the ``stb``
#: alternates between a scratch word below the code and the low
#: immediate byte of the ``addi`` at ``patch`` (writing the counter
#: there), so a trace's store window is installed by a harmless store
#: and the next pass's store onto code takes the broadcast path.
_PATCH_CODE_SOURCE = """\
scratch:
    .word 0
start:
    movi ebx, scratch
    movi edx, patch
    movi ecx, 40
loop:
    mov eax, ebx
    mov ebx, edx
    mov edx, eax
    stb ecx, [ebx+2]
patch:
    addi esi, 5
    subi ecx, 1
    jnz loop
    hlt
"""

#: A spinner loaded right after the kernel call task: its code starts
#: where the call task's stack ends, on the same 256-byte granule.
_NEIGHBOUR_SOURCE = """
.section .text
.global start
start:
    movi esi, 0
again:
    addi esi, 1
    xori edi, 3
    add eax, esi
    jmp again
"""


class TestStoreProbe:
    """A compiled store leaves the slab only when its bytes overlap the
    hull of the cached code on its 256-byte granule."""

    @staticmethod
    def _steady_writes(source, shared, monkeypatch):
        """Warm a traced rig until its loop is compiled and has run,
        then count bus writes over the rest of the run; returns
        ``(writes, cpu, timer)``."""
        # Short dispatches, so the loop is still running after warm-up.
        monkeypatch.setattr(traces_mod, "DEFAULT_LOOP_ITERS", 64)
        cpu, timer = _build_mode_rig(source, "traces", shared=shared)
        counters = cpu.block_engine.traces.counters
        while not counters.compiles.value:
            cpu.step()
        for _ in range(4):
            cpu.step()
        assert not cpu.halted
        writes = []
        raw = cpu.memory.write_raw

        def counting(address, payload):
            writes.append(address)
            raw(address, payload)

        cpu.memory.write_raw = counting
        _run(cpu, timer)
        return writes, cpu, timer

    def _assert_on_slab(self, source, shared, monkeypatch):
        writes, cpu, timer = self._steady_writes(source, shared, monkeypatch)
        reference, ref_timer = _build_mode_rig(source, "fastpath", shared=shared)
        _run(reference, ref_timer)
        assert _snapshot(cpu, timer) == _snapshot(reference, ref_timer)
        assert writes == []
        assert _trace_stats(cpu)["broadcast"] == {"stores": 0, "wasted": 0}
        return cpu

    def test_store_probe_is_exact_at_the_hull_edges(self):
        from repro.perf.spans import store_probe

        hulls = {0x10: (0x1040, 0x1080)}  # code bytes [0x1040, 0x1080)

        def probe(ea, size):
            return bool(eval(store_probe("e", size), {"S": hulls, "e": ea}))

        for ea, size, overlaps in (
            (0x103C, 4, False), (0x1040, 4, True), (0x107C, 4, True), (0x1080, 4, False),
            (0x103E, 2, False), (0x1040, 2, True), (0x107E, 2, True), (0x1080, 2, False),
            (0x103F, 1, False), (0x1040, 1, True), (0x107F, 1, True), (0x1080, 1, False),
            (0x1140, 4, False),  # a granule with no cached code
        ):
            assert probe(ea, size) is overlaps, (hex(ea), size)

    def test_push_below_hull_stays_on_slab(self, monkeypatch):
        # The stack is the 64 bytes just below the code, on its granule.
        cpu = self._assert_on_slab(_stack_source(2_000), "first", monkeypatch)
        # Every push lands in [CODE_BASE, start), right below the hull.
        assert cpu.memory.snoop_hulls[CODE_BASE >> 8][0] == cpu.regs.esp == CODE_BASE + 64

    def test_store_above_hull_stays_on_slab(self, monkeypatch):
        # The counter word sits right after the code, on its granule.
        cpu = self._assert_on_slab(_shared_source(2_000), True, monkeypatch)
        counter = cpu.regs.gpr[3]  # ebx
        hull = cpu.memory.snoop_hulls[counter >> 8]
        assert hull[1] <= counter

    def test_store_onto_code_broadcasts_drops_and_aborts(self):
        traced, timer = _build_mode_rig(_PATCH_CODE_SOURCE, "traces", shared="first")
        _run(traced, timer)
        reference, ref_timer = _build_mode_rig(_PATCH_CODE_SOURCE, "fastpath", shared="first")
        _run(reference, ref_timer)
        # Bit-identical although every other pass rewrites the next
        # instruction: each trace aborted right after its store.
        assert _snapshot(traced, timer) == _snapshot(reference, ref_timer)
        stats = _trace_stats(traced)
        assert stats["broadcast"]["stores"] > 0
        assert stats["broadcast"]["wasted"] == 0
        assert stats["cache"]["invalidations"] > 0

    def test_stack_below_next_task_code_wastes_no_broadcast(self):
        # The kernel-mix layout: a CFA call task whose stack ends where
        # the next task's code begins, on one granule.  Its pushes miss
        # that code's bytes, so none leaves the slab.
        system = TyTAN()
        call = system.load_source(_KERNEL_CALL_SOURCE, "call")
        system.enable_cfa(call)
        neighbour = system.load_source(_NEIGHBOUR_SOURCE, "neighbour")
        assert (call.end - 4) >> 8 == neighbour.base >> 8
        system.run(max_cycles=400_000)
        stats = system.platform.cpu.cache_stats()["block"]
        assert stats["retired"]["trace"] >= 0.9 * sum(stats["retired"].values())
        assert stats["traces"]["broadcast"] == {"stores": 0, "wasted": 0}
        assert stats["traces"]["slab_store"]["misses"] < 20


class TestCacheLifecycle:
    def test_epoch_flush_drops_traces(self):
        from repro.hw.ea_mpu import MpuRule, Perm

        _, _, cpu = _pair(_COUNTED_SOURCE)
        jit = cpu.block_engine.traces
        assert len(jit.cache.entries) > 0
        cpu.memory.mpu.program_slot(
            7, MpuRule("late", 0x8F00, 0x8F10, 0x8F00, 0x8F10, Perm.RW)
        )
        # The next dispatch syncs the epoch and flushes both caches.
        cpu.block_engine.try_execute(cpu)
        assert len(jit.cache.entries) == 0
        assert jit.counters.flushes.value > 0

    def test_hot_edge_threshold(self):
        profile = EdgeProfile()
        for _ in range(TRACE_HOT_EDGE - 1):
            assert not profile.note(0x1000, 0x2000)
        assert profile.note(0x1000, 0x2000)

    def test_build_trace_requires_hot_profile(self):
        # A cold profile gives the builder no recorded direction for
        # any conditional branch, so no multi-block trace forms off an
        # arbitrary address with no discoverable loop.
        cpu, _ = _build_mode_rig(_COUNTED_SOURCE, "traces")
        trace = build_trace(cpu.memory, cpu.regs.eip, EdgeProfile())
        assert trace is None or trace.items


class TestObsIntegration:
    def test_trace_counters_on_platform_registry(self):
        platform = Platform(MachineConfig())
        names = platform.obs.counters.names()
        for expected in (
            "trace-compiles",
            "trace-guard-exits",
            "trace-flushes",
            "slab-load",
            "slab-store",
            "trace",
        ):
            assert expected in names, expected

    def test_broadcast_counters_exposed(self, tmp_path):
        platform = Platform(MachineConfig())
        names = platform.obs.counters.names()
        assert "jit-store-broadcasts" in names
        assert "jit-store-broadcasts-wasted" in names
        from repro.tools import trace as trace_cli

        out = io.StringIO()
        code = trace_cli.main(
            ["--demo", "--ms", "1", "--out", str(tmp_path / "t.json"), "--summary"],
            out=out,
        )
        assert code == 0
        assert "jit-store-broadcasts-wasted" in out.getvalue()

    def test_ablated_platform_skips_trace_counters(self):
        platform = Platform(MachineConfig(traces=False))
        assert "trace-compiles" not in platform.obs.counters.names()

    def test_compile_event_published(self):
        _, _, cpu = _pair(_COUNTED_SOURCE)
        # Bench rigs have no obs bus; wire one and retrigger a compile
        # via a fresh rig driven through the platform instead.
        platform = Platform(MachineConfig())
        from repro.image.linker import link
        from repro.isa.assembler import assemble

        base = platform.config.task_ram_base
        image = link(assemble(_COUNTED_SOURCE), stack_size=64)
        blob = bytearray(image.blob)
        for offset in image.relocations:
            value = int.from_bytes(blob[offset : offset + 4], "little")
            blob[offset : offset + 4] = ((value + base) & 0xFFFFFFFF).to_bytes(
                4, "little"
            )
        platform.memory.write_raw(base, bytes(blob))
        platform.cpu.regs.eip = base + image.entry
        platform.cpu.regs.esp = base + 0x8000
        entry = platform.run_isa_until_event(max_cycles=200_000)
        assert entry.kind == "halt"
        kinds = {event.kind for event in platform.obs.events}
        assert "trace-compile" in kinds


#: The CFA call/ret task of the host benchmark's kernel mix: 50 calls
#: of a two-instruction leaf per pass, then publish (result, passes).
_KERNEL_CALL_SOURCE = """
.section .text
.global start
start:
    movi eax, 5
    movi ebx, 0
    movi esi, result
outer:
    movi ecx, 50
loop:
    call work
    subi ecx, 1
    cmpi ecx, 0
    jnz loop
    addi ebx, 1
    st [esi], eax
    st [esi+4], ebx
    jmp outer
work:
    addi eax, 7
    xori eax, 9
    ret
.section .data
    .space 256
result:
    .word 0, 0
"""


def _traces_of(cpu):
    return [t for t in cpu.block_engine.traces.cache.entries.values() if t.items]


class TestCallReturn:
    def test_call_loop_compiles_one_looping_trace(self):
        plain, traced, cpu = _pair(_call_source(400))
        assert plain == traced
        traces = _traces_of(cpu)
        assert len(traces) == 1
        trace = traces[0]
        kinds = [item[0] for item in trace.items]
        assert trace.looping
        assert "call" in kinds and "ret" in kinds
        # The leaf is only three instructions: without stitching no
        # trace forms and the loop stays below the trace tier.
        assert cpu.block_engine.snapshot()["retired"]["trace"] > 0.9 * cpu.retired

    def test_return_mismatch_exits_at_ret_with_stack_untouched(self):
        _, _, cpu = _pair(_call_source(400))
        trace = _traces_of(cpu)[0]
        ret_idx = next(i for i, item in enumerate(trace.items) if item[0] == "ret")
        ret_address, target = trace.items[ret_idx][1], trace.items[ret_idx][3]
        # Enter the trace at its head with a return address that does
        # not match the recorded target (a hijacked return).
        sp = cpu.regs.esp - 16
        bogus = target + 1
        cpu.memory.write_raw(sp, bogus.to_bytes(4, "little"))
        cpu.regs.esp = sp
        cpu.regs.eip = trace.start
        stats = cpu.block_engine.traces.counters
        exits = stats.guard_exits.value
        retired = cpu.retired
        trace.run(cpu, trace, 5)
        assert cpu.regs.eip == ret_address
        assert cpu.regs.esp == sp
        assert int.from_bytes(cpu.memory.read_raw(sp, 4), "little") == bogus
        assert cpu.retired == retired + ret_idx
        assert stats.guard_exits.value == exits + 1

    def test_cfa_flags_on_call_and_ret_edges(self):
        source = _call_source(400)
        evidence = []
        for mode in ("fastpath", "traces"):
            cpu, timer = _build_mode_rig(source, mode)
            recorder = PathRecorder()
            cpu.cfa = CfaCore(cpu.clock)
            cpu.cfa.attach_region(CODE_BASE, CODE_BASE + 0x1000, recorder)
            _run(cpu, timer)
            recorder.seal()
            evidence.append(
                (recorder.path_digest(), recorder.edges, cpu.clock.now, cpu.retired)
            )
        assert evidence[0] == evidence[1]
        trace = _traces_of(cpu)[0]
        flagged = {trace.items[idx][0] for idx in trace.cfa}
        assert {"call", "ret"} <= flagged
        # Recording did not push the loop back into the interpreter.
        assert cpu.block_engine.snapshot()["retired"]["trace"] > 0.9 * cpu.retired

    def test_kernel_call_task_retires_in_traces(self):
        system = TyTAN()
        task = system.load_source(_KERNEL_CALL_SOURCE, "call")
        system.enable_cfa(task)
        system.run(max_cycles=400_000)
        retired = system.platform.cpu.block_engine.snapshot()["retired"]
        total = sum(retired.values())
        assert retired["trace"] >= 0.9 * total

    def test_pop_after_esp_copy_reads_old_esp(self):
        # ``mov eax, esp`` leaves a pending copy of r4; the pop's ESP
        # bump must spill it first, or eax reads the bumped value.
        source = """\
start:
    movi ebx, %d
    movi ecx, 50
loop:
    push ecx
    mov eax, esp
    pop edx
    st [ebx+0], eax
    addi esi, 1
    subi ecx, 1
    jnz loop
    hlt
""" % DATA_BASE
        plain, traced, _ = _pair(source)
        assert plain == traced
