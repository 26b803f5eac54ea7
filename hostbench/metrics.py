"""Every metric the benchmark reports: name, unit, direction, meaning.

``BENCHMARK.json`` lists the same names, units and directions (a test
keeps the two in step).  This table adds what that file's fixed schema
cannot hold: which end-to-end metric each layer metric should move, and
on which workload.  ``work_per_s`` is ``attested_per_s`` (devices
attested per host second in ``Fleet.run``) on ``fleet-cfa-lossy`` and
``insns_per_s`` (guest instructions retired per host second in
``TyTAN.run``) on the kernel workloads.  End-to-end times are scaled to
a nominal host speed (``reference.py``); per-layer times are raw.
"""

from __future__ import annotations

FLEET = "fleet-cfa-lossy"
MIX = "kernel-mix"
SHARED = "kernel-shared-page"
KERNELS = (MIX, SHARED)
ALL = (FLEET, MIX, SHARED)

#: name -> (unit, better).  Host wall-clock on the nominal host,
#: tracing off; README.md says how each is measured.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, {end-to-end metric: workloads it should move}).
PER_LAYER = {
    "fleet.orchestrator.self_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "fleet.snapshot.boot_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "fleet.snapshot.handle_self_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "fleet.device.rekeys": ("count", "lower", {"work_per_s": (FLEET,)}),
    "fleet.service.poll_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "fleet.service.handle_self_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "fleet.service.challenges_per_device": ("ratio", "lower", {"work_per_s": (FLEET,)}),
    "fleet.store.s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "fleet.store.records": ("count", "lower", {"work_per_s": (FLEET,)}),
    "fleet.setup.registry_s": ("s", "lower", {"setup_s": (FLEET,)}),
    "net.fabric.s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "net.fabric.frames": ("count", "lower", {"work_per_s": (FLEET,)}),
    "net.wire.s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "crypto.sha1_s": ("s", "lower", {"work_per_s": (FLEET,), "setup_s": ALL}),
    "crypto.sha1_bytes": ("bytes", "lower", {"work_per_s": (FLEET,), "setup_s": ALL}),
    "crypto.derive_key_calls": ("count", "lower", {"work_per_s": (FLEET,), "setup_s": ALL}),
    "core.remote_attest.attest_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "core.remote_attest.verify_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "core.loader.load_s": ("s", "lower", {"setup_s": KERNELS}),
    "core.int_mux.s": ("s", "lower", {"work_per_s": (MIX,)}),
    "core.int_mux.calls": ("count", "lower", {"work_per_s": (MIX,)}),
    "core.ipc.s": ("s", "lower", {"work_per_s": (MIX,)}),
    "core.ipc.messages": ("count", "higher", {"work_per_s": (MIX,)}),
    "cfa.evidence_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "cfa.verify_s": ("s", "lower", {"work_per_s": (FLEET,)}),
    "rtos.kernel.self_s": ("s", "lower", {"work_per_s": KERNELS}),
    "rtos.kernel.service_interrupts_s": ("s", "lower", {"work_per_s": (MIX,)}),
    "perf.block.compiles": ("count", "lower", {"work_per_s": (SHARED,)}),
    "perf.block.compile_s": ("s", "lower", {"work_per_s": (SHARED,)}),
    "perf.trace.compiles": ("count", "lower", {"work_per_s": (SHARED,)}),
    "perf.trace.compile_s": ("s", "lower", {"work_per_s": (SHARED,)}),
    "perf.invalidations": ("count", "lower", {"work_per_s": (SHARED,)}),
    "perf.trace.compiles_per_admit": ("ratio", "lower", {"work_per_s": (SHARED,)}),
    "perf.trace.admit_full": ("count", "higher", {"work_per_s": (MIX,)}),
    "perf.trace.admit_prefix": ("count", "higher", {"work_per_s": (MIX,)}),
    "perf.trace.admit_reject": ("count", "lower", {"work_per_s": (MIX,)}),
    "perf.block.horizon_deferrals": ("count", "lower", {"work_per_s": (MIX,)}),
    "perf.slab_hit_rate": ("ratio", "higher", {"work_per_s": (MIX,)}),
    "hw.insn_cache.hit_rate": ("ratio", "higher", {"work_per_s": KERNELS}),
    "hw.ea_mpu.access_hit_rate": ("ratio", "higher", {"work_per_s": KERNELS}),
    "hw.ea_mpu.transfer_hit_rate": ("ratio", "higher", {"work_per_s": KERNELS}),
    "trace.overhead_s": ("s", "lower", {}),
    "trace.overhead_ratio": ("ratio", "lower", {}),
    "trace.spans": ("count", "lower", {}),
    "trace.absent": ("count", "lower", {}),
}

#: Per-layer metric -> (span name, statistic) read from the tracer.
FROM_SPANS = {
    "fleet.orchestrator.self_s": ("fleet.run", "self_s"),
    "fleet.snapshot.boot_s": ("fleet.boot", "s"),
    "fleet.snapshot.handle_self_s": ("fleet.pool.handle", "self_s"),
    "fleet.device.rekeys": ("fleet.rekey", "calls"),
    "fleet.service.poll_s": ("fleet.service.poll", "s"),
    "fleet.service.handle_self_s": ("fleet.service.handle", "self_s"),
    "fleet.store.s": ("fleet.store", "s"),
    "net.fabric.s": ("net.fabric", "s"),
    "net.wire.s": ("net.wire", "s"),
    "crypto.sha1_s": ("crypto.sha1", "s"),
    "crypto.derive_key_calls": ("crypto.derive_key", "calls"),
    "core.remote_attest.attest_s": ("core.attest", "s"),
    "core.remote_attest.verify_s": ("core.verify", "s"),
    "core.loader.load_s": ("core.load", "s"),
    "core.int_mux.s": ("core.int_mux", "s"),
    "core.int_mux.calls": ("core.int_mux", "calls"),
    "core.ipc.s": ("core.ipc", "s"),
    "cfa.evidence_s": ("cfa.evidence", "s"),
    "cfa.verify_s": ("cfa.verify", "s"),
    "rtos.kernel.self_s": ("rtos.run", "self_s"),
    "rtos.kernel.service_interrupts_s": ("rtos.service_interrupts", "s"),
    "perf.block.compile_s": ("perf.block.compile", "s"),
    "perf.trace.compile_s": ("perf.trace.compile", "s"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_rate(snapshot):
    return _ratio(snapshot["hits"], snapshot["hits"] + snapshot["misses"])


def fleet_counters(fleet, result):
    """Layer counters a finished fleet run exposes publicly."""
    return {
        "fleet.service.challenges_per_device": lambda: _ratio(
            result.health["challenges"], result.health["total"]
        ),
        "fleet.store.records": lambda: fleet.store.appended,
        "net.fabric.frames": lambda: fleet.fabric.stats["sent"],
    }


def kernel_counters(system):
    """Layer counters a finished kernel run exposes publicly."""
    stats = system.platform.cpu.cache_stats()
    block = stats.get("block", {})
    traces = block.get("traces", {})

    def slab_hit_rate():
        slabs = [value for key, value in traces.items() if key.startswith("slab_")]
        hits = sum(slab["hits"] for slab in slabs)
        return _ratio(hits, hits + sum(slab["misses"] for slab in slabs))

    def compiles_per_admit():
        admit = traces["admit"]
        return _ratio(traces["compiles"], admit["full"] + admit["prefix"])

    return {
        "core.ipc.messages": lambda: system.ipc.delivered,
        "perf.block.compiles": lambda: block["translations"],
        "perf.trace.compiles": lambda: traces["compiles"],
        "perf.invalidations": lambda: block["invalidations"]
        + traces["cache"]["invalidations"],
        "perf.trace.compiles_per_admit": compiles_per_admit,
        "perf.trace.admit_full": lambda: traces["admit"]["full"],
        "perf.trace.admit_prefix": lambda: traces["admit"]["prefix"],
        "perf.trace.admit_reject": lambda: traces["admit"]["reject"],
        "perf.block.horizon_deferrals": lambda: block["horizon_deferrals"],
        "perf.slab_hit_rate": slab_hit_rate,
        "hw.insn_cache.hit_rate": lambda: _hit_rate(stats["insn"]),
        "hw.ea_mpu.access_hit_rate": lambda: _hit_rate(stats["mpu_access"]),
        "hw.ea_mpu.transfer_hit_rate": lambda: _hit_rate(stats["mpu_transfer"]),
    }


def layer_values(tracer, counters):
    """Every per-layer metric except the ``trace.*`` overhead figures.

    ``counters`` maps metric names to zero-argument readers.  A metric
    this workload does not exercise reads 0.  Returns ``(values,
    absent)``: ``absent`` names metrics whose span or counter no longer
    exists in the program (they read 0 too).
    """
    values = dict.fromkeys(PER_LAYER, 0)
    absent = list(tracer.absent)
    spans = tracer.summary()
    for metric, (span, statistic) in FROM_SPANS.items():
        values[metric] = spans[span][statistic]
    values["crypto.sha1_bytes"] = tracer.bytes["crypto.sha1"]
    values["fleet.setup.registry_s"] = tracer.within("fleet.registry_key", "fleet.setup")
    for metric, read in counters.items():
        try:
            values[metric] = read()
        except (KeyError, AttributeError, TypeError):
            absent.append(metric)
    return values, absent
