"""Tests for the host-time benchmark: workload checks, tracing, schema."""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from hostbench import metrics
from hostbench.reference import HostSpeed
from hostbench.run import end_to_end, run_round
from hostbench.tracing import TARGETS, Tracer
from hostbench.workloads import WORKLOADS, FleetCfaLossy, KernelMix, KernelSharedPage

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Each workload at a size that runs in about a second.
TINY = {
    "fleet-cfa-lossy": lambda tmp: FleetCfaLossy(devices=24, workdir=str(tmp)),
    "kernel-mix": lambda tmp: KernelMix(cycles=128_000, steps=4),
    "kernel-shared-page": lambda tmp: KernelSharedPage(cycles=16_000, steps=4),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_output_check(name, tmp_path):
    workload = TINY[name](tmp_path)
    inputs = workload.inputs(3)
    first = run_round(workload, inputs)
    second = run_round(workload, inputs)
    assert first.outcome.problems == []
    assert first.outcome.failed == 0 and first.outcome.attempted > 0
    assert first.outcome.work > 0
    assert first.outcome.digest == second.outcome.digest
    assert os.listdir(tmp_path) == []  # the fleet's store file is removed


def test_times_scale_by_the_host_speed_reference(tmp_path):
    workload = TINY["kernel-mix"](tmp_path)
    speed = HostSpeed()
    samples = [run_round(workload, workload.inputs(0), speed, setups=2) for _ in range(2)]
    assert len(speed.samples) >= 2 * (2 + workload.steps)
    metrics = end_to_end(samples, speed)
    setup_s = sorted(t for s in samples for t in s.setup_s)
    raw_work_per_s = sum(s.outcome.work for s in samples) / sum(s.run_s for s in samples)
    scale = speed.scale()
    assert metrics["setup_s"][0] == pytest.approx((setup_s[1] + setup_s[2]) / 2 / scale)
    assert metrics["work_per_s"][0] == pytest.approx(raw_work_per_s * scale)


def test_seed_changes_only_the_inputs():
    workload = KernelMix()
    assert workload.inputs(1) == workload.inputs(1)
    assert workload.inputs(1) != workload.inputs(2)


def test_fleet_variants_are_distinct_across_seeds():
    workload = FleetCfaLossy()
    seeds = [
        workload.inputs(seed, variant)["seed"]
        for seed in range(3)
        for variant in range(workload.variants)
    ]
    assert len(set(seeds)) == len(seeds)
    assert workload.inputs(0) == workload.inputs(0, 0)


def test_traced_run_matches_untraced_digest(tmp_path):
    workload = TINY["kernel-mix"](tmp_path)
    inputs = workload.inputs(0)
    plain = run_round(workload, inputs)
    tracer = Tracer()
    with tracer:
        traced = run_round(workload, inputs, counters=True)
    assert traced.outcome.digest == plain.outcome.digest
    values, absent = metrics.layer_values(tracer, traced.counters)
    assert absent == []
    assert values["perf.trace.compiles"] > 0
    assert values["core.int_mux.calls"] > 0 and values["core.ipc.messages"] > 0
    assert values["rtos.kernel.self_s"] > 0
    assert set(values) == set(metrics.PER_LAYER)


def _bindings():
    """Every (owner, attribute) -> object a target could be bound at."""
    seen = {}
    for _, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".", 1)
            owner = getattr(module, class_name)
            seen[(owner, attribute)] = vars(owner).get(attribute, "<inherited>")
        else:
            function = getattr(module, path)
            for alias in Tracer._aliases(function):
                seen[(alias, path)] = getattr(alias, path)
    return seen


def test_install_and_uninstall_restore_every_attribute():
    before = _bindings()
    tracer = Tracer().install()
    try:
        assert tracer.absent == []
        patched = {key for key, value in before.items() if vars(key[0]).get(key[1]) is not value}
        assert len(patched) >= len(TARGETS)
    finally:
        tracer.uninstall()
    after = {key: vars(key[0]).get(key[1], "<inherited>") for key in before}
    assert all(after[key] is before[key] for key in before)


def test_missing_target_is_reported_absent():
    targets = (
        ("net.wire", "repro.net.wire", "NoSuchMessage.to_bytes"),
        ("net.wire", "repro.no_such_module", "decode"),
        ("crypto.sha1", "repro.crypto.sha1", "SHA1.no_such_method"),
    )
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == [
        "repro.net.wire:NoSuchMessage.to_bytes",
        "repro.no_such_module:decode",
        "repro.crypto.sha1:SHA1.no_such_method",
    ]


def test_self_time_subtracts_children():
    tracer = Tracer((("outer", "json", "dumps"), ("inner", "json", "loads")))
    tracer.names = ["inner", "outer"]
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; inner [2, 2.5]
    # nests in the first inner and folds into it.
    for name, start, end, parent in (
        (1, 0.0, 10.0, -1),
        (0, 1.0, 3.0, 0),
        (0, 2.0, 2.5, 1),
        (0, 4.0, 5.0, 0),
    ):
        tracer.name_ids.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "s": 10.0, "self_s": 7.0}
    assert summary["inner"] == {"calls": 2, "s": 3.0, "self_s": 2.5}


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for section, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == {name: tuple(row[:2]) for name, row in table.items()}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "hostbench"),
        tmp_path / "hostbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "kernel-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
