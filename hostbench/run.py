#!/usr/bin/env python3
"""Host wall-clock benchmark of the TyTAN reproduction.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload kernel-mix --seed 3 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process, and
ends with a summary of them all.

A round of a workload is its set-up followed by its steps, short
pieces of the measured work (see ``workloads.py``).  ``--trace 0``
repeats rounds for ``--seconds`` and reports the end-to-end metrics:
``setup_s`` is the median set-up time, ``work_per_s`` the work of every
round divided by the time of every step, and ``peak_rss_mb`` the
process's peak resident memory.  The two times are scaled to a nominal
host speed by the reference chunk timed after every set-up and step
(``reference.py``); the raw figures are printed too.  ``--trace 1``
makes one untraced and one traced round and reports the per-layer split
from the traced one, plus the tracing overhead.  A warm-up round,
checked but not timed, comes first either way.

Every round's simulated outputs are checked (see ``workloads.py``); for
the default seed their digest must also match ``pinned.json``.  Every
metric line names its unit, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Spans of the traced round and a record of each invocation (seed,
commit, host, CPU count, Python version, metrics) go to ``.hostbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".hostbench")
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

#: Seed whose output digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0
#: Timed rounds made even when one round outlasts ``--seconds``.
MIN_ROUNDS = 3


class Sample:
    """One checked round: its host times and what it produced."""

    def __init__(self, setup_s, step_s, outcome, counters=None):
        #: Host seconds of each set-up made (the last one was run).
        self.setup_s = setup_s
        #: Host seconds of each step.
        self.step_s = step_s
        self.outcome = outcome
        self.counters = counters

    @property
    def run_s(self):
        return sum(self.step_s)

    @property
    def total_s(self):
        return self.setup_s[-1] + self.run_s


def run_round(workload, inputs, speed=None, setups=1, counters=False):
    """Set up ``setups`` times from ``inputs``, then take every step of
    the last set-up; returns a checked :class:`Sample`.  With ``speed`` (a
    :class:`~hostbench.reference.HostSpeed`), the host-speed reference
    is sampled after every set-up and step, in proportion to its time."""
    setup_s = []
    for _ in range(setups):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(inputs)
        setup_s.append(time.perf_counter() - start)
        if speed is not None:
            speed.sample(setup_s[-1])
    step_s = []
    results = []
    for _ in range(workload.steps):
        start = time.perf_counter()
        results.append(workload.step(state))
        step_s.append(time.perf_counter() - start)
        if speed is not None:
            speed.sample(step_s[-1])
    outcome = workload.check(inputs, state, results)
    readers = workload.counters(state, results) if counters else None
    return Sample(setup_s, step_s, outcome, readers)


def timed_rounds(workload, variants, seconds, speed):
    """Rounds until another would overrun ``seconds`` (at least MIN_ROUNDS);
    round ``i`` runs ``variants[i % len(variants)]``."""
    samples = []
    start = time.perf_counter()
    while True:
        inputs = variants[len(samples) % len(variants)]
        samples.append(run_round(workload, inputs, speed, workload.setup_repeats))
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_ROUNDS and elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples


def raw_figures(samples):
    """Unscaled host figures: (median set-up seconds, work per step second)."""
    setup_s = statistics.median(t for s in samples for t in s.setup_s)
    work_per_s = sum(s.outcome.work for s in samples) / sum(s.run_s for s in samples)
    return setup_s, work_per_s


def end_to_end(samples, speed):
    from hostbench.metrics import END_TO_END

    setup_s, work_per_s = raw_figures(samples)
    scale = speed.scale()
    values = {
        "setup_s": setup_s / scale,
        "work_per_s": work_per_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], END_TO_END[name][0]) for name in END_TO_END}


def traced_run(workload, inputs, untraced, spans_path, meta):
    from hostbench.metrics import PER_LAYER, layer_values
    from hostbench.tracing import Tracer

    tracer = Tracer()
    with tracer:
        sample = run_round(workload, inputs, counters=True)
    values, absent = layer_values(tracer, sample.counters)
    values["trace.overhead_s"] = sample.total_s - untraced.total_s
    values["trace.overhead_ratio"] = sample.total_s / untraced.total_s
    values["trace.spans"] = len(tracer)
    values["trace.absent"] = len(absent)
    tracer.dump(spans_path, dict(meta, absent=absent))
    for name in absent:
        print("absent: %s (reported as 0)" % name)
    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    return sample, metrics


def run_metadata(seed, workload, trace):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                source.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(names, args):
    """Run each workload in its own process, then summarise them all.

    One process per workload keeps ``peak_rss_mb`` that workload's own.
    The last line merges the reports, naming metrics ``<workload>/<metric>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        report = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for metric, entry in report["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = entry
        summary.append((name, report))
    from hostbench.workloads import WORKLOADS

    print("summary:")
    for name, report in summary:
        workload = WORKLOADS[name]
        shown = ", ".join(
            "%s = %.6g %s" % (workload.work_name, entry["value"], workload.work_unit)
            if metric == "work_per_s"
            else "%s = %.6g %s" % (metric, entry["value"], entry["unit"])
            for metric, entry in report["metrics"].items()
            if args.trace == 0 or metric.startswith("trace.")
        )
        print(
            "  %s: %s; attempted %d, failed %d, correct %s"
            % (name, shown, report["attempted"], report["failed"], report["correct"])
        )
    print(json.dumps(merged, sort_keys=True))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("hostbench: no program source under %s/src" % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.chdir(ROOT)  # everything the run writes stays in the checkout
    from hostbench.reference import NOMINAL_S, HostSpeed
    from hostbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(
            "hostbench: unknown workload %r (have all, %s)" % (args.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    meta = run_metadata(args.seed, args.workload, args.trace)
    print("run: " + json.dumps(meta, sort_keys=True))

    workload = WORKLOADS[args.workload]()
    variants = [workload.inputs(args.seed, v) for v in range(workload.variants)]
    inputs = variants[0]
    samples = [run_round(workload, inputs)]  # warm-up: checked, not timed
    timed = []
    if args.trace:
        samples.append(run_round(workload, inputs))
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.json.gz" % (args.workload, args.seed))
        traced, metrics = traced_run(workload, inputs, samples[-1], spans_path, meta)
        samples.append(traced)
        print("spans: %s" % os.path.relpath(spans_path, ROOT))
    else:
        speed = HostSpeed()
        timed = timed_rounds(workload, variants, args.seconds, speed)
        samples.extend(timed)
        metrics = end_to_end(timed, speed)
        raw_setup_s, raw_work_per_s = raw_figures(timed)
        print(
            "host: reference chunk %.4g ms mean over %d samples, %.4g x nominal %.4g ms"
            % (1e3 * speed.scale() * NOMINAL_S, len(speed.samples), speed.scale(), 1e3 * NOMINAL_S)
        )
        print(
            "raw: %s = %.6g %s, setup_s = %.6g s (unscaled host time)"
            % (workload.work_name, raw_work_per_s, workload.work_unit, raw_setup_s)
        )
        print(
            "%s = %.6g %s (work_per_s over %d timed rounds, nominal host)"
            % (workload.work_name, metrics["work_per_s"][0], workload.work_unit, len(timed))
        )

    # The warm-up and traced rounds ran variant 0; timed round i ran
    # variant i % len(variants).
    ran = [0] * (len(samples) - len(timed)) + [i % len(variants) for i in range(len(timed))]
    problems = [p for s in samples for p in s.outcome.problems]
    for variant in range(len(variants)):
        digests = {s.outcome.digest for s, v in zip(samples, ran) if v == variant}
        if len(digests) > 1:
            problems.append(
                "variant %d outputs differ between rounds: %s"
                % (variant, sorted(d[:16] for d in digests))
            )
    digest = samples[0].outcome.digest
    if args.seed == DEFAULT_SEED:
        with open(PINNED) as handle:
            pinned = json.load(handle).get(args.workload)
        if digest != pinned:
            problems.append("digest %s does not match pinned %s" % (digest, pinned))
    print("digest: %s" % digest)
    for problem in problems[:20]:
        print("problem: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))

    attempted = sum(s.outcome.attempted for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as log:
        log.write(json.dumps(dict(meta, digest=digest, **report), sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
