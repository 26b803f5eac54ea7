"""Fleet attestation throughput bench: lane-scaling sweep.

For each device count the bench runs the identical fleet configuration
once per simulated compute-lane count (1, 2 and 4 lanes) and reports
*reports per simulated second*:
attested devices divided by the fabric time the full round took.
Device compute is charged in simulated time from each machine's own
cycle clock, so the headline numbers are deterministic and
host-independent; host wall-clock is recorded alongside for context
(every lane count steps its devices on one host core; it is **not**
gated).

The CI gate (:func:`check_fleet`) asserts the 4-lane run scales at
least :data:`GATE_SCALING` x *linearly* over the 1-lane run at the
largest device count: ``rps(4) / rps(1) >= 0.7 * 4``.  Attestation
compute (~1ms simulated per report) dominates the 200us link, so lane
scaling should be near-ideal; a drop below 0.7x ideal means the
orchestrator serialised something it shouldn't have.

Every run uses snapshot boot (the scale path); the bench asserts every
device attests in every run (loss is 0 here - fault-model behaviour is
the fleet CLI's and smoke tests' job; this bench isolates lane
scaling).

Reports are cumulative: ``BENCH_fleet.json`` keeps a timestamped
``history`` list like ``BENCH_cpu_core.json`` does.
"""

from __future__ import annotations

import json
import time

from repro.fleet.config import FleetConfig, ShardConfig
from repro.fleet.orchestrator import Fleet
from repro.net.fabric import FabricProfile

#: Device counts swept by default (the last one is the gated point).
DEFAULT_COUNTS = (64, 1024, 10240)

#: Simulated compute-lane counts swept per device count.
DEFAULT_LANES = (1, 2, 4)

#: Verifier shards used for every bench run.
DEFAULT_SHARDS = 8

#: The CI gate: the 4-lane run must reach at least this fraction of
#: ideal linear scaling over the 1-lane run at the largest count.
GATE_SCALING = 0.7


def bench_one(devices, lanes, seed=7, loss=0.0, shards=DEFAULT_SHARDS):
    """One fleet run; returns its throughput row.

    Raises :class:`AssertionError` if any device fails to attest - a
    bench over a sick fleet would measure the wrong thing.
    """
    started = time.perf_counter()
    fleet = Fleet(
        FleetConfig(
            devices=devices,
            seed=seed,
            workers=lanes,
            boot_mode="snapshot",
        ),
        shards=ShardConfig(shards=shards),
        fabric=FabricProfile(latency_us=200, jitter_us=0, loss=loss),
    )
    result = fleet.run()
    wall = time.perf_counter() - started
    health = result["health"]
    if health["attested"] != devices:
        raise AssertionError(
            "fleet bench: %d/%d devices attested (%d lanes)"
            % (health["attested"], devices, lanes)
        )
    return {
        "devices": devices,
        "lanes": lanes,
        "mode": result["fleet"]["mode"],
        "attested": health["attested"],
        "sim_elapsed_us": result["sim_elapsed_us"],
        "reports_per_sec": result["reports_per_sec"],
        "latency_p50_us": health["latency_us"]["p50"],
        "latency_p99_us": health["latency_us"]["p99"],
        "wall_seconds": round(wall, 3),
    }


def run_bench(
    device_counts=DEFAULT_COUNTS,
    seed=7,
    loss=0.0,
    lanes=DEFAULT_LANES,
    shards=DEFAULT_SHARDS,
):
    """Sweep lane counts over ``device_counts``; returns the result."""
    results = {}
    for devices in device_counts:
        rows = {}
        for lane_count in lanes:
            rows[str(lane_count)] = bench_one(
                devices, lane_count, seed=seed, loss=loss, shards=shards
            )
        base = rows[str(min(lanes))]["reports_per_sec"]
        scaling = {
            str(lane_count): round(
                rows[str(lane_count)]["reports_per_sec"] / base, 2
            )
            for lane_count in lanes
        }
        results[str(devices)] = {"lanes": rows, "speedup": scaling}
    return {
        "bench": "fleet",
        "seed": seed,
        "loss": loss,
        "shards": shards,
        "lane_counts": list(lanes),
        "device_counts": list(device_counts),
        "gate_scaling": GATE_SCALING,
        "results": results,
    }


def check_fleet(result, out):
    """CI gate; True when the top lane count clears the scaling floor."""
    top_devices = str(max(int(count) for count in result["results"]))
    entry = result["results"][top_devices]
    top_lanes = max(int(n) for n in result["lane_counts"])
    speedup = entry["speedup"][str(top_lanes)]
    floor = GATE_SCALING * top_lanes
    if speedup < floor:
        print(
            "check: fleet %d-lane speedup %.2fx at %s devices is below the "
            "%.2fx gate (%.0f%% of linear)"
            % (top_lanes, speedup, top_devices, floor, 100 * GATE_SCALING),
            file=out,
        )
        return False
    return True


def _history_entry(result):
    """Compact trajectory record appended to the report's history."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "shards": result["shards"],
        "reports_per_sec": {
            count: {
                lanes: row["reports_per_sec"]
                for lanes, row in entry["lanes"].items()
            }
            for count, entry in result["results"].items()
        },
        "speedup": {
            count: entry["speedup"] for count, entry in result["results"].items()
        },
    }


def _load_history(path):
    """The history list of an existing report, if any."""
    try:
        with open(path) as handle:
            old = json.load(handle)
    except (OSError, ValueError):
        return []
    history = old.get("history")
    return history if isinstance(history, list) else []


def write_report(
    path="BENCH_fleet.json",
    device_counts=DEFAULT_COUNTS,
    seed=7,
    loss=0.0,
    lanes=DEFAULT_LANES,
    shards=DEFAULT_SHARDS,
    out=None,
):
    """Run the bench and write the cumulative JSON report to ``path``."""
    result = run_bench(
        device_counts, seed=seed, loss=loss, lanes=lanes, shards=shards
    )
    result["history"] = _load_history(path) + [_history_entry(result)]
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if out is not None:
        for count in result["device_counts"]:
            entry = result["results"][str(count)]
            lanes_sorted = sorted(entry["lanes"], key=int)
            rates = " -> ".join(
                "%.1f" % entry["lanes"][n]["reports_per_sec"] for n in lanes_sorted
            )
            top = lanes_sorted[-1]
            print(
                "fleet %6d devices: %s reports/sec (1->%s lanes, %.2fx)"
                % (count, rates, top, entry["speedup"][top]),
                file=out,
            )
        print("report: %s" % path, file=out)
    return result
