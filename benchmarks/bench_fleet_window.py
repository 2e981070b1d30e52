"""Fleet vulnerability window vs fleet size and failure rate.

The paper measures the transplant itself (Figs. 6-13); this bench seeds the
perf trajectory for the fleet control plane layered on top: how the
disclosure->remediated window distribution (p50/p95/p99/max) scales from 10
to 1000 hosts, how injected per-phase failures (kexec hang, migration
stall, UISR verify mismatch) stretch the tail, and what each §4.5.2
mechanism policy (inplace / migration / auto, vs the hybrid grid) costs
at the largest failure-free cell.

Every cell of the sweep is an independent seeded campaign, so the sweep
runs through :class:`repro.par.ParallelRunner` (``--workers N``); the
deterministic payload of the emitted artifact is byte-identical for any
worker count — wall-clock numbers live in the volatile ``meta`` block
(see :mod:`repro.bench.report`), where ``elapsed_s`` records the run's
wall time; compare a serial and a ``--workers N`` artifact with
``python -m repro.bench.report cmp``.

Emits ``BENCH_fleet_window.json`` next to this file (override with
``--json PATH``); ``--smoke`` restricts to the 10-host column for CI.
A wall-clock guard asserts the 1000-host run stays sub-superlinear — the
simulator is O(n log n) in events, so 100x the hosts must cost far less
than 10000x the wall time.
"""

import argparse
import time
from pathlib import Path

from repro.bench.report import format_table, print_experiment, write_bench_json
from repro.par import ParallelRunner

FLEET_SIZES = [10, 100, 1000]
SMOKE_SIZES = [10]
FAIL_RATES = [0.0, 0.01, 0.05]
#: §4.5.2 policies swept at the largest failure-free cell; "hybrid" is
#: the default every other cell already runs
MECHANISMS = ["inplace", "migration", "auto"]
SEED = 42

DEFAULT_JSON_PATH = Path(__file__).resolve().parent / "BENCH_fleet_window.json"

PAYLOAD_FORMAT = "hypertp-bench-fleet-window"
PAYLOAD_VERSION = 3


def measure_cell(cell):
    """Worker entrypoint: one campaign for one sweep cell.

    Returns the deterministic result entry and, *separately*, the cell's
    wall-clock cost — wall time is the one nondeterministic number here
    and must never enter the byte-compared payload.
    """
    from repro.fleet import (
        FailureInjector,
        FleetConfig,
        FleetController,
        RetryPolicy,
    )

    hosts = cell["hosts"]
    fail_rate = cell["fail_rate"]
    mechanism = cell.get("mechanism", "hybrid")
    seed = cell.get("seed", SEED)
    config = FleetConfig(hosts=hosts, vms_per_host=10, inplace_fraction=0.8,
                         group_size=max(2, hosts // 5), seed=seed,
                         concurrency=8, mechanism=mechanism)
    controller = FleetController(
        config,
        injector=FailureInjector(fail_rate, seed=seed),
        retry=RetryPolicy(max_retries=3, backoff_base_s=5.0),
    )
    started = time.perf_counter()
    metrics = controller.run()
    wall_s = time.perf_counter() - started
    return {
        "entry": {
            "hosts": hosts,
            "fail_rate": fail_rate,
            "mechanism": mechanism,
            "seed": seed,
            "done_hosts": metrics.done_hosts,
            "rolled_back_hosts": metrics.rolled_back_hosts,
            "retries_total": metrics.retries_total,
            "rollbacks_total": metrics.rollbacks_total,
            "migrations_executed": metrics.migrations_executed,
            "mechanism_mix": controller.mechanism_mix(),
            "fleet_window_s": metrics.fleet_window_s,
            "percentiles_s": metrics.window_percentiles_s,
        },
        "wall_s": round(wall_s, 4),
    }


def sweep_cells(smoke=False):
    sizes = SMOKE_SIZES if smoke else FLEET_SIZES
    cells = [{"hosts": hosts, "fail_rate": rate, "seed": SEED,
              "mechanism": "hybrid"}
             for hosts in sizes for rate in FAIL_RATES]
    # The §4.5.2 policy sweep: largest failure-free cell, one campaign
    # per non-default mechanism (hybrid is the grid above).
    cells.extend({"hosts": sizes[-1], "fail_rate": 0.0, "seed": SEED,
                  "mechanism": mechanism}
                 for mechanism in MECHANISMS)
    return cells


def cell_label(cell):
    label = f"hosts{cell['hosts']}-fail{cell['fail_rate']:g}"
    if cell.get("mechanism", "hybrid") != "hybrid":
        label += f"-{cell['mechanism']}"
    return label


def run(smoke=False, workers=1):
    """The sweep; returns per-cell dicts in cell order plus pool stats."""
    cells = sweep_cells(smoke)
    runner = ParallelRunner(workers=workers)
    results = runner.map_tasks(measure_cell, cells,
                               labels=[cell_label(c) for c in cells])
    return results, runner.stats


def write_json(results, path=DEFAULT_JSON_PATH, workers=1, stats=None,
               extra_meta=None):
    """Write the artifact: deterministic entries, volatile walls in meta."""
    payload = {
        "format": PAYLOAD_FORMAT,
        "version": PAYLOAD_VERSION,
        "seed": SEED,
        "results": [r["entry"] for r in results],
    }
    meta = {
        "workers": workers,
        "wall_s": round(sum(r["wall_s"] for r in results), 4),
        "cell_walls_s": [
            {"hosts": r["entry"]["hosts"],
             "fail_rate": r["entry"]["fail_rate"],
             "mechanism": r["entry"]["mechanism"],
             "wall_s": r["wall_s"]}
            for r in results
        ],
    }
    if stats is not None:
        meta["pool"] = stats.to_dict()
    if extra_meta:
        meta.update(extra_meta)
    write_bench_json(str(path), payload, meta)
    return path


def to_rows(results):
    rows = []
    for result in results:
        entry = result["entry"]
        pct = entry["percentiles_s"]
        rows.append([
            entry["hosts"],
            f"{entry['fail_rate']:.0%}",
            entry["mechanism"],
            entry["done_hosts"],
            entry["rolled_back_hosts"],
            entry["retries_total"],
            entry["migrations_executed"],
            f"{pct['p50']:.1f}" if pct else "-",
            f"{pct['p95']:.1f}" if pct else "-",
            f"{pct['p99']:.1f}" if pct else "-",
            f"{pct['max']:.1f}" if pct else "-",
            f"{result['wall_s']:.3f}",
        ])
    return rows


HEADERS = ["hosts", "fail", "mech", "done", "rolled back", "retries",
           "migr", "p50 (s)", "p95 (s)", "p99 (s)", "max (s)", "wall (s)"]


def test_fleet_window_sweep(benchmark):
    results, stats = benchmark.pedantic(run, kwargs={"smoke": True},
                                        rounds=1, iterations=1)
    write_json(results, stats=stats)
    print_experiment("fleet window", "percentiles vs size and failure rate",
                     format_table(HEADERS, to_rows(results)))


def test_wall_clock_guard():
    """1000 hosts must not blow up superlinearly over 100 hosts."""
    small = measure_cell({"hosts": 100, "fail_rate": 0.0})
    large = measure_cell({"hosts": 1000, "fail_rate": 0.0})
    entry = large["entry"]
    assert entry["done_hosts"] + entry["rolled_back_hosts"] == 1000
    # Generous absolute ceiling: the run takes well under a second today.
    assert large["wall_s"] < 60.0
    # 10x the hosts may cost ~10x wall plus constant overhead, never ~100x.
    assert large["wall_s"] < 30 * max(small["wall_s"], 0.01)


def test_parallel_payload_identical():
    """Smoke sweep at 2 workers must match the serial payload exactly."""
    serial, _ = run(smoke=True, workers=1)
    parallel, _ = run(smoke=True, workers=2)
    assert [r["entry"] for r in parallel] == [r["entry"] for r in serial]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="10-host column only (CI)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (1 = serial)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        default=str(DEFAULT_JSON_PATH))
    args = parser.parse_args()

    started = time.perf_counter()
    results, stats = run(smoke=args.smoke, workers=args.workers)
    elapsed_s = round(time.perf_counter() - started, 4)

    path = write_json(results, args.json_path, workers=args.workers,
                      stats=stats, extra_meta={"elapsed_s": elapsed_s})
    print_experiment("fleet window", "percentiles vs size and failure rate",
                     format_table(HEADERS, to_rows(results)))
    print(f"JSON written to {path}")


if __name__ == "__main__":
    main()
