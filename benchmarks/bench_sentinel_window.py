"""Sentinel end-to-end windows vs feed density and fleet size.

The fleet bench measures one campaign; this bench measures the response
*plane*: replay the whole embedded feed at several densities (mean gap
between advisories) against several fleet sizes and record the per-CVE
disclosure->fleet-no-longer-exposed window distribution, the exposure
integral, and how many disclosures each policy outcome absorbed
(transplant / patch-cycle / residual).  Denser feeds force overlapping
disclosures — queueing, coalescing and preemption — so the sweep also
exercises the response plane's concurrency machinery, not just its happy
path.

Every cell is an independent seeded replay, so the sweep runs through
:class:`repro.par.ParallelRunner` (``--workers N``) and the deterministic
payload is byte-identical for any worker count; wall-clock lives in the
volatile ``meta`` block.  Emits ``BENCH_sentinel_window.json`` next to
this file; ``--smoke`` restricts to the smallest cell for CI.
"""

import argparse
import time
from pathlib import Path

from repro.bench.report import format_table, print_experiment, write_bench_json
from repro.par import ParallelRunner

FLEET_SIZES = [10, 50, 200]
SMOKE_SIZES = [10]
#: feed densities (mean days between advisories); 2 days makes campaign
#: and patch timers overlap heavily, 30 spreads them out
MEAN_GAPS_DAYS = [2.0, 7.0, 30.0]
SMOKE_GAPS_DAYS = [7.0]
SEED = 42

DEFAULT_JSON_PATH = (Path(__file__).resolve().parent
                     / "BENCH_sentinel_window.json")

PAYLOAD_FORMAT = "hypertp-bench-sentinel-window"
PAYLOAD_VERSION = 1


def measure_cell(cell):
    """Worker entrypoint: one feed replay for one sweep cell."""
    from repro.sentinel import FeedSchedule, Sentinel, SentinelConfig

    hosts = cell["hosts"]
    gap = cell["mean_gap_days"]
    seed = cell.get("seed", SEED)
    config = SentinelConfig(
        hosts=hosts, vms_per_host=10, group_size=max(2, hosts // 5),
        seed=seed,
        feed=FeedSchedule(seed=seed, mean_gap_days=gap),
    )
    started = time.perf_counter()
    report = Sentinel(config).run()
    wall_s = time.perf_counter() - started
    document = report.to_dict()
    windows, counters = document["windows"], document["counters"]
    return {
        "entry": {
            "hosts": hosts,
            "mean_gap_days": gap,
            "seed": seed,
            "disclosures": counters["disclosures"],
            "campaigns": counters["campaigns_launched"],
            "returns": counters["returns_launched"],
            "preemptions": counters["preemptions"],
            "residual": counters["residual_unresolved"],
            "transplant_count": windows["transplant_count"],
            "transplant_percentiles_days":
                windows["transplant_percentiles_days"],
            "patch_cycle_percentiles_days":
                windows["patch_cycle_percentiles_days"],
            "exposure_host_days": windows["exposure_host_days_total"],
        },
        "wall_s": round(wall_s, 4),
    }


def sweep_cells(smoke=False):
    sizes = SMOKE_SIZES if smoke else FLEET_SIZES
    gaps = SMOKE_GAPS_DAYS if smoke else MEAN_GAPS_DAYS
    return [{"hosts": hosts, "mean_gap_days": gap, "seed": SEED}
            for hosts in sizes for gap in gaps]


def cell_label(cell):
    return f"hosts{cell['hosts']}-gap{cell['mean_gap_days']:g}d"


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
             "mean_gap_days": r["entry"]["mean_gap_days"],
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
        pct = entry["transplant_percentiles_days"]
        patch = entry["patch_cycle_percentiles_days"]
        rows.append([
            entry["hosts"],
            f"{entry['mean_gap_days']:g}",
            entry["campaigns"],
            entry["returns"],
            entry["preemptions"],
            entry["residual"],
            f"{pct['p50']:.1f}" if pct else "-",
            f"{pct['max']:.1f}" if pct else "-",
            f"{patch['p50']:.1f}" if patch else "-",
            f"{entry['exposure_host_days']:.0f}",
            f"{result['wall_s']:.3f}",
        ])
    return rows


HEADERS = ["hosts", "gap (d)", "camps", "returns", "preempt", "resid",
           "tp p50 (d)", "tp max (d)", "patch p50 (d)", "exp (host-d)",
           "wall (s)"]


def test_sentinel_window_sweep(benchmark):
    results, stats = benchmark.pedantic(run, kwargs={"smoke": True},
                                        rounds=1, iterations=1)
    write_json(results, stats=stats)
    print_experiment("sentinel window",
                     "per-CVE windows vs feed density and fleet size",
                     format_table(HEADERS, to_rows(results)))


def test_transplant_beats_patch_cycle_guard():
    """The response plane must beat the patch-cycle counterfactual."""
    result = measure_cell({"hosts": 10, "mean_gap_days": 7.0})
    entry = result["entry"]
    transplant = entry["transplant_percentiles_days"]
    patch = entry["patch_cycle_percentiles_days"]
    assert transplant, "no CVE was remediated by transplant"
    assert transplant["p50"] < patch["p50"]
    assert transplant["max"] < patch["max"]
    # The whole replay is a discrete-event simulation; wall stays small.
    assert result["wall_s"] < 60.0


def test_parallel_payload_identical():
    """Smoke sweep at 2 workers must match the serial payload exactly."""
    serial, _ = run(smoke=True, workers=1)
    parallel, _ = run(smoke=True, workers=2)
    assert [r["entry"] for r in parallel] == [r["entry"] for r in serial]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest cell only (CI)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (1 = serial)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        default=str(DEFAULT_JSON_PATH))
    args = parser.parse_args()
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    started = time.perf_counter()
    results, stats = run(smoke=args.smoke, workers=args.workers)
    elapsed_s = round(time.perf_counter() - started, 4)

    path = write_json(results, args.json_path, workers=args.workers,
                      stats=stats, extra_meta={"elapsed_s": elapsed_s})
    print_experiment("sentinel window",
                     "per-CVE windows vs feed density and fleet size",
                     format_table(HEADERS, to_rows(results)))
    print(f"JSON written to {path}")


if __name__ == "__main__":
    main()
