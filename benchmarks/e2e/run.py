"""End-to-end benchmark of the HyperTP control plane.

From the repository root:

    python benchmarks/e2e/run.py [--seed S] [--trace] [--smoke]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds N \
        --trace 0|1

Every run is a fresh child process (``child.py``), one at a time.  The
first form runs each workload five times, round-robin, then with
``--trace`` once more per workload under the layer wrappers.  The second
form runs one workload as often as fits in ``N`` seconds and prints, as
its last line, one JSON object with the end-to-end metrics (``--trace
0``: the fastest run's wall time, median set-up time and memory) or the
per-layer metrics (``--trace 1``).  Either form checks every
output against ``expected.json`` (at its seed) or, at another seed,
against the first run's output, and writes an artifact under ``--out``.
See README.md for the metrics, the workloads and how to compare commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402

PAYLOAD_FORMAT = "hypertp-e2e-bench"
PAYLOAD_VERSION = 1

#: (name, unit) of the end-to-end metrics, in print order
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("error_rate", "fraction"))

#: Layers every workload enters.  Only these report ``self_s`` in the
#: one-workload JSON line: a layer a workload never enters reads exactly
#: 0 s on every run there.  Its ``share`` and ``calls`` still report it.
COMMON_LAYERS = ("vulndb", "cluster.model", "core.mechanisms",
                 "cluster.btrplace", "core.pipeline", "sim.engine",
                 "fleet.controller", "fleet.metrics")

#: (name, unit) of the per-layer metrics beyond calls/self_s/share
LAYER_EXTRAS = (
    ("core.mechanisms.hosts_decided", "count"),
    ("cluster.btrplace.migrations_planned", "count"),
    ("sim.engine.events_scheduled", "count"),
    ("sim.engine.us_per_event", "us"),
    ("journal.records_written", "count"),
    ("journal.bytes_written", "bytes"),
    ("journal.records_verified", "count"),
    ("sentinel.inventory.exposure_queries", "count"),
    ("sentinel.inventory.accruals", "count"),
    ("sentinel.inventory.commits", "count"),
    ("fleet.controller.campaigns", "count"),
    ("fleet.controller.campaign_p50_s", "s"),
    ("fleet.controller.retries", "count"),
    ("fleet.controller.rolled_back_hosts", "count"),
    ("fleet.controller.retry_ratio", "ratio"),
    ("sentinel.responder.launch_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)

#: How the one-workload JSON line reduces a run's samples.  Contention
#: from other tenants of a shared host only ever adds time, in bursts
#: that slowed a campaign by up to 2x for 5-15 s on the VM this was
#: built on, so a run's fastest child is its steadiest wall time.
#: Set-up and memory report the median.
LINE_STATISTIC = {"wall_s": min, "setup_s": statistics.median,
                  "peak_rss_mb": statistics.median}
#: Minimum set-up samples per workload in a ``--seconds`` run.
SETUP_SAMPLES = 5
#: A ``--seconds`` run must finish well inside three minutes.
DEADLINE_S = 170.0


def per_layer_metrics():
    """Every per-layer metric the one-workload JSON line reports."""
    metrics = [(f"{layer}.calls", "count") for layer in LAYERS]
    metrics += [(f"{layer}.self_s", "s") for layer in COMMON_LAYERS]
    metrics += [(f"{layer}.share", "fraction") for layer in LAYERS]
    return metrics + list(LAYER_EXTRAS)


def summary(values):
    """``(median, q1, q3, n)``; the quartiles of one value are itself."""
    if not values:
        return None
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


# -- running children ----------------------------------------------------------


def run_child(args, workload, trace=False, setup_only=False, timeout=900.0):
    """Run one child; returns its result dict, or None if it failed."""
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(args.seed), "--out", args.out]
    if args.smoke:
        command.append("--smoke")
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"e2e: {workload} run killed after {timeout:.0f} s",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"e2e: {workload} run exited {done.returncode}:\n"
              f"{done.stderr.strip()}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


class Results:
    """Every child's result for one workload, checked as it arrives."""

    def __init__(self, workload, sizing, reference):
        self.workload = workload
        self.sizing = sizing
        #: unit name -> digests every run must reproduce
        self.reference = dict(reference)
        self.from_expected = bool(reference)
        self.sim = {}
        self.runs = []
        self.setups = []
        self.traced = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result, trace=False):
        """Check and keep one child's result (None = the child died)."""
        units = workloads.unit_count(self.sizing, self.workload)
        self.attempted += units
        if result is None:
            self.failed += units
            self.problems.append("a run died before reporting")
            return
        clean = True
        for unit in result["units"]:
            problems = list(unit["problems"])
            reference = self.reference.setdefault(unit["name"],
                                                  unit["digests"])
            if not problems and unit["digests"] != reference:
                source = "expected.json" if self.from_expected \
                    else "the first run"
                problems.append(f"output differs from {source}")
            self.sim.setdefault(unit["name"], unit["sim"])
            if problems:
                clean = False
                self.failed += 1
                self.problems.extend(f"{unit['name']}: {p}"
                                     for p in problems)
        if trace:
            self.traced = result
            if not all(result["trace"]["checks"].values()):
                self.problems.append(
                    f"trace self-check failed: {result['trace']['checks']} "
                    f"missed {result['trace']['missed']}")
            return
        self.setups.append(result["setup_s"])
        result["clean"] = clean
        self.runs.append(result)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems

    def samples(self):
        """End-to-end samples; a run with a failed unit has no wall time."""
        return {
            "wall_s": [sum(u["wall_s"] for u in r["units"])
                       for r in self.runs if r["clean"]],
            "setup_s": list(self.setups),
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.runs],
        }

    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def layer_metrics(self):
        """Per-layer numbers of the traced run (None without one)."""
        if self.traced is None:
            return None
        trace = self.traced["trace"]
        counts = dict(trace["counts"])
        hosts = counts.pop("fleet.controller.hosts")
        counts["fleet.controller.retry_ratio"] = (
            counts["fleet.controller.retries"] / hosts if hosts else 0.0)
        counts["sentinel.responder.launch_ratio"] = self._launch_ratio()
        walls = self.samples()["wall_s"]
        timings = dict(trace["timings"])
        timings["trace.overhead_s"] = (
            trace["wall_s"] - statistics.median(walls) if walls else 0.0)
        return {"wall_s": trace["wall_s"], "layers": trace["layers"],
                "counts": counts, "timings": timings,
                "checks": trace["checks"], "perfetto": trace["perfetto"]}

    def _launch_ratio(self):
        """Launched campaigns / response requests, from sentinel counters."""
        launched = attempts = 0
        for unit in self.traced["units"]:
            sim = unit["sim"]
            if "campaigns_launched" not in sim:
                continue
            ran = sim["campaigns_launched"] + sim["returns_launched"]
            launched += ran
            attempts += (ran + sim["requests_dropped"]
                         + sim["residual_unresolved"]
                         + sim["capacity_blocked"])
        return launched / attempts if attempts else 0.0


def run_fixed(args, results, trace):
    """``ROUNDS`` runs per workload, round-robin, then one traced run each."""
    for _ in range(workloads.ROUNDS[args.sizing]):
        for name, result in results.items():
            result.add(run_child(args, name))
    if trace:
        for name, result in results.items():
            result.add(run_child(args, name, trace=True), trace=True)


def run_budget(args, results, trace):
    """Runs of each workload until ``--seconds`` is spent."""
    for name, result in results.items():
        started = time.perf_counter()

        def remaining():
            return DEADLINE_S - (time.perf_counter() - started)

        if trace:
            # One untraced run: the digest reference and overhead baseline.
            result.add(run_child(args, name, timeout=remaining()))
            result.add(run_child(args, name, trace=True,
                                 timeout=remaining()), trace=True)
            continue
        # Set-up probes go at both ends of the run, so one burst of host
        # contention cannot cover every set-up sample.
        probe_setup(args, result, remaining, SETUP_SAMPLES // 2)
        longest = 0.0
        while True:
            child = run_child(args, name, timeout=remaining())
            result.add(child)
            if child is None:
                break
            longest = max(longest, child["elapsed_s"])
            spent = time.perf_counter() - started
            if spent + longest > args.seconds:
                break
        probe_setup(args, result, remaining, SETUP_SAMPLES)


def probe_setup(args, result, remaining, samples):
    """Set-up-only runs until the workload has ``samples`` set-up times."""
    while len(result.setups) < samples and remaining() > 10:
        probe = run_child(args, result.workload, setup_only=True,
                          timeout=remaining())
        if probe is None:
            result.problems.append("a set-up run died")
            return
        result.setups.append(probe["setup_s"])


# -- reporting -----------------------------------------------------------------


def print_tables(results, format_table):
    rows = []
    for name, result in results.items():
        samples = result.samples()
        for metric, unit in END_TO_END:
            if metric == "error_rate":
                row = (result.error_rate(), "", "",
                       f"{result.failed}/{result.attempted}")
            else:
                stats = summary(samples[metric])
                if stats is None:
                    row = ("-", "-", "-", 0)
                else:
                    row = stats
            rows.append((name, metric, unit) + tuple(row))
    print(format_table(
        ["workload", "metric", "unit", "median", "q1", "q3", "n"], rows,
        title="end-to-end (untraced runs)"))
    traced = {name: r.layer_metrics() for name, r in results.items()}
    traced = {name: m for name, m in traced.items() if m is not None}
    if not traced:
        return
    rows = []
    for name, metrics in traced.items():
        rows.append((name, "root", "",
                     metrics["timings"]["root.self_s"],
                     metrics["timings"]["root.self_s"] / metrics["wall_s"]))
        for layer in LAYERS:
            entry = metrics["layers"][layer]
            rows.append((name, layer, entry["calls"], entry["self_s"],
                         entry["share"]))
    print()
    print(format_table(["workload", "layer", "calls", "self_s", "share"],
                       rows, title="per layer (one traced run each)"))
    rows = []
    for name, metrics in traced.items():
        values = dict(metrics["counts"])
        values.update(metrics["timings"])
        for metric in sorted(values):
            if metric != "root.self_s":
                rows.append((name, metric, values[metric]))
        for check, passed in metrics["checks"].items():
            rows.append((name, f"self-check: {check}",
                         "pass" if passed else "FAIL"))
        rows.append((name, "perfetto trace", metrics["perfetto"]))
    print()
    print(format_table(["workload", "metric", "value"], rows,
                       title="per-layer counts, timings and self-checks"))


def artifact(args, results):
    """``(payload, meta)``: deterministic results apart from wall clock."""
    payload = {"format": PAYLOAD_FORMAT, "version": PAYLOAD_VERSION,
               "seed": args.seed, "sizing": args.sizing, "workloads": {}}
    meta = {"workloads": {}}
    for name, result in results.items():
        entry = {"units": {unit: {"digests": result.reference.get(unit),
                                  "sim": result.sim.get(unit)}
                           for unit in sorted(result.sim)}}
        samples = result.samples()
        info = {"samples": samples,
                "summary": {m: summary(v) for m, v in samples.items()},
                "attempted": result.attempted, "failed": result.failed,
                "error_rate": result.error_rate(),
                "problems": result.problems}
        metrics = result.layer_metrics()
        if metrics is not None:
            entry["layer_calls"] = {layer: metrics["layers"][layer]["calls"]
                                    for layer in LAYERS}
            entry["counts"] = metrics["counts"]
            info["trace"] = {
                "wall_s": metrics["wall_s"],
                "self_s": {layer: metrics["layers"][layer]["self_s"]
                           for layer in LAYERS},
                "timings": metrics["timings"],
                "checks": metrics["checks"],
                "perfetto": metrics["perfetto"],
            }
        payload["workloads"][name] = entry
        meta["workloads"][name] = info
    return payload, meta


def result_line(result, trace):
    """The one-workload JSON object (the last line of standard output)."""
    metrics = {}
    if trace:
        layer = result.layer_metrics()
        if layer is not None:
            values = dict(layer["counts"])
            values.update(layer["timings"])
            for name in LAYERS:
                for key in ("calls", "self_s", "share"):
                    values[f"{name}.{key}"] = layer["layers"][name][key]
            for metric, unit in per_layer_metrics():
                metrics[metric] = {"value": values[metric], "unit": unit}
    else:
        samples = result.samples()
        for metric, unit in END_TO_END:
            if metric in LINE_STATISTIC and samples[metric]:
                value = LINE_STATISTIC[metric](samples[metric])
                metrics[metric] = {"value": value, "unit": unit}
    return json.dumps({"correct": result.correct,
                       "attempted": result.attempted,
                       "failed": result.failed, "metrics": metrics})


def write_expected(path, args, results):
    """Record this run's digests as the reference for its sizing."""
    try:
        with open(path) as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        expected = {}
    expected[args.sizing] = {
        "seed": args.seed,
        "workloads": {name: dict(sorted(r.reference.items()))
                      for name, r in results.items()},
    }
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark of the HyperTP control plane")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="run the workload as often as fits in this "
                             "many seconds, instead of a fixed count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced run per workload (per-layer "
                             "metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="the small sizing the harness tests use")
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="artifact, Perfetto and scratch directory")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"))
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's digests in --expected")
    args = parser.parse_args(argv)
    args.sizing = "smoke" if args.smoke else "full"
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2e: no program sources at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.bench.report import format_table, write_bench_json

    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    reference = {}
    if not args.write_expected and os.path.exists(args.expected):
        with open(args.expected) as handle:
            recorded = json.load(handle).get(args.sizing, {})
        if recorded.get("seed") == args.seed:
            reference = recorded["workloads"]
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {name: Results(name, args.sizing, reference.get(name, {}))
               for name in names}

    started = time.perf_counter()
    if args.seconds is None:
        run_fixed(args, results, args.trace)
    else:
        run_budget(args, results, args.trace)

    print_tables(results, format_table)
    payload, meta = artifact(args, results)
    meta["wall_s"] = round(time.perf_counter() - started, 1)
    stem = f"e2e-{args.workload}" if args.workload else "e2e"
    path = os.path.join(args.out, f"{stem}.json")
    write_bench_json(path, payload, meta)
    print(f"\nartifact: {path}")
    correct = all(r.correct for r in results.values())
    for name, result in results.items():
        for problem in result.problems:
            print(f"e2e: {name}: {problem}", file=sys.stderr)
    if args.write_expected:
        if not correct:
            print("e2e: runs disagree or failed; expected digests not "
                  "written", file=sys.stderr)
            return 1
        write_expected(args.expected, args, results)
        print(f"expected digests written to {args.expected}")
    if args.workload:
        print(result_line(results[args.workload], args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
