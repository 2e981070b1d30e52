"""One run of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per run, one at a time, so every run
pays the same imports and starts from the same heap.  Set-up time runs
from the first statement below to just before the first timed call:
importing ``repro``, building the vulnerability database, the config
objects and the journal directory.

    python benchmarks/e2e/child.py --workload fleet-5k --seed 42 \
        --out benchmarks/e2e/results [--trace] [--smoke] [--setup-only]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory for the journal scratch directory "
                             "and the Perfetto trace")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time, exit")
    args = parser.parse_args(argv)
    sizing = "smoke" if args.smoke else "full"

    from repro.vulndb.data import load_default_database

    layers.import_program()
    # Built here so set-up time shows work moved into the database build.
    load_default_database()
    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        units = workloads.build_units(args.workload, sizing, args.seed,
                                      workdir)
        setup_s = time.perf_counter() - T0
        result = {"workload": args.workload, "seed": args.seed,
                  "sizing": sizing, "setup_s": setup_s}
        if not args.setup_only:
            result.update(_run(args, units))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result, sort_keys=True))
    return 0


def _run(args, units):
    tracer = None
    if args.trace:
        trace_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        tracer = layers.LayerTracer(trace_id)
        tracer.install()
    results = []
    try:
        for unit in units:
            results.append(_run_unit(unit, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"units": results}
    if tracer is not None:
        report = tracer.report(workloads.TAGS[args.workload])
        path = os.path.join(args.out, f"trace-{args.workload}.json")
        with open(path, "w") as handle:
            handle.write(tracer.to_trace(args.workload).to_chrome_trace())
        report["perfetto"] = path
        out["trace"] = report
    return out


def _run_unit(unit, tracer):
    """Time one unit's call, then check its output (untimed)."""
    entry = {"name": unit.name, "wall_s": None, "digests": {}, "sim": {},
             "problems": []}
    try:
        if tracer is None:
            start = time.perf_counter()
            output = unit.call()
            entry["wall_s"] = time.perf_counter() - start
        else:
            with tracer.root(unit.name) as root:
                output = unit.call()
            entry["wall_s"] = root.elapsed
        digests, sim, problems = unit.check(output)
    except Exception:  # a unit that raises is a failed unit, not a crash
        entry["problems"].append(traceback.format_exc(limit=8))
        return entry
    entry.update(digests=digests, sim=sim, problems=problems)
    return entry


if __name__ == "__main__":
    sys.exit(main())
