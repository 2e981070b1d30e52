"""Tests of the end-to-end benchmark harness, on the smoke sizing.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, script=RUN):
    return subprocess.run([sys.executable, script, "--smoke", *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def two_smoke_runs(tmp_path_factory):
    paths = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp(name)
        done = _bench("--trace", "--out", str(out))
        assert done.returncode == 0, done.stderr
        paths.append(out / "e2e.json")
    return paths


def test_payload_is_byte_identical_across_runs(two_smoke_runs):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.bench.report", "cmp",
         *map(str, two_smoke_runs)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    payload = json.loads(two_smoke_runs[0].read_text())["payload"]
    for name in workloads.WORKLOADS:
        entry = payload["workloads"][name]
        assert entry["layer_calls"]["fleet.controller"] > 0
        assert all(unit["digests"] for unit in entry["units"].values())


def test_traced_pass_passes_its_self_checks(two_smoke_runs):
    meta = json.loads(two_smoke_runs[0].read_text())["meta"]
    for name in workloads.WORKLOADS:
        info = meta["workloads"][name]
        assert info["failed"] == 0, info["problems"]
        assert all(info["trace"]["checks"].values()), info["trace"]
        assert os.path.exists(info["trace"]["perfetto"])


def test_wrappers_are_restored():
    originals = {}
    for target in layers.TARGETS:
        owner, attr = layers._owner(target)
        originals[target.ident] = (owner, attr, vars(owner)[attr])
    tracer = layers.LayerTracer("test")
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not raw
                   for owner, attr, raw in originals.values())
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert all(vars(owner)[attr] is raw
               for owner, attr, raw in originals.values())


def test_corrupted_expected_digest_counts_as_a_failure(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    unit = expected["smoke"]["workloads"]["fleet-5k"]["campaign"]
    unit["document"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    done = _bench("--workload", "fleet-5k", "--expected", str(corrupted),
                  "--out", str(tmp_path))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "wall_s" not in result["metrics"]


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    done = _bench("--workload", "fleet-5k", "--seconds", "1",
                  script=str(copy / "run.py"))
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_declares_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        run.per_layer_metrics()
    reported = dict(run.END_TO_END)
    for metric in declared["end_to_end"]:
        assert reported[metric["name"]] == metric["unit"]
