"""Tests for ``repro.par`` — the deterministic multi-process subsystem.

Three layers of the determinism contract are under test here:

1. the pool's **mechanics** (submission-order results, the task
   deadline, inline fallback once the pool breaks);
2. the **shard layer** (seed derivation);
3. the **end-to-end contract**: a fleet campaign routed through workers
   is byte-identical to the serial run, even when workers are killed or
   hung mid-task;

plus fixture tests for the ``par-*`` lint rules.

The fault-injection worker entrypoints below are module-level on purpose
(``tests`` is a package, so workers import them as ``tests.test_par:fn``)
and coordinate through marker files: crash/hang on the first attempt,
succeed when the task runs again inline — deterministic from the parent's
point of view.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis import Project, run_analysis
from repro.errors import FleetError, ParError
from repro.par import (
    ParallelRunner,
    PoolStats,
    Task,
    WorkerPool,
    check_payload,
    derive_seed,
    fleet_campaign_task,
    func_ref,
    resolve_ref,
    run_fleet_campaign,
)
from repro.sim.clock import SimClock
from repro.sim.engine import Engine


# -- module-level worker entrypoints ------------------------------------------


def double(payload):
    return payload * 2


def slow_then_value(payload):
    """Sleep ``payload['delay_s']`` (real time), then return the value.

    Used to force out-of-order completion in the pool.
    """
    time.sleep(payload["delay_s"])
    return payload["value"]


def crash_once(payload):
    """SIGKILL the worker on the first attempt; succeed inline after."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return payload["value"] * 2


def crash_always(payload):
    """SIGKILL the worker every time — only inline fallback can finish."""
    if payload.get("in_worker_only") and payload["parent_pid"] != os.getpid():
        os.kill(os.getpid(), signal.SIGKILL)
    return payload["value"] + 100


def crash_when_sibling_started(payload):
    """SIGKILL the worker once the sibling task is running elsewhere."""
    if payload["parent_pid"] != os.getpid():
        while not os.path.exists(payload["marker"]):
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return payload["value"]


def sibling_in_flight(payload):
    """Mark itself started, then outlive any test in a worker."""
    if payload["parent_pid"] != os.getpid():
        with open(payload["marker"], "w"):
            pass
        time.sleep(600)
    return payload["value"]


def mark_started(payload):
    """Leave a marker file, then take a moment."""
    with open(payload["marker"], "w"):
        pass
    time.sleep(0.3)
    return payload["value"]


def hang_once(payload):
    """Hang past any reasonable timeout on the first attempt."""
    marker = payload["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(600)
    return payload["value"] + 1


def raise_value_error(payload):
    raise ValueError(f"deterministic task failure: {payload}")


def raise_fleet_error(payload):
    raise FleetError(f"bad campaign input: {payload}")


def noisy_task(payload):
    """A stray print in a worker must not disturb the results."""
    print("a stray print from inside a task")
    return payload


def campaign_entry(payload):
    return fleet_campaign_task(payload)


def return_lock(payload):
    import threading

    return threading.Lock()


# -- func_ref / resolve_ref / payload guard -----------------------------------


class TestEntrypointReferences:
    def test_module_level_function_roundtrips(self):
        ref = func_ref(double)
        assert ref == "tests.test_par:double"
        assert resolve_ref(ref) is double

    def test_string_ref_passes_through(self):
        assert func_ref("math:sqrt") == "math:sqrt"
        assert resolve_ref("math:sqrt")(9.0) == 3.0

    def test_lambda_rejected(self):
        with pytest.raises(ParError, match="lambda or nested"):
            func_ref(lambda x: x)

    def test_nested_function_rejected(self):
        def inner(payload):
            return payload

        with pytest.raises(ParError, match="lambda or nested"):
            func_ref(inner)

    def test_bound_method_rejected(self):
        with pytest.raises(ParError, match="method"):
            func_ref(SimClock().advance)

    def test_bad_string_ref_rejected(self):
        with pytest.raises(ParError, match="module:function"):
            func_ref("no_colon_here")
        with pytest.raises(ParError, match="entrypoint"):
            resolve_ref("math:not_a_function")
        with pytest.raises(ParError, match="cannot import"):
            resolve_ref("definitely_not_a_module_xyz:fn")

    def test_payload_guard_rejects_simclock(self):
        with pytest.raises(ParError, match="SimClock"):
            check_payload({"seed": 1, "clock": SimClock()})

    def test_payload_guard_rejects_nested_engine(self):
        with pytest.raises(ParError, match="Engine"):
            check_payload({"outer": [1, 2, {"e": Engine()}]})

    def test_payload_guard_accepts_plain_data(self):
        check_payload({"seed": 7, "hosts": [1, 2, 3],
                       "nested": {"ok": (1.5, "x")}})


# -- seed derivation ----------------------------------------------------------


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(42, "fleet", 100, 0.01)
        assert a == derive_seed(42, "fleet", 100, 0.01)
        assert a != derive_seed(42, "fleet", 100, 0.05)
        assert a != derive_seed(43, "fleet", 100, 0.01)

    def test_part_boundaries_matter(self):
        # ("ab", "c") must not collide with ("a", "bc")
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_fits_in_63_bits(self):
        for seed in (0, 1, 2**31, 12345):
            derived = derive_seed(seed, "x")
            assert 0 <= derived < 2**63


# -- pool mechanics -----------------------------------------------------------


class TestWorkerPool:
    def test_inline_path_for_single_worker(self):
        pool = WorkerPool(workers=1)
        results = pool.run([Task(func=func_ref(double), payload=i)
                            for i in range(5)])
        assert results == [0, 2, 4, 6, 8]
        assert pool.stats.failures == []

    def test_pooled_results_keep_submission_order(self):
        # First task finishes last: completion order is reversed, the
        # result order must not be.
        pool = WorkerPool(workers=3)
        tasks = [Task(func=func_ref(slow_then_value),
                      payload={"delay_s": delay, "value": value})
                 for value, delay in ((1, 0.4), (2, 0.2), (3, 0.0))]
        assert pool.run(tasks) == [1, 2, 3]

    def test_pooled_matches_inline(self):
        tasks = [Task(func=func_ref(double), payload=i) for i in range(8)]
        inline = WorkerPool(workers=1).run(tasks)
        pooled = WorkerPool(workers=4).run(tasks)
        assert pooled == inline

    def test_stray_prints_do_not_corrupt_frames(self):
        pool = WorkerPool(workers=2)
        tasks = [Task(func=func_ref(noisy_task), payload=i)
                 for i in range(4)]
        assert pool.run(tasks) == [0, 1, 2, 3]

    def test_task_error_surfaces_with_traceback(self):
        pool = WorkerPool(workers=2)
        with pytest.raises(ParError) as excinfo:
            pool.run([Task(func=func_ref(raise_value_error), payload="x"),
                      Task(func=func_ref(double), payload=1)])
        assert "deterministic task failure" in str(excinfo.value)

    def test_library_error_reraises_as_itself(self):
        # A ReproError is an answer about the input: the parent raises it
        # as if the task had run inline, with the worker's traceback as
        # its cause.
        pool = WorkerPool(workers=2)
        with pytest.raises(FleetError) as excinfo:
            pool.run([Task(func=func_ref(raise_fleet_error), payload="x"),
                      Task(func=func_ref(double), payload=1)])
        assert str(excinfo.value) == "bad campaign input: x"
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParError)
        assert "raise_fleet_error" in str(cause)

    def test_unpicklable_payload_rejected(self):
        import threading

        pool = WorkerPool(workers=2)
        with pytest.raises(ParError, match="picklable"):
            pool.run([Task(func=func_ref(double), payload=threading.Lock()),
                      Task(func=func_ref(double), payload=1)])

    def test_unpicklable_result_rejected(self):
        pool = WorkerPool(workers=2)
        with pytest.raises(ParError, match="return_lock"):
            pool.run([Task(func=func_ref(return_lock)),
                      Task(func=func_ref(double), payload=1)])

    def test_task_error_cancels_tasks_not_started(self, tmp_path):
        followers = [Task(func=func_ref(mark_started),
                          payload={"marker": str(tmp_path / f"f{i}"),
                                   "value": i})
                     for i in range(8)]
        pool = WorkerPool(workers=2)
        with pytest.raises(ParError, match="deterministic task failure"):
            pool.run([Task(func=func_ref(raise_value_error), payload="x"),
                      *followers])
        assert len(list(tmp_path.iterdir())) < len(followers)

    def test_bad_configuration_rejected(self):
        with pytest.raises(ParError):
            WorkerPool(workers=0)


def fell_back(*names):
    return [f"{name}: worker pool broke; ran inline" for name in names]


class TestWorkerFaults:
    """A broken pool runs every task without a result inline, in
    submission order, and names each one in ``PoolStats.failures``."""

    def test_killed_worker_is_respawned_and_task_retried(self, tmp_path):
        # No worker is respawned any more: the killed worker's task runs
        # again inline, in the parent.
        pool = WorkerPool(workers=2)
        marker = str(tmp_path / "crash-marker")
        tasks = [Task(func=func_ref(crash_once),
                      payload={"marker": marker, "value": 21},
                      label="crash-once"),
                 Task(func=func_ref(double), payload=5)]
        assert pool.run(tasks) == [42, 10]
        # the sibling may have finished before the crash broke the pool
        assert pool.stats.failures in (
            fell_back("crash-once"),
            fell_back("crash-once", func_ref(double)))
        assert pool.stats.results == 2
        assert pool.stats.to_dict()["failures"] == pool.stats.failures

    def test_hung_worker_times_out_and_task_retried(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr("repro.par.pool.TASK_DEADLINE_S", 1.0)
        pool = WorkerPool(workers=2)
        marker = str(tmp_path / "hang-marker")
        tasks = [Task(func=func_ref(hang_once),
                      payload={"marker": marker, "value": 9})]
        assert pool.run(tasks) == [10]
        # an unlabelled task is named by its entry point
        assert pool.stats.failures == fell_back(func_ref(hang_once))

    def test_exhausted_retries_fall_back_inline(self):
        # The task kills every worker it runs in; only the parent's
        # inline fallback (same process, no kill branch) can finish it.
        pool = WorkerPool(workers=2)
        tasks = [Task(func=func_ref(crash_always),
                      payload={"in_worker_only": True,
                               "parent_pid": os.getpid(), "value": 1},
                      label="crash-always"),
                 Task(func=func_ref(double), payload=3)]
        assert pool.run(tasks) == WorkerPool(workers=1).run(tasks) \
            == [101, 6]
        assert pool.stats.failures in (
            fell_back("crash-always"),
            fell_back("crash-always", func_ref(double)))

    def test_in_flight_sibling_runs_inline(self, tmp_path):
        # The crash waits until its sibling is running in the other
        # worker, so the broken pool takes the sibling down with it.
        payload = {"marker": str(tmp_path / "sibling-started"),
                   "parent_pid": os.getpid()}
        tasks = [Task(func=func_ref(crash_when_sibling_started),
                      payload={**payload, "value": 1}, label="crash"),
                 Task(func=func_ref(sibling_in_flight),
                      payload={**payload, "value": 2}, label="sibling")]
        pool = WorkerPool(workers=2)
        assert pool.run(tasks) == [1, 2]
        assert pool.stats.failures == fell_back("crash", "sibling")

    def test_merged_fleet_output_identical_despite_crash(self, tmp_path):
        """The headline contract: a worker SIGKILLed mid-campaign must
        not change a single output byte."""
        payload = {"config": {"hosts": 10, "seed": 11}, "trace": True,
                   "metrics": True}
        serial = fleet_campaign_task(payload)

        marker = str(tmp_path / "campaign-crash")
        pool = WorkerPool(workers=2)
        results = pool.run([
            Task(func=func_ref(crash_once),
                 payload={"marker": marker, "value": 1}, label="crash"),
            Task(func=func_ref(campaign_entry), payload=payload,
                 label="campaign"),
        ])
        assert pool.stats.failures in (fell_back("crash"),
                                       fell_back("crash", "campaign"))
        assert json.dumps(results[1], sort_keys=True) == \
            json.dumps(serial, sort_keys=True)


# -- runner + fleet campaign --------------------------------------------------


class TestParallelRunner:
    def test_map_tasks_preserves_order(self):
        runner = ParallelRunner(workers=3)
        results = runner.map_tasks(double, list(range(6)))
        assert results == [0, 2, 4, 6, 8, 10]
        assert isinstance(runner.stats, PoolStats)
        assert runner.stats.results == 6

    def test_label_count_mismatch_rejected(self):
        runner = ParallelRunner(workers=1)
        with pytest.raises(ParError, match="labels"):
            runner.map_tasks(double, [1, 2], labels=["only-one"])

    def test_fleet_campaign_serial_vs_pooled_bytes(self):
        payload = {"config": {"hosts": 8, "seed": 5}, "fail_rate": 0.05,
                   "injector_seed": 5, "max_retries": 3,
                   "trace": True, "metrics": True}
        serial = run_fleet_campaign(payload, workers=1)
        pooled = run_fleet_campaign(payload, workers=3)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(pooled, sort_keys=True)
        # the trace crosses the pipe as the Chrome-trace text the CLI writes
        assert json.loads(serial["trace"])["traceEvents"]
        assert serial["trace"] == pooled["trace"]

    def test_serial_path_imports_no_process_pool(self):
        # Every e2e workload runs workers=1: importing the executor there
        # would add to their setup time.
        code = textwrap.dedent("""
            import sys
            from repro.par import run_fleet_campaign

            run_fleet_campaign({"config": {"hosts": 10, "seed": 5}},
                               workers=1)
            print(sorted(name for name in sys.modules if name in (
                "multiprocessing", "concurrent.futures")))
        """)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


# -- par-* lint rules ---------------------------------------------------------


def analyze(sources, rules=None):
    return run_analysis(Project.from_sources(sources), rule_names=rules)


class TestParHygieneRules:
    def test_lambda_entrypoint_flagged(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import ParallelRunner

                def launch(runner: ParallelRunner):
                    return runner.map_tasks(lambda x: x + 1, [1, 2])
            """),
        }, rules=["par-entrypoint-hygiene"])
        assert len(findings) == 1
        assert findings[0].path == "jobs.py"
        assert "lambda" in findings[0].message

    def test_nested_def_entrypoint_flagged(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import func_ref

                def launch():
                    def cell(payload):
                        return payload
                    return func_ref(cell)
            """),
        }, rules=["par-entrypoint-hygiene"])
        assert len(findings) == 1
        assert "nested" in findings[0].message

    def test_bound_method_entrypoint_flagged(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import Task

                class Campaign:
                    def cell(self, payload):
                        return payload

                    def tasks(self):
                        return [Task(func=self.cell, payload=1)]
            """),
        }, rules=["par-entrypoint-hygiene"])
        assert len(findings) == 1
        assert "bound method" in findings[0].message

    def test_module_level_entrypoint_clean(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import ParallelRunner, Task, func_ref

                def cell(payload):
                    return payload

                def launch(runner: ParallelRunner):
                    ref = func_ref(cell)
                    runner.map_tasks(cell, [1, 2])
                    return [Task(func=ref, payload=3)]
            """),
        }, rules=["par-entrypoint-hygiene"])
        assert findings == []

    def test_live_clock_in_payload_flagged(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import ParallelRunner
                from repro.sim.clock import SimClock

                def launch(runner: ParallelRunner, cell):
                    clock = SimClock()
                    runner.map_tasks(cell, [{"clock": clock}])
            """),
        }, rules=["par-payload-hygiene"])
        assert len(findings) == 1
        assert "SimClock" in findings[0].message

    def test_inline_engine_constructor_flagged(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import Task
                from repro.sim.engine import Engine

                def build():
                    return Task(func="m:f", payload={"e": Engine()})
            """),
        }, rules=["par-payload-hygiene"])
        assert len(findings) == 1
        assert "Engine" in findings[0].message

    def test_seed_payload_clean(self):
        findings, _ = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import Task

                def build(seed):
                    return Task(func="m:f",
                                payload={"seed": seed, "hosts": 10})
            """),
        }, rules=["par-payload-hygiene"])
        assert findings == []

    def test_suppression_directive_respected(self):
        findings, suppressed = analyze({
            "jobs.py": textwrap.dedent("""
                from repro.par import func_ref

                def launch():
                    def cell(payload):
                        return payload
                    return func_ref(cell)  # repro-lint: disable=par-entrypoint-hygiene test fixture
            """),
        }, rules=["par-entrypoint-hygiene"])
        assert findings == []
        assert suppressed == 1

    def test_sim_clock_scope_covers_par(self):
        findings, _ = analyze({
            "par/custom.py": textwrap.dedent("""
                import time

                def deadline():
                    return time.monotonic() + 5
            """),
        }, rules=["sim-clock-hygiene"])
        assert len(findings) == 1
        assert "time.monotonic" in findings[0].message
