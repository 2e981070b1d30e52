"""Tests for the repro.fleet emergency-response control plane."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, ReproError, SimulationError
from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.plan import InPlaceAction, MigrationAction
from repro.cluster.model import (
    NODE_CAPACITY_VMS,
    WorkloadKind,
    build_paper_cluster,
)
from repro.fleet import (
    FailureInjector,
    FailurePhase,
    FleetConfig,
    FleetController,
    FleetTrace,
    HostState,
    RetryPolicy,
    UpgradeCampaign,
    percentile,
)
from repro.fleet.state import HostRecord, Transition
from repro.sim.clock import SimClock
from repro.sim.engine import Engine, FifoSemaphore, Gate, Latch

from tests.oracles import PlanExecutor

GIB = 1024 ** 3


def run_campaign(fail_rate=0.0, retry=None, **overrides):
    defaults = dict(hosts=6, vms_per_host=4, inplace_fraction=0.5,
                    group_size=2, seed=11)
    defaults.update(overrides)
    config = FleetConfig(**defaults)
    controller = FleetController(
        config,
        injector=FailureInjector(fail_rate, seed=config.seed),
        retry=retry if retry is not None else RetryPolicy(),
    )
    return controller, controller.run()


# -- the Fig. 13 campaign and its arithmetic oracle ----------------------------

class TestExecutorCostFunctions:
    def test_executor_delegates_to_stage_plans(self):
        # The oracle prices each action with the staged pipeline, as the
        # fleet controller does, so it is a reference for the same floats.
        executor = PlanExecutor()
        migration = MigrationAction(
            vm_name="vm0", source="a", destination="b",
            memory_bytes=4 * GIB, workload=WorkloadKind.STREAMING,
        )
        upgrade = InPlaceAction(node_name="a", vm_count=5,
                                total_memory_bytes=20 * GIB)
        assert (executor.migration_time_s(migration)
                == executor.migration_plan(migration).total_s)
        assert (executor.upgrade_time_s(upgrade)
                == executor.upgrade_plan(upgrade).total_s)

    def test_campaign_results_unchanged(self):
        # Pinned against the seed's Fig. 13 behaviour: the refactor must not
        # move a single migration or second.
        campaign = UpgradeCampaign()
        results = campaign.sweep([0.0, 0.8])
        assert results[0].migration_count == 162
        assert results[1].migration_count == 31
        assert results[0].total_s == pytest.approx(748.99, abs=0.01)
        assert results[1].total_s == pytest.approx(175.70, abs=0.01)
        gains = UpgradeCampaign.time_gains(results)
        assert gains[1] == pytest.approx(0.765, abs=0.005)


# -- sync primitives ----------------------------------------------------------

class TestSimSync:
    def test_gate_parks_until_fired(self):
        engine = Engine(SimClock())
        gate = Gate(engine)
        log = []

        def waiter():
            yield gate
            log.append(engine.now)

        engine.spawn(waiter(), name="w")
        engine.call_after(5.0, gate.fire)
        engine.run()
        assert log == [5.0]

    def test_fifo_semaphore_orders_grants(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, 1)
        order = []

        def worker(name):
            yield sem.acquire()
            order.append(name)
            yield 1.0
            sem.release()

        for name in ("a", "b", "c"):
            engine.spawn(worker(name), name=name)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_unbounded_semaphore_grants_all(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, None)
        done = []

        def worker(i):
            yield sem.acquire()
            yield 1.0
            done.append(i)

        for i in range(5):
            engine.spawn(worker(i), name=str(i))
        engine.run()
        assert len(done) == 5 and engine.now == 1.0

    def test_latch_opens_at_zero(self):
        engine = Engine(SimClock())
        latch = Latch(engine, 2)
        hits = []
        latch.subscribe(lambda: hits.append(engine.now))
        latch.count_down()
        engine.run()
        assert hits == []
        latch.count_down()
        engine.run()
        assert hits == [0.0]


class TestSemaphoreHold:
    def test_held_scope_releases_on_normal_exit(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, 1)
        order = []

        def worker(name):
            with sem.held() as gate:
                yield gate
                order.append(name)
                yield 1.0

        for name in ("a", "b", "c"):
            engine.spawn(worker(name), name=name)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_held_scope_releases_on_exception(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, 1)
        with pytest.raises(ValueError):
            with sem.held() as gate:
                assert gate.fired
                raise ValueError("boom")
        # The permit came back: the next acquire is granted immediately.
        assert sem.acquire().fired

    def test_held_scope_withdraws_a_queued_request(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, 1)
        holder = sem.acquire()
        assert holder.fired
        with sem.held() as gate:
            assert not gate.fired  # queued behind the holder
        # Exiting withdrew the pending request rather than releasing a
        # permit the scope never owned; the holder's release then frees
        # the semaphore without tripping the over-release guard.
        sem.release()
        assert sem.acquire().fired

    def test_held_scope_cannot_be_reentered(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, None)
        hold = sem.held()
        with hold:
            with pytest.raises(SimulationError):
                hold.__enter__()


# -- state machine ------------------------------------------------------------

class TestHostStateMachine:
    def test_illegal_transition_rejected(self):
        trace = FleetTrace()
        record = HostRecord(name="h", wave=0, vm_count=1,
                            planned_migrations=0)
        with pytest.raises(FleetError):
            record.transition(HostState.DONE, 0.0, trace)

    def test_terminal_states_are_final(self):
        trace = FleetTrace()
        record = HostRecord(name="h", wave=0, vm_count=1,
                            planned_migrations=0)
        record.transition(HostState.TRANSPLANTING, 1.0, trace)
        record.transition(HostState.VERIFYING, 2.0, trace)
        record.transition(HostState.DONE, 3.0, trace)
        with pytest.raises(FleetError):
            record.transition(HostState.VERIFYING, 4.0, trace)
        assert record.window_s == 3.0

    def test_trace_in_flight_counting(self):
        trace = FleetTrace()
        trace.append(Transition(0.0, "a", HostState.PENDING,
                                HostState.EVACUATING))
        trace.append(Transition(0.0, "b", HostState.PENDING,
                                HostState.TRANSPLANTING))
        trace.append(Transition(1.0, "a", HostState.EVACUATING,
                                HostState.TRANSPLANTING))
        trace.append(Transition(2.0, "a", HostState.TRANSPLANTING,
                                HostState.VERIFYING))
        trace.append(Transition(3.0, "a", HostState.VERIFYING,
                                HostState.DONE))
        trace.append(Transition(4.0, "b", HostState.TRANSPLANTING,
                                HostState.VERIFYING))
        trace.append(Transition(5.0, "b", HostState.VERIFYING,
                                HostState.DONE))
        assert trace.max_in_flight() == 2
        assert trace.remediation_curve() == [[3.0, 1.0], [5.0, 2.0]]


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(FleetError):
            percentile([], 50.0)


# -- campaign invariants -------------------------------------------------------

class TestCampaignDeterminism:
    def test_same_seed_byte_identical_metrics(self):
        _, first = run_campaign(fail_rate=0.05, seed=13)
        _, second = run_campaign(fail_rate=0.05, seed=13)
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self):
        _, first = run_campaign(fail_rate=0.2, seed=13)
        _, second = run_campaign(fail_rate=0.2, seed=14)
        assert first.to_json() != second.to_json()


class TestWindowInvariant:
    def test_fleet_window_is_max_host_window(self):
        _, metrics = run_campaign()
        windows = [h.window_s for h in metrics.per_host
                   if h.window_s is not None]
        assert metrics.fleet_window_s == max(windows)
        assert metrics.window_percentiles_s["max"] == max(windows)

    def test_fleet_window_is_last_done_minus_disclosure(self):
        controller, metrics = run_campaign()
        last_done = max(t.time_s for t in controller.trace.transitions
                        if t.target is HostState.DONE)
        assert metrics.fleet_window_s == pytest.approx(
            last_done - metrics.disclosure_at_s
        )

    def test_disclosure_offset_shifts_timeline_not_window(self):
        _, base = run_campaign()
        _, offset = run_campaign(disclosure_at_s=3600.0)
        assert offset.fleet_window_s == pytest.approx(base.fleet_window_s)
        assert offset.completed_at_s == pytest.approx(
            base.completed_at_s + 3600.0
        )


def _outcome(run):
    """``(result, None)``, or ``(None, (class, message))`` if it raised."""
    try:
        return run(), None
    except ReproError as error:
        return None, (type(error), str(error))


class TestExecutorCompat:
    @settings(max_examples=150, deadline=None)
    @given(hosts=st.integers(1, 17),
           vms_per_host=st.integers(0, NODE_CAPACITY_VMS),
           group_size=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1),
           fraction=st.floats(0.0, 1.0))
    def test_upgrade_campaign_matches_plan_executor_oracle(
            self, hosts, vms_per_host, group_size, seed, fraction):
        """The degenerate fleet campaign times a plan exactly as the
        former arithmetic engine did: each wave's migrations one after
        another, then its slowest host upgrade."""
        result, error = _outcome(lambda: UpgradeCampaign(
            hosts=hosts, vms_per_host=vms_per_host, group_size=group_size,
            seed=seed).run(fraction))
        reference, reference_error = _outcome(
            lambda: PlanExecutor().execute(BtrPlacePlanner(
                build_paper_cluster(hosts=hosts, vms_per_host=vms_per_host,
                                    inplace_fraction=fraction, seed=seed),
                group_size).plan(apply=True)))
        assert error == reference_error
        if error is not None:
            return
        assert result.migration_count == reference.migration_count
        assert math.isclose(result.total_s, reference.total_s,
                            rel_tol=1e-12)
        assert math.isclose(result.migration_s, reference.migration_s,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(result.upgrade_s, reference.upgrade_s,
                            rel_tol=1e-9, abs_tol=1e-9)


class TestFailureInjection:
    def test_every_host_terminal_under_failures(self):
        _, metrics = run_campaign(fail_rate=0.3, hosts=10,
                                  retry=RetryPolicy(max_retries=2))
        assert metrics.all_terminal
        assert metrics.done_hosts + metrics.rolled_back_hosts == 10
        assert metrics.retries_total > 0

    def test_retries_eventually_succeed(self):
        # With generous retry budget and a moderate rate, hosts get through.
        _, metrics = run_campaign(fail_rate=0.2,
                                  retry=RetryPolicy(max_retries=10,
                                                    backoff_base_s=1.0))
        assert metrics.done_hosts == 6
        assert metrics.retries_total > 0

    def test_fault_streams_do_not_depend_on_interleaving(self):
        # The same host draws the same faults whatever the concurrency.
        injector = FailureInjector(0.5, seed=99)
        a = injector.stream_for("node03")
        b = injector.stream_for("node03")
        draws_a = [a.strikes(FailurePhase.KEXEC) for _ in range(32)]
        draws_b = [b.strikes(FailurePhase.KEXEC) for _ in range(32)]
        assert draws_a == draws_b

    def test_bad_rate_rejected(self):
        with pytest.raises(FleetError):
            FailureInjector(1.5)

    def test_backoff_past_float_range_sits_at_the_cap(self):
        # 2.0 ** 1024 overflows a float.
        assert RetryPolicy().backoff_s(1100) == 300.0
        assert RetryPolicy(backoff_base_s=0.0).backoff_s(1100) == 0.0

    def test_retry_budget_is_per_phase_not_cumulative(self):
        # Regression: a host that fails once in evacuation AND once in
        # kexec AND once in verify must survive with max_retries=1 — each
        # phase owns a fresh attempt counter.  A cumulative budget would
        # exhaust after the first phase's retry and roll the host back.
        class OneFaultPerPhase(FailureInjector):
            """Scripted: node00's first attempt of every phase faults."""

            def stream_for(self, host):
                stream = super().stream_for(host)
                if host == "node00":
                    pending = set(FailurePhase)

                    def scripted(phase, _stream=stream, _pending=pending):
                        _stream.draws += 1
                        if phase in _pending:
                            _pending.discard(phase)
                            return True
                        return False

                    stream.strikes = scripted
                return stream

        config = FleetConfig(hosts=4, vms_per_host=4, inplace_fraction=0.0,
                             group_size=2, seed=11)
        controller = FleetController(
            config,
            injector=OneFaultPerPhase(0.0, seed=config.seed),
            retry=RetryPolicy(max_retries=1, backoff_base_s=1.0),
        )
        metrics = controller.run()
        record = controller.records["node00"]
        assert record.state is HostState.DONE
        assert record.retries == len(FailurePhase)  # one per phase
        assert record.rollbacks == 0
        assert metrics.rolled_back_hosts == 0


class TestRollback:
    def _forced(self, phase, **overrides):
        defaults = dict(hosts=4, vms_per_host=4, inplace_fraction=0.5,
                        group_size=2, seed=3)
        defaults.update(overrides)
        config = FleetConfig(**defaults)
        controller = FleetController(
            config,
            injector=FailureInjector({phase: 1.0}, seed=config.seed),
            retry=RetryPolicy(max_retries=1, backoff_base_s=1.0),
        )
        return controller, controller.run()

    @pytest.mark.parametrize("phase", list(FailurePhase))
    def test_rollback_restores_host(self, phase):
        controller, metrics = self._forced(phase)
        assert metrics.rolled_back_hosts == 4
        assert metrics.all_terminal
        for name, record in controller.records.items():
            assert record.state is HostState.ROLLED_BACK
            # Host still runs the vulnerable source hypervisor...
            assert controller.host_hypervisor[name] == "xen"
            # ...and carries exactly its original VMs.
            hosted = {vm for vm, node in controller.placement.items()
                      if node == name}
            original = {vm.name for vm in controller._cluster.vms.values()}
            assert hosted <= original
        # Global accounting: every VM sits on exactly one node.
        assert sorted(controller.placement) == sorted(
            vm.name for vm in controller._cluster.vms.values()
        )

    def test_evacuation_rollback_returns_vms_home(self):
        controller, _ = self._forced(FailurePhase.EVACUATION)
        # Rollback restored the pre-campaign placement exactly: the seed
        # cluster places VMs round-robin-free, i.e. contiguously by index
        # (4 VMs per host here).
        expected = {}
        for index, vm in enumerate(sorted(controller.placement)):
            expected[vm] = f"node{index // 4:02d}"
        assert controller.placement == expected

    def test_rollback_counts_reported(self):
        _, metrics = self._forced(FailurePhase.VERIFY)
        assert metrics.rollbacks_total == 4
        assert metrics.done_hosts == 0
        assert metrics.window_percentiles_s == {}
        assert metrics.fleet_window_s is None

    @pytest.mark.xfail(strict=True, raises=FleetError, reason=(
        "known defect: node02 rolls back and pulls its VMs home, filling "
        "the slots that node04's and node05's planned moves into node02 "
        "wait for; both hosts park in the slot ledger forever"))
    def test_rollback_onto_a_planned_destination_terminates(self):
        _, metrics = run_campaign(
            fail_rate=0.2, retry=RetryPolicy(max_retries=2),
            hosts=6, vms_per_host=10, inplace_fraction=0.8,
            mechanism="migration", seed=3,
        )
        assert metrics.all_terminal

    def test_wedge_names_each_parked_host(self):
        # The same campaign as above: the error says who waits on whom.
        with pytest.raises(FleetError, match="^" + re.escape(
                "campaign never terminated for: ['node04', 'node05']; "
                "node04 waits for a slot on node02 (rolled-back); "
                "node05 waits for a slot on node02 (rolled-back)") + "$"):
            run_campaign(
                fail_rate=0.2, retry=RetryPolicy(max_retries=2),
                hosts=6, vms_per_host=10, inplace_fraction=0.8,
                mechanism="migration", seed=3,
            )


class TestConcurrencyCap:
    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_cap_never_exceeded(self, cap):
        controller, metrics = run_campaign(hosts=8, concurrency=cap)
        assert metrics.done_hosts == 8
        assert controller.trace.max_in_flight() <= cap

    def test_cap_respected_under_failures(self):
        controller, metrics = run_campaign(
            hosts=8, concurrency=2, fail_rate=0.3,
            retry=RetryPolicy(max_retries=2, backoff_base_s=1.0),
        )
        assert metrics.all_terminal
        assert controller.trace.max_in_flight() <= 2

    def test_wider_cap_is_no_slower(self):
        _, narrow = run_campaign(hosts=8, concurrency=1)
        _, wide = run_campaign(hosts=8, concurrency=8)
        assert wide.fleet_window_s <= narrow.fleet_window_s


class TestMetricsDocument:
    def test_json_shape(self):
        _, metrics = run_campaign(fail_rate=0.1)
        document = json.loads(metrics.to_json())
        assert document["format"] == "hypertp-fleet-metrics"
        assert document["campaign"]["source_hypervisor"] == "xen"
        assert document["campaign"]["target_hypervisor"] == "kvm"
        assert set(document["window"]["percentiles_s"]) == {
            "p50", "p95", "p99", "max",
        }
        assert len(document["per_host"]) == 6
        states = {h["state"] for h in document["per_host"]}
        assert states <= {"done", "rolled-back"}
        curve = document["window"]["remediation_curve"]
        assert curve[-1][1] == document["robustness"]["done_hosts"]
        times = [point[0] for point in curve]
        assert times == sorted(times)

    def test_advisor_gates_the_campaign(self):
        # A medium-severity CVE does not justify an emergency transplant.
        with pytest.raises(FleetError):
            FleetController(FleetConfig(trigger_cve="CVE-2015-8104"))

    def test_config_validation(self):
        with pytest.raises(FleetError):
            FleetConfig(hosts=0)
        with pytest.raises(FleetError):
            FleetConfig(concurrency=0)
        with pytest.raises(FleetError):
            FleetConfig(migration_streams=0)
        with pytest.raises(FleetError):
            FleetConfig(vms_per_host=-1)
        with pytest.raises(FleetError):
            FleetConfig(vms_per_host=NODE_CAPACITY_VMS + 1)


# -- sync primitive bugfixes -------------------------------------------------

class TestSemaphoreOverRelease:
    def test_double_release_raises(self):
        # Regression: a double release used to silently raise the cap — an
        # admission semaphore of 2 would quietly become one of 3.
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, 2)
        sem.acquire()
        sem.release()
        with pytest.raises(SimulationError, match="over-released"):
            sem.release()

    def test_release_with_waiters_never_overflows(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, 1)
        sem.acquire()
        waiting = sem.acquire()
        assert not waiting.fired
        sem.release()  # hands the permit to the waiter, not the pool
        engine.run()
        assert waiting.fired
        sem.release()
        with pytest.raises(SimulationError):
            sem.release()

    def test_unbounded_release_is_noop(self):
        engine = Engine(SimClock())
        sem = FifoSemaphore(engine, None)
        sem.release()
        sem.release()  # no cap to breach


class TestFleetProcessYields:
    def test_bool_yield_rejected(self):
        # Regression: bool is an int subclass, so ``yield done_flag`` used
        # to be accepted as a 1-second sleep instead of failing loudly.
        engine = Engine(SimClock())

        def buggy():
            yield True

        engine.spawn(buggy(), name="buggy")
        with pytest.raises(SimulationError, match="yielded True"):
            engine.run()

    def test_return_value_captured(self):
        engine = Engine(SimClock())

        def worker():
            yield 1.0
            return 41 + 1

        process = engine.spawn(worker(), name="w")
        engine.run()
        assert process.done
        assert process.result == 42

    def test_plain_finish_has_none_result(self):
        engine = Engine(SimClock())

        def worker():
            yield 0.5

        process = engine.spawn(worker(), name="w")
        engine.run()
        assert process.done and process.result is None


# -- percentile exactness (satellite) -----------------------------------------

class TestPercentileExactness:
    def test_no_float_drift_at_integer_ranks(self):
        # Regression: 0.55 * 20 = 11.000000000000002 in floats, so a
        # float-multiplied ceil() picked rank 12 instead of 11.
        values = [float(v) for v in range(1, 21)]
        assert percentile(values, 55.0) == 11.0

    def test_exact_at_every_integer_boundary(self):
        import math
        from fractions import Fraction

        for n in (7, 20, 29, 100, 128):
            values = [float(v) for v in range(1, n + 1)]
            for q in range(1, 101):
                expected_rank = math.ceil(Fraction(n) * q / 100)
                assert percentile(values, float(q)) == float(expected_rank)

    def test_matches_statistics_quantiles_neighborhood(self):
        # Property check against the stdlib: nearest-rank must stay within
        # one order-statistic of the inclusive-interpolated quantile.
        import math
        import random
        import statistics

        rng = random.Random(1234)
        for _ in range(50):
            n = rng.randint(5, 200)
            values = sorted(rng.uniform(0, 1e4) for _ in range(n))
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            for q in (10, 25, 50, 75, 90, 95, 99):
                ours = percentile(values, float(q))
                rank = math.ceil(n * q / 100) or 1
                lo = values[max(0, rank - 2)]
                hi = values[min(n - 1, rank)]
                assert lo <= cuts[q - 1] <= hi or ours == pytest.approx(
                    cuts[q - 1], rel=0.5
                )
                assert ours == values[rank - 1]

    def test_q_zero_is_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(FleetError):
            percentile([1.0], 101.0)


# -- controller observability (tentpole) --------------------------------------

class TestCampaignObservability:
    def run_observed(self, **overrides):
        from repro.obs import MetricsRegistry

        defaults = dict(hosts=6, vms_per_host=4, inplace_fraction=0.5,
                        group_size=2, seed=11)
        defaults.update(overrides)
        config = FleetConfig(**defaults)
        controller = FleetController(
            config,
            injector=FailureInjector(0.0, seed=config.seed),
        )
        metrics = controller.run()
        registry = metrics.report_into(MetricsRegistry())
        return controller.timeline(), registry, metrics

    def test_one_track_per_host_plus_fleet(self):
        trace, _, metrics = self.run_observed()
        tracks = trace.tracks()
        host_tracks = [t for t in tracks if t.startswith("node")]
        assert len(host_tracks) == metrics.hosts
        assert "fleet" in tracks

    def test_host_spans_nest_inside_wave_envelope(self):
        trace, _, _ = self.run_observed()
        for track in trace.tracks():
            if not track.startswith("node"):
                continue
            spans = [s for s in trace.spans if s.track == track]
            wave = next(s for s in spans if s.category == "wave")
            for span in spans:
                assert wave.start_s <= span.start_s
                assert span.end_s <= wave.end_s

    def test_campaign_span_covers_fleet_window(self):
        trace, _, metrics = self.run_observed()
        campaign = next(s for s in trace.spans if s.category == "campaign")
        assert campaign.duration_s == pytest.approx(
            metrics.completed_at_s - metrics.disclosure_at_s
        )

    def test_trace_byte_identical_per_seed(self):
        first, _, _ = self.run_observed(seed=13)
        second, _, _ = self.run_observed(seed=13)
        assert first.to_chrome_trace() == second.to_chrome_trace()

    def test_registry_matches_metrics_document(self):
        _, registry, metrics = self.run_observed()
        assert registry.get("fleet_hosts_done_total").value == (
            metrics.done_hosts
        )
        assert registry.get("fleet_window_seconds").value == pytest.approx(
            metrics.fleet_window_s
        )
        histogram = registry.get("fleet_host_window_seconds")
        assert histogram.count == sum(
            1 for h in metrics.per_host if h.window_s is not None
        )
        assert histogram.max == pytest.approx(metrics.fleet_window_s)

    def test_registry_snapshot_byte_identical_per_seed(self):
        _, first, _ = self.run_observed(seed=13)
        _, second, _ = self.run_observed(seed=13)
        assert first.to_json() == second.to_json()

    def test_untraced_campaign_metrics_unchanged(self):
        _, _, observed = self.run_observed()
        _, plain = run_campaign()
        assert observed.to_json() == plain.to_json()
