"""Tests for the staged transplant pipeline and the mechanism policy.

The pipeline is the one per-host cost path (fleet controller, mechanism
policy, mechanism simulations), so these tests are mostly about
*equality*: the same floats must come out of every layer, and the
default campaign's artifacts must stay byte-identical to the
pre-refactor goldens.
"""

import dataclasses
import itertools
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import make_host
from repro.cluster.model import build_paper_cluster
from repro.cluster.btrplace import BtrPlacePlanner
from repro.core.mechanisms import (
    WORKLOAD_SLO_S,
    MechanismPolicy,
    VMProfile,
    decide_fleet,
    mechanism_mix,
)
from repro.core.pipeline import (
    STAGE_ORDER,
    MigrationPipeline,
    Stage,
    StagePlan,
    TransplantPipelines,
    VerifySpec,
)
from repro.core.timings import DEFAULT_COST_MODEL
from repro.errors import FleetError, TransplantError
from repro.fleet import FleetConfig, FleetController, UpgradeCampaign
from repro.hw.machine import CLUSTER_NODE_SPEC, M1_SPEC, M2_SPEC, Machine
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock

from tests.oracles import (
    PlanExecutor,
    former_inplace_timings,
    former_migration_timings,
)

GIB = 1024 ** 3
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def read_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
        return handle.read()


# -- stage plans ---------------------------------------------------------------


class TestStagePlan:
    def test_stages_follow_protocol_order(self):
        pipelines = TransplantPipelines()
        for plan in (
            pipelines.inplace(HypervisorKind.KVM).plan_host(10, 40 * GIB),
            pipelines.migration(HypervisorKind.KVM).plan_vm(
                4 * GIB, 1 << 20),
        ):
            seen = [cost.stage for cost in plan.stages]
            assert seen == list(STAGE_ORDER)

    def test_out_of_order_stages_rejected(self):
        good = TransplantPipelines().inplace(
            HypervisorKind.KVM).plan_host(2, 8 * GIB)
        with pytest.raises(TransplantError, match="protocol order"):
            StagePlan(
                mechanism="inplace",
                stages=tuple(reversed(good.stages)),
                total_s=good.total_s, execute_s=good.execute_s,
                downtime_s=good.downtime_s,
            )

    def test_total_must_reassociate_stage_sum(self):
        good = TransplantPipelines().inplace(
            HypervisorKind.KVM).plan_host(2, 8 * GIB)
        with pytest.raises(TransplantError, match="re-association"):
            StagePlan(
                mechanism="inplace", stages=good.stages,
                total_s=good.total_s * 2, execute_s=good.execute_s,
                downtime_s=good.downtime_s,
            )

    def test_inplace_downtime_is_translate_transfer_restore(self):
        plan = TransplantPipelines().inplace(
            HypervisorKind.KVM).plan_host(10, 40 * GIB)
        downtime_stages = [c.stage for c in plan.stages if c.downtime]
        assert downtime_stages == [Stage.TRANSLATE, Stage.TRANSFER,
                                   Stage.RESTORE]
        assert plan.downtime_s < plan.execute_s  # capture rides outside

    def test_migration_downtime_is_stop_and_copy(self):
        plan = TransplantPipelines().migration(
            HypervisorKind.KVM).plan_vm(4 * GIB, 48 << 20)
        downtime_stages = [c.stage for c in plan.stages if c.downtime]
        assert downtime_stages == [Stage.TRANSLATE, Stage.TRANSFER,
                                   Stage.RESTORE]
        assert plan.stage_s(Stage.TRANSLATE) == 0.0  # planner: no proxy term
        charged = MigrationPipeline(
            TransplantPipelines().link_rate, charge_proxy=True,
        ).plan_vm(4 * GIB, 48 << 20)
        assert charged.stage_s(Stage.TRANSLATE) == pytest.approx(
            2 * DEFAULT_COST_MODEL.proxy_translate_s)

    def test_verify_spec_charged_per_vm(self):
        pipelines = TransplantPipelines(verify=VerifySpec(0.01, 0.002))
        plan = pipelines.inplace(HypervisorKind.KVM).plan_host(
            10, 40 * GIB)
        assert plan.stage_s(Stage.VERIFY) == pytest.approx(
            0.01 + 0.002 * 10)
        assert plan.total_s == pytest.approx(
            plan.execute_s + plan.stage_s(Stage.VERIFY))

    def test_pricing_builds_no_machine(self):
        # Plans are priced from the spec alone: building the control
        # plane's cost path uses up no machine id.
        before = Machine._ids
        TransplantPipelines().inplace(HypervisorKind.KVM).plan_host(
            10, 40 * GIB)
        FleetController(FleetConfig(hosts=4, vms_per_host=4, seed=7))
        assert Machine._ids == before


# -- executor parity -----------------------------------------------------------


class TestExecutorParity:
    def test_executor_times_equal_hypertp_upgrade_host(self):
        """The Fig. 13 oracle's per-action times are the floats an
        independently built :class:`TransplantPipelines` composes for the
        same actions."""
        executor = PlanExecutor()
        pipelines = TransplantPipelines()
        inplace = pipelines.inplace(executor.target_kind)
        migration = pipelines.migration(executor.target_kind)
        cluster = build_paper_cluster(hosts=10, vms_per_host=10,
                                      inplace_fraction=0.8, seed=42)
        plan = BtrPlacePlanner(cluster, group_size=2).plan(apply=True)
        for group in plan.groups:
            for action in group.upgrades:
                assert (executor.upgrade_time_s(action)
                        == inplace.plan_host(
                            action.vm_count,
                            action.total_memory_bytes).total_s)
            for action in group.migrations:
                assert (executor.migration_time_s(action)
                        == migration.plan_vm(
                            action.memory_bytes,
                            action.workload.dirty_rate_bytes_s).total_s)


# -- fleet/core parity (acceptance criterion) ----------------------------------


def transition_times(controller, host):
    """state -> time of the host's first transition into it."""
    times = {}
    for t in controller.trace.transitions:
        if t.host == host and t.target.value not in times:
            times[t.target.value] = t.time_s
    return times


class TestFleetParity:
    @pytest.mark.parametrize("config_kwargs", [
        dict(hosts=10, vms_per_host=10, inplace_fraction=0.8, seed=42),
        dict(hosts=10, vms_per_host=10, inplace_fraction=0.0, seed=42,
             sequential_groups=True, concurrency=None),
        dict(hosts=6, vms_per_host=4, inplace_fraction=0.5, seed=11,
             mechanism="auto"),
    ])
    def test_fleet_durations_equal_hypertp_upgrade_host(self, config_kwargs):
        """Per-host fleet durations ARE the pipelines' floats.

        Proved two ways: the stage plans the campaign charged are
        float-equal to plans an independently built
        :class:`TransplantPipelines` composes for the same host, and the
        simulated TRANSPLANTING->VERIFYING->DONE timestamps advanced by
        exactly those floats.
        """
        config = FleetConfig(**config_kwargs)
        controller = FleetController(config)
        controller.run()
        pipelines = TransplantPipelines(verify=VerifySpec(
            config.verify_fixed_s, config.verify_per_vm_s))
        inplace = pipelines.inplace(controller.target_kind)
        migration = pipelines.migration(controller.target_kind)
        for hp in controller.host_plans:
            reference = inplace.plan_host(hp.upgrade.vm_count,
                                          hp.upgrade.total_memory_bytes)
            verify_s = reference.stage_s(Stage.VERIFY)
            # Exact float equality, not approx: one cost path.
            assert hp.plan.total_s == reference.total_s
            assert hp.plan.execute_s == reference.execute_s
            assert hp.plan.stage_s(Stage.VERIFY) == verify_s
            for action, _, plan in hp.evacuations:
                assert plan.total_s == migration.plan_vm(
                    action.memory_bytes,
                    action.workload.dirty_rate_bytes_s).total_s
            times = transition_times(controller, hp.name)
            start = times["transplanting"]
            assert times["verifying"] == start + reference.execute_s
            assert times["done"] == times["verifying"] + verify_s

    def test_degenerate_fleet_pinned_against_both_references(self):
        """The sequential fleet with its verify stage matches the
        verify-free UpgradeCampaign within 1% AND the oracle executor's
        per-action floats exactly."""
        reference = UpgradeCampaign(hosts=10, vms_per_host=10,
                                    group_size=2, seed=42).run(0.8)
        config = FleetConfig(hosts=10, vms_per_host=10,
                             inplace_fraction=0.8, group_size=2, seed=42,
                             sequential_groups=True, concurrency=None)
        controller = FleetController(config)
        metrics = controller.run()
        assert metrics.done_hosts == 10
        assert metrics.migrations_executed == reference.migration_count == 31
        assert metrics.fleet_window_s == pytest.approx(reference.total_s,
                                                       rel=0.01)
        # Pinned: the exact drift between this fleet and Fig. 13 is the
        # per-host verify stage, nothing else.  Every per-host duration
        # matches the oracle executor's exactly (the parity tests above
        # tie both to the pipelines).
        executor = PlanExecutor()
        for hp in controller.host_plans:
            assert hp.plan.execute_s == executor.upgrade_plan(
                hp.upgrade).total_s
            for action, _, plan in hp.evacuations:
                assert plan.total_s == executor.migration_time_s(action)


# -- golden byte-identity (acceptance criterion) -------------------------------


def assert_matches_goldens(tmp_path, name, config, fail_rate, max_retries):
    """Run one journaled, traced campaign and compare its metrics JSON,
    Perfetto trace, journal and metrics-registry snapshot byte for byte
    with ``goldens/<name>*``.  Returns the campaign's metrics."""
    from repro.journal import CampaignJournal, campaign_meta
    from repro.fleet import FailureInjector, RetryPolicy
    from repro.obs import MetricsRegistry

    injector = FailureInjector(fail_rate, seed=config.seed)
    retry = RetryPolicy(max_retries=max_retries)
    journal_path = str(tmp_path / "campaign.journal")
    journal = CampaignJournal.create(
        journal_path, campaign_meta(config, injector, retry))
    controller = FleetController(config, injector=injector, retry=retry,
                                 journal=journal)
    metrics = controller.run()

    document = json.dumps(metrics.to_dict(), indent=2, sort_keys=True)
    assert document.encode() == read_golden(f"{name}.json")
    assert (controller.timeline().to_chrome_trace().encode()
            == read_golden(f"{name}_trace.json"))
    with open(journal_path, "rb") as handle:
        assert handle.read() == read_golden(f"{name}.journal")
    # The --metrics snapshot, built after the run as fleet_campaign_task
    # builds it: the campaign's metrics, then the journal's counters.
    registry = journal.report_into(metrics.report_into(MetricsRegistry()))
    assert (registry.to_json().encode()
            == read_golden(f"{name}_metrics.json"))
    return metrics


class TestGoldenByteIdentity:
    def test_inplace_only_campaign_matches_pre_refactor_goldens(self,
                                                                tmp_path):
        """Metrics JSON, Perfetto trace and journal are byte-identical to
        artifacts captured before the pipeline refactor."""
        config = FleetConfig(hosts=10, vms_per_host=10,
                             inplace_fraction=1.0, seed=42)
        assert_matches_goldens(tmp_path, "fleet_inplace_only", config,
                               fail_rate=0.0, max_retries=3)

    def test_auto_campaign_with_faults_matches_goldens(self, tmp_path):
        """Migrations, retries and rollbacks: every plan_vm cost and the
        rollback path's source-direction plans, byte-identical to
        artifacts captured before plans were memoized by shape."""
        config = FleetConfig(hosts=20, vms_per_host=10, mechanism="auto",
                             seed=21)
        metrics = assert_matches_goldens(tmp_path, "fleet_auto_faults",
                                         config, fail_rate=0.05,
                                         max_retries=1)
        assert metrics.migrations_executed > 0
        assert metrics.retries_total >= 1
        assert metrics.rolled_back_hosts >= 1

    def test_default_mechanism_leaves_document_unannotated(self):
        config = FleetConfig(hosts=4, vms_per_host=4, seed=7)
        metrics = FleetController(config).run()
        document = metrics.to_dict()
        assert "mechanism" not in document["campaign"]
        assert "mechanism_mix" not in document

    def test_non_default_mechanism_annotates_document(self):
        config = FleetConfig(hosts=4, vms_per_host=4, seed=7,
                             mechanism="inplace")
        controller = FleetController(config)
        document = controller.run().to_dict()
        assert document["campaign"]["mechanism"] == "inplace"
        assert document["mechanism_mix"] == controller.mechanism_mix()

    def test_campaign_meta_journals_only_non_default_mechanism(self):
        from repro.fleet import FailureInjector, RetryPolicy
        from repro.journal import campaign_meta

        injector = FailureInjector(0.0, seed=1)
        retry = RetryPolicy()
        default = campaign_meta(FleetConfig(), injector, retry)
        assert "mechanism" not in default["config"]
        tuned = campaign_meta(FleetConfig(mechanism="auto"), injector, retry)
        assert tuned["config"]["mechanism"] == "auto"
        # recover() builds FleetConfig(**config): both shapes round-trip.
        assert FleetConfig(
            **{**default["config"],
               "pool": tuple(default["config"]["pool"])}).mechanism == "hybrid"


# -- mechanism simulations against the pipeline --------------------------------


KINDS = list(HypervisorKind)
#: every OptimizationConfig, as (prepare_ahead, parallel, huge_pages,
#: early_restoration)
ALL_FLAGS = list(itertools.product((True, False), repeat=4))
#: 16-256 MiB guests, whole 2 MiB pages
MEMORY_MIB = st.integers(8, 128).map(lambda pages: 2 * pages)


def _flags_id(flags):
    names = ("prepare_ahead", "parallel", "huge_pages", "early_restoration")
    off = [f"no_{name}"
           for name, flag in zip(names, flags, strict=True) if not flag]
    return "-".join(off) or "all"


class TestMechanismStagePlans:
    """A live run charges exactly the plan its ``stage_plan`` returns, and
    that plan prices every phase as the run priced it inline before."""

    @pytest.mark.parametrize("flags", ALL_FLAGS, ids=_flags_id)
    @given(kinds=st.sampled_from([(s, t) for s in KINDS for t in KINDS
                                  if s is not t]),
           spec=st.sampled_from([M1_SPEC, M2_SPEC]),
           vm_count=st.integers(1, 4), vcpus=st.integers(1, 4),
           memory_mib=MEMORY_MIB)
    @example(kinds=(HypervisorKind.XEN, HypervisorKind.KVM), spec=M2_SPEC,
             vm_count=4, vcpus=4, memory_mib=256)
    @settings(max_examples=5, deadline=None)
    def test_inplace_run_charges_its_stage_plan(self, flags, kinds, spec,
                                                vm_count, vcpus,
                                                memory_mib):
        from repro.core.inplace import InPlaceTP
        from repro.core.optimizations import OptimizationConfig

        machine = make_host(spec, kinds[0], vm_count=vm_count, vcpus=vcpus,
                            memory_gib=memory_mib / 1024, name="inplace")
        transplant = InPlaceTP(machine, kinds[1],
                               optimizations=OptimizationConfig(*flags))
        plan = transplant.stage_plan()
        former = former_inplace_timings(transplant)
        report = transplant.run(SimClock())
        charged = (report.pram_s, report.translation_s, report.reboot_s,
                   report.restoration_s, report.downtime_s)
        assert charged == (plan.stage_s(Stage.CAPTURE),
                           plan.stage_s(Stage.TRANSLATE),
                           plan.stage_s(Stage.TRANSFER),
                           plan.stage_s(Stage.RESTORE), plan.downtime_s)
        assert charged == former

    @given(kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
           vcpus=st.integers(1, 4), memory_mib=MEMORY_MIB,
           dirty_mib_s=st.integers(0, 64), concurrent=st.integers(1, 4),
           position=st.integers(0, 3))
    # Summing the proxy pair before the residual copy moves this
    # MigrationTP downtime by one ulp.
    @example(kinds=(HypervisorKind.KVM, HypervisorKind.XEN), vcpus=1,
             memory_mib=16, dirty_mib_s=16, concurrent=2, position=1)
    @example(kinds=(HypervisorKind.XEN, HypervisorKind.XEN), vcpus=2,
             memory_mib=64, dirty_mib_s=32, concurrent=4, position=3)
    @settings(max_examples=100, deadline=None)
    def test_migration_run_charges_its_stage_plan(self, kinds, vcpus,
                                                  memory_mib, dirty_mib_s,
                                                  concurrent, position):
        from repro.core.migration import LiveMigration, MigrationTP
        from repro.hw.network import Fabric

        source = make_host(M1_SPEC, kinds[0], vm_count=1, vcpus=vcpus,
                           memory_gib=memory_mib / 1024, name="src")
        destination = make_host(M1_SPEC, kinds[1], name="dst")
        fabric = Fabric()
        fabric.connect(source, destination)
        migrator_cls = LiveMigration if kinds[0] is kinds[1] else MigrationTP
        migrator = migrator_cls(fabric, source, destination)
        (domain,) = source.hypervisor.domains.values()
        dirty = dirty_mib_s << 20
        plan = migrator.stage_plan(domain, dirty, concurrent)
        former = former_migration_timings(migrator, domain, dirty,
                                          concurrent, position)
        report = migrator.migrate(domain, SimClock(),
                                  dirty_rate_bytes_s=dirty,
                                  concurrent=concurrent,
                                  receive_queue_position=position)
        # Only the homogeneous baseline serializes its receive side.
        queue_s = (position * plan.stage_s(Stage.RESTORE)
                   if migrator_cls is LiveMigration else 0.0)
        charged = (report.precopy_s, report.downtime_s)
        assert charged == (
            plan.stage_s(Stage.QUIESCE) + plan.stage_s(Stage.CAPTURE),
            plan.downtime_s + queue_s)
        assert charged == former
        assert (plan.stage_s(Stage.TRANSLATE) > 0.0) is (
            migrator_cls is MigrationTP)


# -- mechanism policy ----------------------------------------------------------


def profile(name, workload="cpu-memory", memory_gib=4, capable=True,
            migratable=True):
    return VMProfile(
        name=name, memory_bytes=memory_gib * GIB,
        dirty_rate_bytes_s={"idle": 1 << 20, "cpu-memory": 48 << 20,
                            "streaming": 96 << 20}[workload],
        downtime_slo_s=WORKLOAD_SLO_S[workload],
        inplace_capable=capable, migratable=migratable,
    )


@pytest.fixture
def pipelines():
    return TransplantPipelines(verify=VerifySpec(0.01, 0.002))


def decide(policy_kind, vms, pipelines, spare=100):
    policy = MechanismPolicy(policy_kind)
    return policy.decide_host(
        "host0", vms,
        inplace=pipelines.inplace(HypervisorKind.KVM),
        migration=pipelines.migration(HypervisorKind.KVM),
        spare_slots=spare,
    )


class TestMechanismPolicy:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(TransplantError, match="unknown mechanism"):
            MechanismPolicy("teleport")
        with pytest.raises(FleetError, match="unknown mechanism"):
            FleetConfig(mechanism="teleport")

    def test_inplace_policy_everyone_rides(self, pipelines):
        vms = [profile(f"vm{i}") for i in range(5)]
        decision = decide("inplace", vms, pipelines)
        assert decision.resolved == "inplace"
        assert decision.evacuate == ()
        assert len(decision.rides) == 5

    def test_migration_policy_evacuates_everything_movable(self, pipelines):
        vms = [profile("vm0"), profile("vm1"),
               profile("vm2", migratable=False)]
        decision = decide("migration", vms, pipelines)
        assert set(decision.evacuate) == {"vm0", "vm1"}
        assert decision.rides == ("vm2",)
        assert decision.resolved == "hybrid"

    def test_migration_policy_respects_spare_capacity(self, pipelines):
        vms = [profile("vm0", "streaming"), profile("vm1"), profile("vm2")]
        decision = decide("migration", vms, pipelines, spare=1)
        # Strictest SLO first when capacity runs short.
        assert decision.evacuate == ("vm0",)

    def test_hybrid_policy_is_the_legacy_split(self, pipelines):
        vms = [profile("vm0", capable=False), profile("vm1"),
               profile("vm2", capable=False, migratable=False)]
        decision = decide("hybrid", vms, pipelines)
        assert decision.evacuate == ("vm0",)
        # vm2 can neither ride nor move: a recorded SLO violation.
        assert "vm2" in decision.slo_violations

    def test_hybrid_ignores_spare_capacity(self, pipelines):
        # The planner validates capacity (BtrPlace semantics); the hybrid
        # decision itself must not silently strand incompatible VMs.
        vms = [profile(f"vm{i}", capable=False) for i in range(4)]
        decision = decide("hybrid", vms, pipelines, spare=0)
        assert len(decision.evacuate) == 4

    # -- the auto heuristic, corner by corner ------------------------------

    @pytest.mark.parametrize(
        "workloads,spare,expected_evacuated",
        [
            # Ample capacity: only the streaming VM's 2 s SLO is tighter
            # than the ~10-VM reboot downtime.
            (["streaming"] + ["cpu-memory"] * 4 + ["idle"] * 5, 100,
             {"vm0"}),
            # No spare capacity: nobody can move.
            (["streaming"] + ["cpu-memory"] * 9, 0, set()),
            # All idle: reboot downtime is far under every SLO.
            (["idle"] * 10, 100, set()),
        ],
    )
    def test_auto_capacity_corners(self, pipelines, workloads, spare,
                                   expected_evacuated):
        vms = [profile(f"vm{i}", w) for i, w in enumerate(workloads)]
        decision = decide("auto", vms, pipelines, spare=spare)
        assert set(decision.evacuate) == expected_evacuated

    def test_auto_slow_fabric_keeps_vm_on_the_reboot(self):
        # A fabric so slow that MigrationTP's own stop-and-copy downtime
        # exceeds the streaming SLO: migrating would be worse than riding,
        # so the VM rides and the violation is recorded.
        # A 9 Mbit/s NIC moves about 1 MiB/s.
        slow = TransplantPipelines(dataclasses.replace(
            CLUSTER_NODE_SPEC, nic_gbps=0.009))
        vms = [profile("vm0", "streaming")] + [
            profile(f"vm{i}") for i in range(1, 10)]
        decision = decide("auto", vms, slow, spare=100)
        assert "vm0" not in decision.evacuate
        assert "vm0" in decision.slo_violations

    def test_auto_incapable_vm_always_moves_given_capacity(self, pipelines):
        vms = [profile("vm0", capable=False),
               profile("vm1")]
        decision = decide("auto", vms, pipelines)
        assert "vm0" in decision.evacuate

    def test_auto_never_evacuates_an_unmigratable_vm(self, pipelines):
        # A pass-through device (§4.2.3) keeps the VM on the reboot even
        # when no downtime fits its SLO; the miss is recorded instead.
        pinned = VMProfile(name="vm0", memory_bytes=GIB,
                           dirty_rate_bytes_s=1 << 20, downtime_slo_s=0.0,
                           migratable=False)
        decision = decide("auto", [pinned, profile("vm1")], pipelines)
        assert decision.evacuate == ()
        assert decision.slo_violations == ("vm0",)

    def test_auto_reaches_fixed_point(self, pipelines):
        # Moving the streaming VMs shrinks the predicted reboot downtime;
        # the remaining cpu-memory riders must then satisfy their SLO, so
        # the loop stops without evacuating them.
        vms = ([profile(f"s{i}", "streaming") for i in range(3)]
               + [profile(f"c{i}", "cpu-memory", memory_gib=8)
                  for i in range(12)])
        decision = decide("auto", vms, pipelines)
        assert {vm for vm in decision.evacuate} == {"s0", "s1", "s2"}
        assert decision.slo_violations == ()
        assert decision.rides
        assert all(name.startswith("c") for name in decision.rides)
        assert WORKLOAD_SLO_S["cpu-memory"] >= decision.predicted_downtime_s

    def test_auto_property_no_unflagged_slo_violation(self, pipelines):
        """Property: any VM whose SLO the decision cannot meet is either
        evacuated (and meets it via MigrationTP) or flagged."""
        import random

        rng = random.Random(1234)
        migration = pipelines.migration(HypervisorKind.KVM)
        for trial in range(30):
            vms = [
                profile(
                    f"t{trial}vm{i}",
                    rng.choice(["idle", "cpu-memory", "streaming"]),
                    memory_gib=rng.choice([2, 4, 8]),
                    capable=rng.random() > 0.2,
                    migratable=rng.random() > 0.2,
                )
                for i in range(rng.randrange(1, 14))
            ]
            decision = decide("auto", vms, pipelines,
                              spare=rng.randrange(0, 12))
            by_name = {vm.name: vm for vm in vms}
            predicted = decision.predicted_downtime_s
            for name in decision.rides:
                vm = by_name[name]
                ok = vm.inplace_capable and vm.downtime_slo_s >= predicted
                assert ok or name in decision.slo_violations
            for name in decision.evacuate:
                vm = by_name[name]
                downtime = migration.plan_vm(
                    vm.memory_bytes, vm.dirty_rate_bytes_s,
                ).downtime_s
                # A capable VM only moves when moving actually meets the
                # SLO; an incapable one moves because riding is worse.
                assert downtime <= vm.downtime_slo_s or not vm.inplace_capable

    def test_decide_fleet_spends_shared_budget(self, pipelines):
        host_vms = {
            "a": [profile("a0", capable=False), profile("a1")],
            "b": [profile("b0", capable=False), profile("b1")],
        }
        decisions = decide_fleet(
            MechanismPolicy("migration"), host_vms,
            {"a": 1, "b": 1, "spare": 1},
            inplace=pipelines.inplace(HypervisorKind.KVM),
            migration=pipelines.migration(HypervisorKind.KVM),
        )
        # Host a sees b's + spare's slots (2), host b sees what a left.
        assert len(decisions["a"].evacuate) == 2
        assert len(decisions["b"].evacuate) == 1

    def test_mechanism_mix_sorted_and_counted(self, pipelines):
        host_vms = {
            "h1": [profile("x0", capable=False), profile("x1")],
            "h0": [profile("y0"), profile("y1")],
        }
        decisions = decide_fleet(
            MechanismPolicy("hybrid"), host_vms, {"h0": 2, "h1": 2},
            inplace=pipelines.inplace(HypervisorKind.KVM),
            migration=pipelines.migration(HypervisorKind.KVM),
        )
        mix = mechanism_mix(decisions)
        assert list(mix) == sorted(mix)
        assert mix == {
            "hybrid": {"hosts": 1, "vms": 2, "evacuations": 1},
            "inplace": {"hosts": 1, "vms": 2, "evacuations": 0},
        }

    def test_profile_adapts_cluster_vm(self):
        cluster = build_paper_cluster(hosts=2, vms_per_host=2,
                                      inplace_fraction=0.5, seed=3)
        for vm in cluster.vms.values():
            adapted = VMProfile.from_cluster_vm(vm)
            assert adapted.name == vm.name
            assert adapted.memory_bytes == vm.memory_bytes
            assert adapted.inplace_capable == vm.inplace_compatible
            assert adapted.downtime_slo_s == WORKLOAD_SLO_S[vm.workload.value]


# -- mechanism campaigns -------------------------------------------------------


class TestMechanismCampaigns:
    def run(self, mechanism, **overrides):
        kwargs = dict(hosts=6, vms_per_host=6, inplace_fraction=0.5,
                      seed=11, mechanism=mechanism)
        kwargs.update(overrides)
        controller = FleetController(FleetConfig(**kwargs))
        return controller, controller.run()

    def test_inplace_campaign_never_migrates(self):
        controller, metrics = self.run("inplace")
        assert metrics.all_terminal
        assert metrics.migrations_executed == 0
        assert controller.mechanism_mix() == {
            "inplace": {"hosts": 6, "vms": 36, "evacuations": 0},
        }

    def test_migration_campaign_evacuates_more_than_hybrid(self):
        _, hybrid = self.run("hybrid")
        _, migration = self.run("migration")
        assert migration.all_terminal
        assert migration.migrations_executed > hybrid.migrations_executed

    def test_auto_campaign_terminates_and_reports_mix(self):
        controller, metrics = self.run("auto")
        assert metrics.all_terminal
        assert metrics.done_hosts == 6
        mix = controller.mechanism_mix()
        assert sum(entry["hosts"] for entry in mix.values()) == 6
        assert sum(entry["vms"] for entry in mix.values()) == 36

    def test_mechanism_campaigns_are_deterministic(self):
        for mechanism in ("inplace", "auto"):
            first = self.run(mechanism)[1].to_json()
            second = self.run(mechanism)[1].to_json()
            assert first == second

    def test_hybrid_campaign_equals_legacy_default(self):
        # mechanism="hybrid" must reproduce the implicit pre-policy split.
        _, explicit = self.run("hybrid")
        controller = FleetController(FleetConfig(
            hosts=6, vms_per_host=6, inplace_fraction=0.5, seed=11))
        implicit = controller.run()
        assert explicit.to_json() == implicit.to_json()
