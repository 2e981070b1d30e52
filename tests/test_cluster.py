"""Tests for the cluster model, the BtrPlace planner, and the Fig. 13
campaign that executes its plans."""

import pytest

from repro.errors import ClusterError, PlanningError
from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.model import (
    Cluster,
    ClusterNode,
    ClusterVM,
    WorkloadKind,
    build_paper_cluster,
)
from repro.core.pipeline import TransplantPipelines
from repro.fleet import UpgradeCampaign
from repro.hypervisors.base import HypervisorKind

GIB = 1024 ** 3


class TestClusterModel:
    def test_paper_cluster_shape(self):
        cluster = build_paper_cluster()
        assert len(cluster.nodes) == 10
        assert cluster.total_vms() == 100
        for node in cluster.nodes.values():
            assert len(node.vms) == 10

    def test_workload_mix(self):
        cluster = build_paper_cluster()
        kinds = [vm.workload for vm in cluster.vms.values()]
        assert kinds.count(WorkloadKind.STREAMING) == 30
        assert kinds.count(WorkloadKind.CPU_MEMORY) == 30
        assert kinds.count(WorkloadKind.IDLE) == 40

    def test_inplace_fraction_applied(self):
        cluster = build_paper_cluster(inplace_fraction=0.6)
        compatible = sum(
            1 for vm in cluster.vms.values() if vm.inplace_compatible
        )
        assert compatible == 60

    def test_bad_fraction_rejected(self):
        with pytest.raises(ClusterError):
            build_paper_cluster(inplace_fraction=1.5)

    def test_move_vm_updates_placement(self):
        cluster = build_paper_cluster()
        cluster.move_vm("vm000", "node05")
        assert cluster.vms["vm000"].node == "node05"
        assert "vm000" in cluster.nodes["node05"].vms
        assert "vm000" not in cluster.nodes["node00"].vms

    def test_capacity_enforced(self):
        cluster = Cluster()
        cluster.add_node(ClusterNode("n0", capacity_vms=1))
        cluster.add_vm(ClusterVM("a"), "n0")
        with pytest.raises(ClusterError):
            cluster.add_vm(ClusterVM("b"), "n0")

    def test_duplicate_names_rejected(self):
        cluster = Cluster()
        cluster.add_node(ClusterNode("n0"))
        with pytest.raises(ClusterError):
            cluster.add_node(ClusterNode("n0"))

    def test_dirty_rates_ordered_by_intensity(self):
        assert (WorkloadKind.IDLE.dirty_rate_bytes_s
                < WorkloadKind.CPU_MEMORY.dirty_rate_bytes_s
                < WorkloadKind.STREAMING.dirty_rate_bytes_s)


class TestPlanner:
    def test_zero_compat_needs_re_migrations(self):
        cluster = build_paper_cluster(inplace_fraction=0.0)
        plan = BtrPlacePlanner(cluster).plan()
        # Paper: 154 migrations for 100 VMs (some VMs move twice).
        assert plan.migration_count > 100
        assert 130 <= plan.migration_count <= 190

    def test_80_percent_compat_near_paper(self):
        cluster = build_paper_cluster(inplace_fraction=0.8)
        plan = BtrPlacePlanner(cluster).plan()
        # Paper: 25 migrations.
        assert 20 <= plan.migration_count <= 40

    def test_monotone_in_compatibility(self):
        counts = []
        for fraction in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            cluster = build_paper_cluster(inplace_fraction=fraction)
            counts.append(BtrPlacePlanner(cluster).plan().migration_count)
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 0  # full compatibility: no migration at all

    def test_every_node_upgraded(self):
        cluster = build_paper_cluster()
        plan = BtrPlacePlanner(cluster).plan()
        assert plan.upgrade_count == 10
        assert all(n.upgraded for n in cluster.nodes.values())
        assert all(n.hypervisor == "kvm" for n in cluster.nodes.values())

    def test_offline_constraint_respected(self):
        cluster = build_paper_cluster(inplace_fraction=0.0)
        plan = BtrPlacePlanner(cluster).plan()
        for group in plan.groups:
            for migration in group.migrations:
                assert migration.destination not in group.nodes

    def test_capacity_never_violated(self):
        cluster = build_paper_cluster(inplace_fraction=0.0)
        BtrPlacePlanner(cluster).plan()
        for node in cluster.nodes.values():
            assert len(node.vms) <= node.capacity_vms

    def test_compatible_vms_never_migrate(self):
        cluster = build_paper_cluster(inplace_fraction=0.5)
        plan = BtrPlacePlanner(cluster).plan()
        compatible = {name for name, vm in cluster.vms.items()
                      if vm.inplace_compatible}
        migrated = {m.vm_name for m in plan.migrations()}
        assert not (compatible & migrated)

    def test_group_size_validated(self):
        cluster = build_paper_cluster()
        with pytest.raises(PlanningError):
            BtrPlacePlanner(cluster, group_size=0)


class TestExecutor:
    """What executing a plan's actions costs: the stage plans the fleet
    controller charges, and the campaign's split of its time."""

    def test_streaming_migrations_slower_than_idle(self):
        migration = TransplantPipelines().migration(HypervisorKind.KVM)
        idle = migration.plan_vm(
            4 * GIB, WorkloadKind.IDLE.dirty_rate_bytes_s).total_s
        streaming = migration.plan_vm(
            4 * GIB, WorkloadKind.STREAMING.dirty_rate_bytes_s).total_s
        assert streaming > idle

    def test_upgrade_seconds_scale(self):
        inplace = TransplantPipelines().inplace(HypervisorKind.KVM)
        empty = inplace.plan_host(0, 0).total_s
        loaded = inplace.plan_host(10, 40 * GIB).total_s
        assert loaded > empty
        assert loaded < 30  # hosts upgrade in seconds, not minutes

    def test_execution_accounts_all_actions(self):
        cluster = build_paper_cluster(inplace_fraction=0.5)
        plan = BtrPlacePlanner(cluster).plan()
        result = UpgradeCampaign().run(0.5)
        assert result.migration_count == plan.migration_count
        assert result.migration_s > 0 and result.upgrade_s > 0
        assert result.total_s == pytest.approx(
            result.migration_s + result.upgrade_s
        )


class TestCampaign:
    def test_fig13_shape(self):
        campaign = UpgradeCampaign()
        results = campaign.sweep([0.0, 0.2, 0.4, 0.6, 0.8])
        gains = UpgradeCampaign.time_gains(results)
        counts = [r.migration_count for r in results]
        assert counts == sorted(counts, reverse=True)
        assert gains == sorted(gains)
        # Paper anchors: ~17 % gain at 20 %, ~80 % at 80 %.
        assert gains[1] == pytest.approx(0.17, abs=0.07)
        assert gains[4] == pytest.approx(0.80, abs=0.08)

    def test_80_percent_total_minutes_near_paper(self):
        # Paper: 3 min 54 s at 80 % InPlaceTP share.
        result = UpgradeCampaign().run(0.8)
        assert 2.0 <= result.total_minutes <= 6.0

    def test_all_migration_takes_many_minutes(self):
        result = UpgradeCampaign().run(0.0)
        assert 8.0 <= result.total_minutes <= 20.0
