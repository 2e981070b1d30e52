"""Plan executor: times a reconfiguration plan on the simulated cluster.

Execution semantics follow the paper's setup:

* migrations within a group run back-to-back over the shared 10 Gbps fabric
  (BtrPlace emits ordered actions; Xen's receive side serializes anyway);
* the group's host micro-reboots run in parallel once its evacuations are
  done (independent machines);
* groups execute sequentially — that is what "sequentially putting each
  group offline" means.

Per-action costs come from the staged transplant pipeline
(:mod:`repro.core.pipeline`): the executor holds one
:class:`~repro.core.pipeline.TransplantPipelines` bundle and asks it for
a :class:`~repro.core.pipeline.StagePlan` per action, so the Fig. 13
campaign, the fleet control plane and ``HyperTP.upgrade_host`` all time
the exact same actions with the exact same floats.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.cluster.plan import InPlaceAction, MigrationAction, ReconfigurationPlan
from repro.hw.machine import CLUSTER_NODE_SPEC, MachineSpec
from repro.obs import NULL_TRACER, Span
from repro.core.pipeline import StagePlan, TransplantPipelines
from repro.core.timings import DEFAULT_COST_MODEL, CostModel
from repro.hypervisors.base import HypervisorKind


@dataclass
class ExecutionResult:
    """Timing outcome of one plan."""

    total_s: float
    migration_s: float
    upgrade_s: float
    migration_count: int
    upgrade_count: int
    per_group_s: List[float] = field(default_factory=list)
    # (vm_name, seconds) per action — a VM can migrate more than once.
    per_migration_s: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def total_minutes(self) -> float:
        return self.total_s / 60.0


class PlanExecutor:
    """Times a :class:`ReconfigurationPlan` against the staged pipeline."""

    def __init__(self, node_spec: MachineSpec = CLUSTER_NODE_SPEC,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 target_kind: HypervisorKind = HypervisorKind.KVM,
                 tracer=NULL_TRACER):
        self.node_spec = node_spec
        self.cost = cost_model
        self.target_kind = target_kind
        self.tracer = tracer
        self.pipelines = TransplantPipelines(
            node_spec=node_spec, cost=cost_model)

    # -- per-action stage plans ----------------------------------------------

    def migration_plan(self, action: MigrationAction) -> StagePlan:
        """MigrationTP stage plan for one evacuation over the fabric."""
        return self.pipelines.migration(self.target_kind).plan_vm(
            action.memory_bytes, action.workload.dirty_rate_bytes_s,
        )

    def upgrade_plan(self, action: InPlaceAction) -> StagePlan:
        """InPlaceTP stage plan for one host carrying ``vm_count`` VMs."""
        return self.pipelines.inplace(self.target_kind).plan_host(
            action.vm_count, action.total_memory_bytes,
        )

    def migration_time_s(self, action: MigrationAction) -> float:
        return self.migration_plan(action).total_s

    def upgrade_time_s(self, action: InPlaceAction) -> float:
        return self.upgrade_plan(action).total_s

    # -- whole plan -----------------------------------------------------------

    def execute(self, plan: ReconfigurationPlan) -> ExecutionResult:
        migration_s = 0.0
        upgrade_s = 0.0
        per_group = []
        per_migration: List[Tuple[str, float]] = []
        traced = self.tracer.enabled
        now = 0.0
        for index, group in enumerate(plan.groups):
            group_start = now
            group_migration = 0.0
            for action in group.migrations:
                stage_plan = self.migration_plan(action)
                t = stage_plan.total_s
                per_migration.append((action.vm_name, t))
                if traced:
                    self.tracer.add(Span(
                        f"evacuate {action.vm_name}", "migration",
                        now, now + t, track="cluster/migrations",
                        args={"vm": action.vm_name},
                    ))
                    self.tracer.extend(stage_plan.spans(
                        now, track=f"cluster/migrations/{action.vm_name}"))
                now += t
                group_migration += t
            # Hosts in a group reboot in parallel.
            group_upgrade = max(
                (self.upgrade_time_s(a) for a in group.upgrades), default=0.0
            )
            if traced:
                for action in group.upgrades:
                    stage_plan = self.upgrade_plan(action)
                    t = stage_plan.total_s
                    self.tracer.add(Span(
                        f"upgrade {action.node_name}", "upgrade",
                        now, now + t, track="cluster/upgrades",
                        args={"vm_count": action.vm_count},
                    ))
                    self.tracer.extend(stage_plan.spans(
                        now, track=f"cluster/upgrades/{action.node_name}"))
            now += group_upgrade
            if traced:
                self.tracer.add(Span(
                    f"group {index}", "plan",
                    group_start, now, track="cluster",
                    args={"migrations": len(group.migrations),
                          "upgrades": len(group.upgrades)},
                ))
            migration_s += group_migration
            upgrade_s += group_upgrade
            per_group.append(group_migration + group_upgrade)
        return ExecutionResult(
            total_s=migration_s + upgrade_s,
            migration_s=migration_s,
            upgrade_s=upgrade_s,
            migration_count=plan.migration_count,
            upgrade_count=plan.upgrade_count,
            per_group_s=per_group,
            per_migration_s=per_migration,
        )
