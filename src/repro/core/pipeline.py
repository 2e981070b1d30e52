"""Staged transplant pipeline — the one cost path for per-host execution.

Every transplant mechanism decomposes into the same six stages::

    quiesce -> capture -> translate -> transfer -> restore -> verify

* **InPlaceTP** (Fig. 3): quiesce pauses the guests (free — the kexec
  image was staged ahead of time), capture builds PRAM while guests still
  run (prepare-ahead, §4.2.5), translate turns VM_i State into UISR,
  transfer is the kexec micro-reboot, restore rebuilds the target's
  domains from UISR/PRAM, verify is the operator's post-transplant check.
  Downtime = translate + transfer + restore (§5.2).
* **MigrationTP** (§3.3): quiesce is connection setup + the first memory
  scan, capture is the iterative pre-copy rounds, translate is the UISR
  proxy encode/decode pair, transfer ships the residual dirty set with
  the VM paused, restore is the destination VMM's activation.  Downtime =
  translate + transfer + restore — the stop-and-copy.

The planners (:mod:`repro.cluster.executor`), the fleet control plane
(:mod:`repro.fleet.controller`) and the mechanism policy
(:mod:`repro.core.mechanisms`) all derive their per-action durations
from these plans, so fleet-scale numbers are
*the same floats* `HyperTP.upgrade_host` predicts — there is no second,
silently drifting cost path (the pre-refactor drift this module removed:
three consumers each re-summed the phase helpers in their own order).

Float discipline: a :class:`StagePlan`'s ``total_s`` is composed in the
mechanism's calibrated association — InPlaceTP folds the stages left to
right, MigrationTP groups busy-time and downtime before adding them.
The two associations differ by 1 ulp on thousands of real campaign
actions, so each builder reproduces its historical summation tree
exactly and every committed artifact stays byte-identical.
"""

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TransplantError
from repro.hw.machine import CLUSTER_NODE_SPEC, Machine, MachineSpec
from repro.hw.memory import PAGE_2M
from repro.hypervisors.base import HypervisorKind
from repro.obs import Span
from repro.sim.resources import effective_tcp_rate, gigabits
from repro.core.migration import plan_precopy
from repro.core.timings import DEFAULT_COST_MODEL, CostModel


def fabric_link_rate(node_spec: MachineSpec = CLUSTER_NODE_SPEC) -> float:
    """Effective bytes/s of the shared migration fabric for ``node_spec``."""
    return effective_tcp_rate(gigabits(node_spec.nic_gbps))


class Stage(enum.Enum):
    """The common stage protocol both mechanisms implement."""

    QUIESCE = "quiesce"
    CAPTURE = "capture"
    TRANSLATE = "translate"
    TRANSFER = "transfer"
    RESTORE = "restore"
    VERIFY = "verify"


STAGE_ORDER: Tuple[Stage, ...] = (
    Stage.QUIESCE, Stage.CAPTURE, Stage.TRANSLATE,
    Stage.TRANSFER, Stage.RESTORE, Stage.VERIFY,
)


@dataclass(frozen=True)
class StageCost:
    """One stage's wall-clock contribution to a host or VM transplant."""

    stage: Stage
    duration_s: float
    #: True when the affected guests are paused for the stage's duration
    downtime: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifySpec:
    """Post-transplant verification cost (fleet SLO check, §4.5.2)."""

    fixed_s: float = 0.0
    per_vm_s: float = 0.0

    def duration_s(self, vm_count: int) -> float:
        return self.fixed_s + self.per_vm_s * vm_count


@dataclass(frozen=True)
class StagePlan:
    """A mechanism's staged cost breakdown for one host or VM.

    ``execute_s`` covers quiesce through restore — what the executing
    host is busy for; ``total_s`` additionally includes verification.
    Both are composed by the mechanism builder in its calibrated
    float-association (see the module docstring), so consumers must use
    these fields rather than re-summing ``stages`` in their own order.
    """

    mechanism: str
    stages: Tuple[StageCost, ...]
    total_s: float
    execute_s: float
    downtime_s: float

    def __post_init__(self):
        seen = [s.stage for s in self.stages]
        if seen != [s for s in STAGE_ORDER if s in seen]:
            raise TransplantError(
                f"{self.mechanism} plan: stages out of protocol order: "
                f"{[s.value for s in seen]}"
            )
        loose = sum(s.duration_s for s in self.stages)
        if not math.isclose(loose, self.total_s, rel_tol=1e-9, abs_tol=1e-12):
            raise TransplantError(
                f"{self.mechanism} plan: total_s {self.total_s!r} is not a "
                f"re-association of the stage sum {loose!r}"
            )

    def stage_s(self, stage: Stage) -> float:
        for cost in self.stages:
            if cost.stage is stage:
                return cost.duration_s
        return 0.0

    def spans(self, start_s: float, track: str) -> List[Span]:
        """Render the plan as obs spans, one per non-empty stage."""
        spans: List[Span] = []
        now = start_s
        for cost in self.stages:
            if cost.duration_s <= 0.0:
                continue
            spans.append(Span(
                cost.stage.value, "downtime" if cost.downtime else "stage",
                now, now + cost.duration_s, track=track,
                args={"mechanism": self.mechanism, "detail": cost.detail},
            ))
            now += cost.duration_s
        return spans


def _fold(durations: Sequence[float]) -> float:
    total = 0.0
    for duration in durations:
        total += duration
    return total


class InPlacePipeline:
    """Stage costs of InPlaceTP on one machine shape.

    ``plan_host`` models the cluster planner's uniform-VM host (what
    :class:`repro.cluster.plan.InPlaceAction` describes); ``plan_shapes``
    takes explicit per-VM ``(vcpus, entries)`` shapes for a live
    population (what :meth:`repro.core.inplace.InPlaceTP.stage_plan`
    prices a live host with).

    A plan is a pure value of its shape: everything else it reads is
    fixed at construction, so ``plan_host`` builds each
    ``(vm_count, total_memory_bytes)`` once and returns the cached frozen
    plan afterwards.  ``plan_shapes`` populations vary, so it is not
    cached.
    """

    mechanism = "inplace"

    def __init__(self, machine: Machine,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 target_kind: HypervisorKind = HypervisorKind.KVM,
                 verify: Optional[VerifySpec] = None):
        self.machine = machine
        self.cost = cost
        self.target_kind = target_kind
        self.verify = verify
        self._host_plans: Dict[Tuple[int, int], StagePlan] = {}

    def plan_host(self, vm_count: int, total_memory_bytes: int) -> StagePlan:
        """Stage costs for a host carrying ``vm_count`` uniform VMs."""
        key = (vm_count, total_memory_bytes)
        plan = self._host_plans.get(key)
        if plan is None:
            plan = self._host_plans[key] = self._build_host(
                vm_count, total_memory_bytes)
        return plan

    def _build_host(self, vm_count: int,
                    total_memory_bytes: int) -> StagePlan:
        entries_per_vm = (
            self.cost.entries_for(
                total_memory_bytes // max(1, vm_count), PAGE_2M,
                huge_pages=True,
            )
            if vm_count else 0
        )
        entry_counts = [entries_per_vm] * vm_count
        vm_shapes = [(1, entries_per_vm)] * vm_count
        capture = (self.cost.pram_phase_s(self.machine, entry_counts)
                   if vm_count else 0.0)
        return self._build(vm_count, vm_shapes, sum(entry_counts), capture)

    def plan_shapes(self, vm_shapes: Sequence,
                    entry_counts: Optional[Sequence[int]] = None) -> StagePlan:
        """Stage costs for an explicit ``(vcpus, entries)`` population."""
        if entry_counts is None:
            entry_counts = [entries for _, entries in vm_shapes]
        capture = (self.cost.pram_phase_s(self.machine, list(entry_counts))
                   if entry_counts else 0.0)
        return self._build(len(vm_shapes), list(vm_shapes),
                           sum(entry_counts), capture)

    def _build(self, vm_count: int, vm_shapes, total_entries: int,
               capture: float) -> StagePlan:
        translate = self.cost.translate_phase_s(self.machine, vm_shapes)
        transfer = self.cost.reboot_phase_s(self.machine, self.target_kind,
                                            total_entries)
        restore = self.cost.restore_phase_s(self.machine, vm_shapes)
        verify = self.verify.duration_s(vm_count) if self.verify else 0.0
        stages = (
            StageCost(Stage.QUIESCE, 0.0, downtime=False,
                      detail="pause guests (kexec image staged ahead)"),
            StageCost(Stage.CAPTURE, capture, downtime=False,
                      detail="PRAM construction, prepare-ahead"),
            StageCost(Stage.TRANSLATE, translate, downtime=True,
                      detail="VM_i State -> UISR"),
            StageCost(Stage.TRANSFER, transfer, downtime=True,
                      detail=f"kexec micro-reboot into "
                             f"{self.target_kind.value}"),
            StageCost(Stage.RESTORE, restore, downtime=True,
                      detail="UISR -> target domains + PRAM relink"),
            StageCost(Stage.VERIFY, verify, downtime=False,
                      detail="post-transplant host verification"),
        )
        # InPlaceTP's calibrated association is the plain left fold
        # (pram + translation + reboot + restoration, then verify).
        execute = _fold([s.duration_s for s in stages[:-1]])
        total = _fold([s.duration_s for s in stages])
        downtime = _fold([s.duration_s for s in stages if s.downtime])
        return StagePlan(mechanism=self.mechanism, stages=stages,
                         total_s=total, execute_s=execute,
                         downtime_s=downtime)


class MigrationPipeline:
    """Stage costs of MigrationTP for one VM over a shared fabric.

    ``charge_proxy`` switches on the 2x ``proxy_translate_s`` UISR term
    the mechanism simulation charges (~1.6 ms).  The planners leave it
    off: the fleet/cluster cost model is calibrated against Fig. 13 and
    treats the proxy pair as measurement noise — pre-refactor this was
    an undocumented divergence between two formulas in different layers;
    now it is one flag in one place.

    Like :class:`InPlacePipeline`, each ``(memory_bytes,
    dirty_rate_bytes_s, vcpus)`` shape is built once per instance.
    """

    mechanism = "migration"

    def __init__(self, link_rate: float,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 target_kind: HypervisorKind = HypervisorKind.KVM,
                 charge_proxy: bool = False):
        if link_rate <= 0:
            raise TransplantError(
                f"migration pipeline needs a positive link rate, "
                f"got {link_rate}"
            )
        self.link_rate = link_rate
        self.cost = cost
        self.target_kind = target_kind
        self.charge_proxy = charge_proxy
        self._vm_plans: Dict[Tuple[int, float, int], StagePlan] = {}

    def plan_vm(self, memory_bytes: int, dirty_rate_bytes_s: float,
                vcpus: int = 1) -> StagePlan:
        key = (memory_bytes, dirty_rate_bytes_s, vcpus)
        plan = self._vm_plans.get(key)
        if plan is None:
            plan = self._vm_plans[key] = self._build_vm(
                memory_bytes, dirty_rate_bytes_s, vcpus)
        return plan

    def _build_vm(self, memory_bytes: int, dirty_rate_bytes_s: float,
                  vcpus: int) -> StagePlan:
        rounds = plan_precopy(memory_bytes, self.link_rate,
                              dirty_rate_bytes_s, self.cost)
        capture = sum(r.duration_s for r in rounds)
        residual = rounds[-1].dirty_after_bytes
        transfer = residual / self.link_rate
        restore = self.cost.stopcopy_overhead_s(self.target_kind, vcpus)
        translate = (2 * self.cost.proxy_translate_s
                     if self.charge_proxy else 0.0)
        stages = (
            StageCost(Stage.QUIESCE, self.cost.migration_setup_s,
                      downtime=False,
                      detail="connection + negotiation + first scan"),
            StageCost(Stage.CAPTURE, capture, downtime=False,
                      detail=f"{len(rounds)} pre-copy round(s)"),
            StageCost(Stage.TRANSLATE, translate, downtime=True,
                      detail="UISR proxy encode/decode"),
            StageCost(Stage.TRANSFER, transfer, downtime=True,
                      detail=f"stop-and-copy residual "
                             f"({residual} bytes)"),
            StageCost(Stage.RESTORE, restore, downtime=True,
                      detail=f"{self.target_kind.value} destination "
                             f"activation"),
            StageCost(Stage.VERIFY, 0.0, downtime=False,
                      detail="resume on destination"),
        )
        # MigrationTP's calibrated association groups busy time (setup +
        # pre-copy) and downtime (residual copy + activation) before
        # adding the two — the historical precopy/downtime split.
        busy = _fold([s.duration_s for s in stages if not s.downtime])
        downtime = _fold([s.duration_s for s in stages if s.downtime])
        total = busy + downtime
        return StagePlan(mechanism=self.mechanism, stages=stages,
                         total_s=total, execute_s=total, downtime_s=downtime)


class TransplantPipelines:
    """Both mechanism pipelines for one host/fabric shape, cached per
    target hypervisor (the fleet needs the source direction for
    ReHype-style rollback)."""

    def __init__(self, machine: Optional[Machine] = None,
                 node_spec: MachineSpec = CLUSTER_NODE_SPEC,
                 link_rate: Optional[float] = None,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 verify: Optional[VerifySpec] = None):
        self.machine = machine if machine is not None else Machine(
            node_spec, name="pipeline-reference")
        self.link_rate = (link_rate if link_rate is not None
                          else fabric_link_rate(node_spec))
        self.cost = cost
        self.verify = verify
        self._inplace: Dict[HypervisorKind, InPlacePipeline] = {}
        self._migration: Dict[HypervisorKind, MigrationPipeline] = {}

    def inplace(self, target_kind: HypervisorKind) -> InPlacePipeline:
        if target_kind not in self._inplace:
            self._inplace[target_kind] = InPlacePipeline(
                self.machine, self.cost, target_kind, verify=self.verify)
        return self._inplace[target_kind]

    def migration(self, target_kind: HypervisorKind) -> MigrationPipeline:
        if target_kind not in self._migration:
            self._migration[target_kind] = MigrationPipeline(
                self.link_rate, self.cost, target_kind)
        return self._migration[target_kind]


@dataclass(frozen=True)
class EvacuationSpec:
    """One VM to move off a host via MigrationTP before its reboot."""

    vm_name: str
    memory_bytes: int
    dirty_rate_bytes_s: float
    vcpus: int = 1


@dataclass(frozen=True)
class HostUpgradePlan:
    """The staged plan for upgrading one whole host (§4.5.2).

    ``evacuations`` are the MigrationTP stage plans for the VMs that
    cannot ride; ``inplace`` is the InPlaceTP stage plan for the host
    with its remaining riders.
    """

    host: str
    target: str
    evacuations: Tuple[StagePlan, ...]
    inplace: StagePlan

    @property
    def execute_s(self) -> float:
        """The host's transplant busy time (quiesce through restore)."""
        return self.inplace.execute_s

    @property
    def verify_s(self) -> float:
        return self.inplace.stage_s(Stage.VERIFY)

    @property
    def evacuation_s(self) -> float:
        return sum(plan.total_s for plan in self.evacuations)

    @property
    def total_s(self) -> float:
        return self.evacuation_s + self.inplace.total_s

    @property
    def worst_downtime_s(self) -> float:
        downtimes = [plan.downtime_s for plan in self.evacuations]
        downtimes.append(self.inplace.downtime_s)
        return max(downtimes)
