"""Staged transplant pipeline — the one cost path.

Every transplant mechanism decomposes into the same six stages::

    quiesce -> capture -> translate -> transfer -> restore -> verify

* **InPlaceTP** (Fig. 3): quiesce pauses the guests (free — the kexec
  image was staged ahead of time), capture builds PRAM while guests still
  run (prepare-ahead, §4.2.5), translate turns VM_i State into UISR,
  transfer is the kexec micro-reboot, restore rebuilds the target's
  domains from UISR/PRAM, verify is the operator's post-transplant check.
  Downtime = translate + transfer + restore (§5.2), plus capture when
  prepare-ahead is off and PRAM is built inside the pause.
* **MigrationTP** (§3.3): quiesce is connection setup + the first memory
  scan, capture is the iterative pre-copy rounds, translate is the UISR
  proxy encode/decode pair, transfer ships the residual dirty set with
  the VM paused, restore is the destination VMM's activation.  Downtime =
  transfer + restore + translate — the stop-and-copy.

A :class:`StagePlan` is the only code that turns a transplant's shape
into durations.  The fleet control plane (:mod:`repro.fleet.controller`,
which also runs the Fig. 13 cluster upgrade) and the mechanism policy
(:mod:`repro.core.mechanisms`) charge the plans a
:class:`TransplantPipelines` builds; the live mechanisms
(:class:`repro.core.inplace.InPlaceTP`,
:class:`repro.core.migration.MigrationTP` and ``LiveMigration``) charge
the plan their own ``stage_plan`` returns.  Plans are priced from data —
a :class:`~repro.hw.machine.MachineSpec` and the one calibration,
:data:`~repro.core.timings.DEFAULT_COST_MODEL` — never from a simulated
machine.  Of ``repro.core`` the module imports only the cost model
(:mod:`repro.core.timings`, which also plans the pre-copy rounds), never
a mechanism's data plane.

Float discipline: a :class:`StagePlan`'s ``total_s`` is composed in the
mechanism's calibrated association — InPlaceTP folds the stages left to
right, MigrationTP groups busy-time and downtime before adding them —
and ``downtime_s`` in the order the live run sums it.  The associations
differ by 1 ulp on thousands of real campaign actions, so each builder
reproduces its historical summation tree exactly and every committed
artifact stays byte-identical.
"""

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import TransplantError
from repro.hw.machine import CLUSTER_NODE_SPEC, MachineSpec
from repro.hw.memory import PAGE_2M
from repro.hypervisors.base import HypervisorKind
from repro.sim.resources import effective_tcp_rate, gigabits
from repro.core.timings import DEFAULT_COST_MODEL, entries_for, plan_precopy


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


def _fold(durations: Sequence[float]) -> float:
    total = 0.0
    for duration in durations:
        total += duration
    return total


class InPlacePipeline:
    """Stage costs of InPlaceTP on one machine shape.

    ``plan_host`` models the cluster planner's uniform-VM host (what
    :class:`repro.cluster.plan.InPlaceAction` describes); ``plan_shapes``
    takes explicit per-VM ``(vcpus, entries)`` shapes and the run's
    optimisation flags for a live population (what
    :meth:`repro.core.inplace.InPlaceTP.stage_plan` prices and its run
    charges).

    A plan is a pure value of its shape: everything else it reads is
    fixed at construction, so ``plan_host`` builds each
    ``(vm_count, total_memory_bytes)`` once and returns the cached frozen
    plan afterwards.  ``plan_shapes`` populations vary, so it is not
    cached.
    """

    mechanism = "inplace"

    def __init__(self, spec: MachineSpec,
                 target_kind: HypervisorKind = HypervisorKind.KVM,
                 verify: Optional[VerifySpec] = None):
        self.spec = spec
        self.target_kind = target_kind
        self.verify = verify
        self._host_plans: Dict[Tuple[int, int], StagePlan] = {}

    def plan_host(self, vm_count: int, total_memory_bytes: int) -> StagePlan:
        """Stage costs for a host carrying ``vm_count`` uniform VMs."""
        key = (vm_count, total_memory_bytes)
        plan = self._host_plans.get(key)
        if plan is None:
            entries_per_vm = (
                entries_for(total_memory_bytes // vm_count, PAGE_2M,
                            huge_pages=True)
                if vm_count else 0
            )
            plan = self._host_plans[key] = self.plan_shapes(
                [(1, entries_per_vm)] * vm_count)
        return plan

    def plan_shapes(self, vm_shapes: Sequence[Tuple[int, int]], *,
                    parallel: bool = True, early_restoration: bool = True,
                    capture_in_pause: bool = False) -> StagePlan:
        """Stage costs for an explicit ``(vcpus, entries)`` population.

        The flags are the run's §4.2.5 optimisations: ``parallel`` gives
        each VM's PRAM, translation and restoration task a worker thread,
        ``early_restoration`` starts restoring before every host service
        is up, and ``capture_in_pause`` (prepare-ahead off) builds PRAM
        with the guests paused, so capture joins the downtime.
        """
        cost = DEFAULT_COST_MODEL
        entry_counts = [entries for _, entries in vm_shapes]
        capture = cost.pram_phase_s(self.spec, entry_counts,
                                    parallel=parallel)
        translate = cost.translate_phase_s(self.spec, vm_shapes,
                                           parallel=parallel)
        transfer = cost.reboot_phase_s(self.spec, self.target_kind,
                                       sum(entry_counts))
        restore = cost.restore_phase_s(self.spec, vm_shapes,
                                       parallel=parallel,
                                       early_restoration=early_restoration)
        verify = (self.verify.duration_s(len(vm_shapes)) if self.verify
                  else 0.0)
        stages = (
            StageCost(Stage.QUIESCE, 0.0, downtime=False,
                      detail="pause guests (kexec image staged ahead)"),
            StageCost(Stage.CAPTURE, capture, downtime=capture_in_pause,
                      detail=("PRAM construction, inside the pause"
                              if capture_in_pause
                              else "PRAM construction, prepare-ahead")),
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
        # (pram + translation + reboot + restoration, then verify); the
        # pause sums translation, reboot and restoration, then PRAM when
        # it was built inside the pause.
        execute = _fold([s.duration_s for s in stages[:-1]])
        total = _fold([s.duration_s for s in stages])
        downtime = _fold([translate, transfer, restore,
                          capture if capture_in_pause else 0.0])
        return StagePlan(mechanism=self.mechanism, stages=stages,
                         total_s=total, execute_s=execute,
                         downtime_s=downtime)


class MigrationPipeline:
    """Stage costs of MigrationTP for one VM over a link of ``link_rate``
    bytes/s: a fabric's rate from :class:`TransplantPipelines`, or a live
    flow's share from the migrators' ``stage_plan``.

    ``charge_proxy`` switches on the 2x ``proxy_translate_s`` UISR term
    MigrationTP's run charges (~1.6 ms).  The planners leave it off: the
    fleet/cluster cost model is calibrated against Fig. 13 and treats the
    proxy pair as measurement noise, and ``LiveMigration`` has no proxies.

    Like :class:`InPlacePipeline`, each ``(memory_bytes,
    dirty_rate_bytes_s, vcpus)`` shape is built once per instance.
    """

    mechanism = "migration"

    def __init__(self, link_rate: float,
                 target_kind: HypervisorKind = HypervisorKind.KVM,
                 charge_proxy: bool = False):
        if link_rate <= 0:
            raise TransplantError(
                f"migration pipeline needs a positive link rate, "
                f"got {link_rate}"
            )
        self.link_rate = link_rate
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
        cost = DEFAULT_COST_MODEL
        rounds = plan_precopy(memory_bytes, self.link_rate,
                              dirty_rate_bytes_s)
        capture = sum(r.duration_s for r in rounds)
        residual = rounds[-1].dirty_after_bytes
        transfer = residual / self.link_rate
        restore = cost.stopcopy_overhead_s(self.target_kind, vcpus)
        translate = (2 * cost.proxy_translate_s
                     if self.charge_proxy else 0.0)
        stages = (
            StageCost(Stage.QUIESCE, cost.migration_setup_s,
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
        # pre-copy) and downtime (residual copy + activation, then the
        # proxy pair, as the run sums it) before adding the two — the
        # historical precopy/downtime split.
        busy = _fold([s.duration_s for s in stages if not s.downtime])
        downtime = (transfer + restore) + translate
        total = busy + downtime
        return StagePlan(mechanism=self.mechanism, stages=stages,
                         total_s=total, execute_s=total, downtime_s=downtime)


class TransplantPipelines:
    """Both mechanism pipelines for hosts of one ``spec`` joined by a
    fabric of its NIC rate, cached per target hypervisor (the fleet needs
    the source direction for ReHype-style rollback)."""

    def __init__(self, spec: MachineSpec = CLUSTER_NODE_SPEC,
                 verify: Optional[VerifySpec] = None):
        self.spec = spec
        #: effective bytes/s of the shared migration fabric
        self.link_rate = effective_tcp_rate(gigabits(spec.nic_gbps))
        self.verify = verify
        self._inplace: Dict[HypervisorKind, InPlacePipeline] = {}
        self._migration: Dict[HypervisorKind, MigrationPipeline] = {}

    def inplace(self, target_kind: HypervisorKind) -> InPlacePipeline:
        if target_kind not in self._inplace:
            self._inplace[target_kind] = InPlacePipeline(
                self.spec, target_kind, verify=self.verify)
        return self._inplace[target_kind]

    def migration(self, target_kind: HypervisorKind) -> MigrationPipeline:
        if target_kind not in self._migration:
            self._migration[target_kind] = MigrationPipeline(
                self.link_rate, target_kind)
        return self._migration[target_kind]
