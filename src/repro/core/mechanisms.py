"""Per-host mechanism selection — the paper's §4.5.2 OpenStack decision.

"It is up to the datacenter operator to decide which transplant approach
is the most appropriate" (§1).  At fleet scale that decision happens per
host: VMs that cannot tolerate InPlaceTP's seconds of downtime are
evacuated through MigrationTP proxies and the rest ride PRAM through the
micro-reboot.  :class:`MechanismPolicy` makes the choice explicit and
configurable:

* ``inplace``   — everybody rides the micro-reboot; zero fabric load,
  maximum per-VM downtime (the §5.4 scalability end of the trade-off);
* ``migration`` — evacuate every migratable VM (spare capacity
  permitting), reboot a near-empty host; minimal guest downtime,
  maximum fabric and capacity cost;
* ``hybrid``    — the paper's default: evacuate exactly the VMs flagged
  InPlaceTP-incompatible, everyone else rides;
* ``auto``      — decide per host from per-VM downtime SLOs, spare
  capacity and link bandwidth: evacuate an SLO violator only when a
  destination slot exists *and* MigrationTP's own downtime fits the SLO
  (a slow fabric can make migrating worse than riding).  Evacuating
  shrinks the predicted reboot downtime, which can un-violate the
  remaining riders, so the decision iterates to a fixed point.

Decisions consume duck-typed :class:`VMProfile` facts, so the cluster
model (a higher layer) adapts its VMs without this module importing it.
A campaign adapts every VM it plans, so a profile is a named tuple and
:func:`cluster_profiles` derives each workload's facts once.
All durations come from :mod:`repro.core.pipeline` — the policy predicts
with the same floats the campaign later executes.
"""

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from repro.errors import TransplantError
from repro.core.pipeline import InPlacePipeline, MigrationPipeline

#: Downtime SLOs by workload class (seconds).  Streaming guests drop
#: connections after ~2 s of blackout; interactive/compute guests ride
#: out tens of seconds (the Azure maintenance convention); idle guests
#: tolerate effectively anything.
WORKLOAD_SLO_S: Dict[str, float] = {
    "streaming": 2.0,
    "cpu-memory": 30.0,
    "idle": 300.0,
}

DEFAULT_SLO_S = 30.0

_NAME = attrgetter("name")
_MEMORY_BYTES = attrgetter("memory_bytes")


class MechanismKind(enum.Enum):
    INPLACE = "inplace"
    MIGRATION = "migration"
    HYBRID = "hybrid"
    AUTO = "auto"


#: the paper's §4.5.2 behaviour, and the fleet's serialization default —
#: campaigns configured with it produce pre-refactor-identical artifacts
DEFAULT_MECHANISM = MechanismKind.HYBRID


def workload_facts(workload) -> Tuple[float, float]:
    """``(dirty rate, downtime SLO)`` of a duck-typed workload class
    (``value``, ``dirty_rate_bytes_s``): the facts every VM running it
    shares."""
    return (workload.dirty_rate_bytes_s,
            WORKLOAD_SLO_S.get(workload.value, DEFAULT_SLO_S))


class VMProfile(NamedTuple):
    """The per-VM facts a mechanism decision consumes."""

    name: str
    memory_bytes: int
    dirty_rate_bytes_s: float
    downtime_slo_s: float
    #: False forbids riding the micro-reboot (the legacy
    #: ``inplace_compatible`` flag): the VM must evacuate if it can
    inplace_capable: bool = True
    #: False forbids MigrationTP (pass-through device, §4.2.3)
    migratable: bool = True

    @classmethod
    def from_cluster_vm(cls, vm) -> "VMProfile":
        """Adapt a duck-typed cluster VM (``name``, ``memory_bytes``,
        ``workload`` with ``value``/``dirty_rate_bytes_s``,
        ``inplace_compatible``)."""
        dirty_rate_bytes_s, downtime_slo_s = workload_facts(vm.workload)
        return cls(name=vm.name, memory_bytes=vm.memory_bytes,
                   dirty_rate_bytes_s=dirty_rate_bytes_s,
                   downtime_slo_s=downtime_slo_s,
                   inplace_capable=vm.inplace_compatible)


def cluster_profiles(host_vms: Mapping[str, Sequence[str]],
                     vms: Mapping[str, Any]) -> Dict[str, List[VMProfile]]:
    """:meth:`VMProfile.from_cluster_vm` for every VM of every host.

    ``host_vms`` maps each host to its VM names, and ``vms`` maps a name
    to its duck-typed cluster VM.  :func:`workload_facts` runs once per
    workload class, not once per VM.
    """
    facts: Dict[Any, Tuple[float, float]] = {}
    profiles: Dict[str, List[VMProfile]] = {}
    for host, names in host_vms.items():
        row = profiles[host] = []
        for name in names:
            vm = vms[name]
            workload = vm.workload
            known = facts.get(workload)
            if known is None:
                known = facts[workload] = workload_facts(workload)
            row.append(VMProfile(vm.name, vm.memory_bytes, known[0],
                                 known[1], vm.inplace_compatible))
    return profiles


@dataclass(frozen=True)
class HostDecision:
    """The policy's verdict for one host."""

    host: str
    #: the mechanism the host actually uses: "inplace" (nobody moves),
    #: "migration" (everybody moves) or "hybrid" (a split)
    resolved: str
    evacuate: Tuple[str, ...]
    rides: Tuple[str, ...]
    #: riders whose downtime SLO the decision cannot satisfy (no spare
    #: capacity, unmigratable, or a fabric too slow to help)
    slo_violations: Tuple[str, ...]
    predicted_downtime_s: float
    reason: str


class MechanismPolicy:
    """Chooses, per host, which VMs evacuate and which ride."""

    def __init__(self, kind: "MechanismKind | str" = DEFAULT_MECHANISM):
        if isinstance(kind, str):
            try:
                kind = MechanismKind(kind)
            except ValueError:
                raise TransplantError(
                    f"unknown mechanism {kind!r}; pick from "
                    f"{[k.value for k in MechanismKind]}"
                ) from None
        self.kind = kind

    def decide_host(self, host: str, vms: Sequence[VMProfile], *,
                    inplace: InPlacePipeline,
                    migration: MigrationPipeline,
                    spare_slots: int) -> HostDecision:
        """Split ``vms`` into evacuees and riders for one host.

        ``spare_slots`` is the destination capacity available to this
        host's evacuations; ``hybrid`` ignores it (the planner validates
        capacity, as the paper's BtrPlace formulation does), the other
        policies never plan more evacuations than slots.
        """
        if self.kind is MechanismKind.INPLACE:
            evacuate: List[VMProfile] = []
            riders = list(vms)
            reason = "operator pinned inplace: all VMs ride the reboot"
        elif self.kind is MechanismKind.MIGRATION:
            movable = [vm for vm in vms if vm.migratable]
            # Strictest SLOs first when capacity runs short.
            movable.sort(key=lambda vm: (vm.downtime_slo_s, vm.name))
            evacuate = movable[:max(0, spare_slots)]
            gone = {vm.name for vm in evacuate}
            riders = [vm for vm in vms if vm.name not in gone]
            reason = "operator pinned migration: evacuate everything movable"
        elif self.kind is MechanismKind.HYBRID:
            # One pass: a host's VM names are unique.
            evacuate, riders = [], []
            for vm in vms:
                if vm.inplace_capable or not vm.migratable:
                    riders.append(vm)
                else:
                    evacuate.append(vm)
            reason = "paper default: evacuate InPlaceTP-incompatible VMs"
        else:
            evacuate, riders, reason = self._decide_auto(
                vms, inplace=inplace, migration=migration,
                spare_slots=spare_slots)

        predicted = self._predicted_downtime_s(riders, inplace)
        violations = tuple(
            vm.name for vm in riders
            if not vm.inplace_capable or vm.downtime_slo_s < predicted
        )
        if not evacuate:
            resolved = "inplace"
        elif not riders:
            resolved = "migration"
        else:
            resolved = "hybrid"
        return HostDecision(
            host=host,
            resolved=resolved,
            evacuate=tuple(map(_NAME, evacuate)),
            rides=tuple(map(_NAME, riders)),
            slo_violations=violations,
            predicted_downtime_s=predicted,
            reason=reason,
        )

    @staticmethod
    def _predicted_downtime_s(riders: Sequence[VMProfile],
                              inplace: InPlacePipeline) -> float:
        plan = inplace.plan_host(len(riders), sum(map(_MEMORY_BYTES, riders)))
        return plan.downtime_s

    def _decide_auto(self, vms: Sequence[VMProfile], *,
                     inplace: InPlacePipeline,
                     migration: MigrationPipeline,
                     spare_slots: int):
        """The §4.5.2 heuristic, iterated to a fixed point.

        A rider evacuates when (a) it cannot ride at all, or (b) its SLO
        is tighter than the predicted reboot downtime AND MigrationTP's
        own downtime over the current fabric fits the SLO — migrating a
        VM onto a slow link can black it out longer than the reboot
        would.  Every evacuation needs a spare slot and shrinks the
        predicted downtime for the remaining riders, so the loop re-runs
        until no rider moves.
        """
        riders = list(vms)
        evacuate: List[VMProfile] = []
        moved_reasons: List[str] = []
        while True:
            budget = spare_slots - len(evacuate)
            if budget <= 0:
                break
            predicted = self._predicted_downtime_s(riders, inplace)
            violators = []
            for vm in riders:
                if not vm.migratable:
                    continue
                if vm.inplace_capable and vm.downtime_slo_s >= predicted:
                    continue
                migration_downtime = migration.plan_vm(
                    vm.memory_bytes, vm.dirty_rate_bytes_s,
                ).downtime_s
                if vm.inplace_capable and migration_downtime > vm.downtime_slo_s:
                    # The fabric cannot beat the reboot for this VM.
                    continue
                violators.append(vm)
            violators.sort(key=lambda vm: (vm.downtime_slo_s, vm.name))
            violators = violators[:budget]
            if not violators:
                break
            evacuate.extend(violators)
            gone = {vm.name for vm in violators}
            riders = [vm for vm in riders if vm.name not in gone]
            moved_reasons.append(
                f"moved {len(violators)} VM(s) under SLO pressure")
        reason = ("auto: " + "; ".join(moved_reasons)
                  if moved_reasons else "auto: every rider meets its SLO")
        return evacuate, riders, reason


def decide_fleet(policy: MechanismPolicy,
                 host_vms: Mapping[str, Sequence[VMProfile]],
                 free_slots: Mapping[str, int], *,
                 inplace: InPlacePipeline,
                 migration: MigrationPipeline) -> Dict[str, HostDecision]:
    """Decide every host, spending a shared spare-capacity budget.

    Hosts are decided in sorted name order; each planned evacuation
    consumes one slot of the fleet-wide spare pool (a host's own free
    slots cannot receive its evacuees, so its evacuations land on the
    other providers, drained in sorted name order).  Deterministic:
    same profiles and slots produce the same decisions.

    The pool keeps a running total, and ``providers`` holds the names
    that still have slots, smallest name last, so each decision and each
    drain step costs O(1) amortized.
    """
    remaining = {name: slots for name, slots in free_slots.items() if slots}
    providers = sorted(remaining, reverse=True)
    total = sum(remaining.values())
    decisions: Dict[str, HostDecision] = {}
    for host in sorted(host_vms):
        decision = policy.decide_host(
            host, host_vms[host], inplace=inplace, migration=migration,
            spare_slots=total - remaining.get(host, 0),
        )
        decisions[host] = decision
        need = len(decision.evacuate)
        # The host's own slots cannot receive its evacuees: lift it off
        # the pool while draining, then put it back.  Every provider
        # ahead of it is exhausted by then, so it is still the smallest.
        skipped = None
        while need and providers:
            name = providers[-1]
            if name == host:
                skipped = providers.pop()
                continue
            taken = min(remaining[name], need)
            remaining[name] -= taken
            total -= taken
            need -= taken
            if not remaining[name]:
                providers.pop()
        if skipped is not None:
            providers.append(skipped)
    return decisions


def mechanism_mix(decisions: Mapping[str, HostDecision]) -> Dict[str, Dict[str, int]]:
    """Per-mechanism host/VM counts for reporting (sorted, plain dicts)."""
    mix: Dict[str, Dict[str, int]] = {}
    for host in sorted(decisions):
        decision = decisions[host]
        entry = mix.setdefault(
            decision.resolved, {"hosts": 0, "vms": 0, "evacuations": 0})
        entry["hosts"] += 1
        entry["vms"] += len(decision.rides) + len(decision.evacuate)
        entry["evacuations"] += len(decision.evacuate)
    return {kind: mix[kind] for kind in sorted(mix)}
