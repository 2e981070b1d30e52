"""Transplant policy: which mechanism for which VM.

"In our current prototype, it is up to the datacenter operator to decide
which transplant approach is the most appropriate" (§1) — this module is
that decision, made explicit and testable.  A policy looks at each VM's
downtime tolerance and the host's predicted InPlaceTP downtime, and
assigns the VM to InPlaceTP (ride the micro-reboot) or MigrationTP
(evacuate first).
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import OrchestratorError
from repro.guest.drivers import PassthroughDriver
from repro.hw.machine import Machine
from repro.hypervisors.base import Hypervisor, HypervisorKind
from repro.core.pipeline import InPlacePipeline
from repro.core.timings import DEFAULT_COST_MODEL, CostModel
from repro.orchestrator.scheduled_events import AZURE_MAINTENANCE_BOUND_S


class Mechanism(enum.Enum):
    INPLACE = "inplace"
    MIGRATION = "migration"
    PINNED = "pinned"  # pass-through device: cannot migrate, must ride


@dataclass
class VMAssignment:
    """The policy's verdict for one VM."""

    vm_name: str
    mechanism: Mechanism
    reason: str


@dataclass
class HostPlan:
    """Per-host mechanism assignments plus the predicted downtime."""

    host: str
    predicted_inplace_downtime_s: float
    assignments: List[VMAssignment] = field(default_factory=list)

    def by_mechanism(self, mechanism: Mechanism) -> List[str]:
        return [a.vm_name for a in self.assignments
                if a.mechanism is mechanism]


class TransplantPolicy:
    """Tolerance-driven mechanism selection.

    ``default_tolerance_s`` applies to VMs with no explicit entry; the
    Azure maintenance bound is the conventional default (VMs are expected
    to tolerate up to 30 s of maintenance pause).
    """

    def __init__(self, tolerances_s: Optional[Dict[str, float]] = None,
                 default_tolerance_s: float = AZURE_MAINTENANCE_BOUND_S,
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        if default_tolerance_s < 0:
            raise OrchestratorError("tolerance cannot be negative")
        self.tolerances_s = dict(tolerances_s or {})
        self.default_tolerance_s = default_tolerance_s
        self.cost = cost_model

    def tolerance_of(self, vm_name: str) -> float:
        return self.tolerances_s.get(vm_name, self.default_tolerance_s)

    def predict_inplace_downtime_s(self, machine: Machine,
                                   target: HypervisorKind) -> float:
        """Predicted InPlaceTP downtime for the host's current population.

        Derived from the staged pipeline (the one cost path), so the
        policy predicts with the same floats the fleet later executes.
        """
        hypervisor: Hypervisor = machine.hypervisor
        if hypervisor is None:
            raise OrchestratorError(f"{machine.name} has no hypervisor")
        vm_shapes = []
        for domain in hypervisor.domains.values():
            image = domain.vm.image
            entries = self.cost.entries_for(image.size_bytes,
                                            image.page_size, True)
            vm_shapes.append((domain.vm.config.vcpus, entries))
        if not vm_shapes:
            vm_shapes = [(0, 0)]
        pipeline = InPlacePipeline(machine, self.cost, target)
        return pipeline.plan_shapes(vm_shapes).downtime_s

    def plan_host(self, machine: Machine,
                  target: HypervisorKind) -> HostPlan:
        """Assign every VM on ``machine`` a mechanism."""
        predicted = self.predict_inplace_downtime_s(machine, target)
        plan = HostPlan(host=machine.name,
                        predicted_inplace_downtime_s=predicted)
        for domain in sorted(machine.hypervisor.domains.values(),
                             key=lambda d: d.domid):
            vm = domain.vm
            has_passthrough = any(isinstance(d, PassthroughDriver)
                                  for d in vm.devices)
            tolerance = self.tolerance_of(vm.name)
            if has_passthrough:
                # §4.2.3: pass-through forbids migration entirely.
                plan.assignments.append(VMAssignment(
                    vm.name, Mechanism.PINNED,
                    "pass-through device forbids migration; rides the "
                    "micro-reboot regardless of tolerance",
                ))
            elif predicted <= tolerance:
                plan.assignments.append(VMAssignment(
                    vm.name, Mechanism.INPLACE,
                    f"predicted downtime {predicted:.2f}s within "
                    f"tolerance {tolerance:.2f}s",
                ))
            else:
                plan.assignments.append(VMAssignment(
                    vm.name, Mechanism.MIGRATION,
                    f"predicted downtime {predicted:.2f}s exceeds "
                    f"tolerance {tolerance:.2f}s",
                ))
        return plan

    def apply_to_configs(self, machine: Machine,
                         target: HypervisorKind) -> HostPlan:
        """Plan the host and stamp each VM's ``inplace_compatible`` flag so
        the existing transplant machinery honours the policy."""
        import dataclasses

        plan = self.plan_host(machine, target)
        rides = set(plan.by_mechanism(Mechanism.INPLACE)) \
            | set(plan.by_mechanism(Mechanism.PINNED))
        for domain in machine.hypervisor.domains.values():
            vm = domain.vm
            vm.config = dataclasses.replace(
                vm.config, inplace_compatible=vm.name in rides,
            )
        return plan
