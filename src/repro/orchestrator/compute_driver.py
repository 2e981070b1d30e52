"""Nova ComputeDriver interface, extended with HyperTP (§4.5.2).

The paper extends the driver alongside the classic suspend/resume verbs:
save guest state as UISR (akin to suspend), load the target kernel for
kexec, and restore guest state from UISR (akin to resume).  InPlaceTP
runs those steps as one workflow and stages the kexec image itself, so
the driver exposes them as one operation:

* ``hypertp_host_upgrade`` — transplant the host to another hypervisor,
  first live-migrating the VMs that cannot ride the micro-reboot to an
  evacuation host through UISR.

``LibvirtComputeDriver`` implements it through the ``HyperTP`` façade it
holds (``HyperTP.transplant_host``); a deployment with another virt
driver would implement the same interface.
"""

import abc
from typing import Optional

from repro.errors import OrchestratorError
from repro.hw.machine import Machine
from repro.hw.network import Fabric
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.transplant import HyperTP, TransplantReport
from repro.orchestrator.libvirt import LibvirtConnection


class ComputeDriver(abc.ABC):
    """The operation HyperTP adds to Nova's driver interface."""

    @abc.abstractmethod
    def hypertp_host_upgrade(self, target: HypervisorKind, clock: SimClock,
                             evacuation: Optional["ComputeDriver"] = None
                             ) -> TransplantReport:
        ...


class LibvirtComputeDriver(ComputeDriver):
    """The libvirt-backed driver, one per compute host."""

    def __init__(self, machine: Machine, fabric: Optional[Fabric] = None,
                 hypertp: Optional[HyperTP] = None):
        self.machine = machine
        self.fabric = fabric
        self.hypertp = hypertp or HyperTP()
        self.connection = LibvirtConnection(machine)

    @property
    def hypervisor_kind(self) -> HypervisorKind:
        return self.connection.hypervisor.kind

    def hypertp_host_upgrade(self, target: HypervisorKind, clock: SimClock,
                             evacuation: Optional["ComputeDriver"] = None
                             ) -> TransplantReport:
        """Evacuate, save guest state, kexec, restore — the new driver
        operation.

        VMs that do not tolerate InPlaceTP's downtime migrate to
        ``evacuation`` first.  The connection keeps working: libvirt now
        speaks to the new hypervisor and the URI changes under the hood.
        """
        spare = None
        if evacuation is not None:
            if not isinstance(evacuation, LibvirtComputeDriver):
                raise OrchestratorError(
                    "evacuation driver is not libvirt-backed")
            if self.fabric is None:
                raise OrchestratorError(
                    f"{self.machine.name}: no fabric configured for migration"
                )
            spare = evacuation.machine
        return self.hypertp.transplant_host(
            self.machine, target, fabric=self.fabric, spare=spare,
            clock=clock,
        )
