"""Nova ComputeDriver interface, extended with HyperTP operations (§4.5.2).

The paper adds three driver-level operations alongside the classic
suspend/resume/live_migration verbs:

* ``hypertp_save_guest_state`` — akin to suspend, but externalizes VM_i
  State as UISR;
* ``hypertp_load_kernel`` — stage the target hypervisor for kexec;
* ``hypertp_restore_guest_state`` — akin to resume, from UISR.

``LibvirtComputeDriver`` implements them through the ``HyperTP`` façade it
holds; a deployment with another virt driver would implement the same
interface.
"""

import abc
from typing import List, Optional

from repro.errors import OrchestratorError
from repro.hw.machine import Machine
from repro.hw.network import Fabric
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.inplace import InPlaceReport
from repro.core.migration import MigrationReport
from repro.core.transplant import HyperTP
from repro.orchestrator.libvirt import LibvirtConnection


class ComputeDriver(abc.ABC):
    """The subset of Nova's driver interface HyperTP touches."""

    @abc.abstractmethod
    def list_instances(self) -> List[str]:
        ...

    @abc.abstractmethod
    def suspend(self, instance: str, now: float) -> None:
        ...

    @abc.abstractmethod
    def resume(self, instance: str, now: float) -> None:
        ...

    @abc.abstractmethod
    def live_migration(self, instance: str, dest_driver: "ComputeDriver",
                       clock: SimClock) -> MigrationReport:
        ...

    # -- HyperTP extensions --

    @abc.abstractmethod
    def hypertp_load_kernel(self, target: HypervisorKind) -> None:
        ...

    @abc.abstractmethod
    def hypertp_host_upgrade(self, target: HypervisorKind,
                             clock: SimClock) -> InPlaceReport:
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

    def list_instances(self) -> List[str]:
        return self.connection.list_domains()

    def suspend(self, instance: str, now: float) -> None:
        self.connection.lookup(instance).suspend(now)

    def resume(self, instance: str, now: float) -> None:
        self.connection.lookup(instance).resume(now)

    def live_migration(self, instance: str, dest_driver: "ComputeDriver",
                       clock: SimClock) -> MigrationReport:
        if not isinstance(dest_driver, LibvirtComputeDriver):
            raise OrchestratorError("destination driver is not libvirt-backed")
        if self.fabric is None:
            raise OrchestratorError(
                f"{self.machine.name}: no fabric configured for migration"
            )
        domain = self.connection._domain_by_name(instance)
        return self.hypertp.migrate(self.fabric, self.machine,
                                    dest_driver.machine, domain, clock)

    def hypertp_load_kernel(self, target: HypervisorKind) -> None:
        from repro.core.kexec import load_kexec_image

        load_kexec_image(self.machine, target)

    def hypertp_host_upgrade(self, target: HypervisorKind,
                             clock: SimClock) -> InPlaceReport:
        """Save guest state, kexec, restore — the new driver operation.

        The connection keeps working: libvirt now speaks to the new
        hypervisor and the URI changes under the hood.
        """
        return self.hypertp.inplace(self.machine, target, clock)
