"""Nova-style compute manager with the host-live-upgrade API (§4.5.2).

``NovaCompute`` owns the per-host drivers and an internal database of host
records (which hypervisor each host runs).  Its ``host_live_upgrade``
reproduces the paper's workflow: migrate away VMs that do not support
HyperTP, save the rest, trigger the upgrade, update the database, restore.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import OrchestratorError
from repro.hw.machine import Machine
from repro.hw.network import Fabric
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.transplant import TransplantReport, evacuees
from repro.orchestrator.compute_driver import LibvirtComputeDriver


@dataclass
class HostRecord:
    """Nova's database row for one compute host."""

    host: str
    hypervisor_type: str
    hypervisor_version: str = "simulated"
    upgrades: int = 0


class NovaCompute:
    """The compute-service manager for a set of hosts."""

    def __init__(self, fabric: Optional[Fabric] = None):
        self.fabric = fabric
        self.drivers: Dict[str, LibvirtComputeDriver] = {}
        self.database: Dict[str, HostRecord] = {}

    # -- host registration ---------------------------------------------------

    def register_host(self, machine: Machine) -> LibvirtComputeDriver:
        if machine.name in self.drivers:
            raise OrchestratorError(f"host {machine.name} already registered")
        driver = LibvirtComputeDriver(machine, fabric=self.fabric)
        self.drivers[machine.name] = driver
        self.database[machine.name] = HostRecord(
            host=machine.name,
            hypervisor_type=driver.hypervisor_kind.value,
        )
        return driver

    def driver_for(self, host: str) -> LibvirtComputeDriver:
        try:
            return self.drivers[host]
        except KeyError:
            raise OrchestratorError(f"unknown host {host!r}") from None

    def hosts_running(self, kind: HypervisorKind) -> List[str]:
        return sorted(
            host for host, record in self.database.items()
            if record.hypervisor_type == kind.value
        )

    # -- the new API ----------------------------------------------------------

    def host_live_upgrade(self, host: str, target: HypervisorKind,
                          clock: Optional[SimClock] = None,
                          evacuation_host: Optional[str] = None
                          ) -> TransplantReport:
        """Upgrade one host's hypervisor with HyperTP.

        Steps (paper §4.5.2): the driver (1) live-migrates VMs that do not
        support HyperTP to ``evacuation_host``, (2) saves the remaining
        guests and triggers the host upgrade and (3) restores them on the
        upgraded host — one ``HyperTP.transplant_host`` run; then (4) the
        Nova database records the new hypervisor.
        """
        clock = clock or SimClock()
        driver = self.driver_for(host)
        if driver.hypervisor_kind is target:
            raise OrchestratorError(
                f"{host} already runs {target.value}; nothing to upgrade"
            )
        evacuation = None
        incompatible = evacuees(driver.connection.hypervisor)
        if incompatible:
            if evacuation_host is None:
                raise OrchestratorError(
                    f"{host}: {len(incompatible)} VMs need evacuation but "
                    f"no evacuation host was given"
                )
            evacuation = self.driver_for(evacuation_host)
            if evacuation.hypervisor_kind is not target:
                raise OrchestratorError(
                    f"evacuation host {evacuation_host} must already run "
                    f"{target.value}"
                )

        report = driver.hypertp_host_upgrade(target, clock,
                                             evacuation=evacuation)
        record = self.database[host]
        record.hypervisor_type = target.value
        record.upgrades += 1
        return report
