"""The HyperTP façade — one framework unifying both transplant approaches.

``HyperTP`` is what an orchestrator (and the examples) talk to.  Its host
operation mirrors the paper's OpenStack integration (§4.5.2): VMs that do
not tolerate InPlaceTP's downtime are live-migrated away through UISR
proxies first, then the host micro-reboots into the target hypervisor with
the remaining VMs carried through PRAM.

HyperTP is a thin composer: the mechanism objects (:class:`InPlaceTP`,
:class:`MigrationTP`) simulate execution and charge the
:class:`~repro.core.pipeline.StagePlan` their ``stage_plan`` methods
return — built by the same pipeline the fleet control plane charges.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import TransplantError
from repro.hw.machine import Machine
from repro.hw.network import Fabric
from repro.hypervisors.base import Domain, Hypervisor, HypervisorKind
from repro.sim.clock import SimClock
from repro.core.inplace import InPlaceReport, InPlaceTP
from repro.core.migration import MigrationReport, MigrationTP
from repro.core.optimizations import DEFAULT_OPTIMIZATIONS, OptimizationConfig


@dataclass
class TransplantReport:
    """Outcome of transplanting one host."""

    machine: str
    source: str
    target: str
    migrated: List[MigrationReport] = field(default_factory=list)
    inplace: Optional[InPlaceReport] = None
    total_s: float = 0.0

    @property
    def migrated_count(self) -> int:
        return len(self.migrated)

    @property
    def inplace_count(self) -> int:
        return self.inplace.vm_count if self.inplace else 0

    @property
    def worst_downtime_s(self) -> float:
        downtimes = [r.downtime_s for r in self.migrated]
        if self.inplace:
            downtimes.append(self.inplace.downtime_s)
        return max(downtimes, default=0.0)


def evacuees(hypervisor: Hypervisor) -> List[Domain]:
    """The domains whose config rejects InPlaceTP's downtime, by domid:
    a host upgrade migrates them to a spare host first."""
    return [
        d for d in sorted(hypervisor.domains.values(), key=lambda d: d.domid)
        if not d.vm.config.inplace_compatible
    ]


class HyperTP:
    """Framework entry point: per-VM migration, per-host in-place, or both."""

    def __init__(self,
                 optimizations: OptimizationConfig = DEFAULT_OPTIMIZATIONS):
        self.opts = optimizations

    # -- the two mechanisms --------------------------------------------------

    def inplace(self, machine: Machine, target_kind: HypervisorKind,
                clock: Optional[SimClock] = None) -> InPlaceReport:
        """InPlaceTP: micro-reboot ``machine`` into ``target_kind``."""
        transplant = InPlaceTP(machine, target_kind,
                               optimizations=self.opts)
        return transplant.run(clock or SimClock())

    def migrate(self, fabric: Fabric, source: Machine, destination: Machine,
                domain, clock: Optional[SimClock] = None,
                dirty_rate_bytes_s: float = 1 << 20) -> MigrationReport:
        """MigrationTP: move one VM to a host running a different hypervisor."""
        migrator = MigrationTP(fabric, source, destination)
        return migrator.migrate(domain, clock or SimClock(),
                                dirty_rate_bytes_s=dirty_rate_bytes_s)

    # -- combined host operation --------------------------------------------------

    def transplant_host(self, machine: Machine, target_kind: HypervisorKind,
                        fabric: Optional[Fabric] = None,
                        spare: Optional[Machine] = None,
                        clock: Optional[SimClock] = None) -> TransplantReport:
        """Upgrade a whole host, combining both mechanisms.

        VMs whose config rejects InPlaceTP downtime are migrated to
        ``spare`` (which must already run ``target_kind``); the rest ride
        the micro-reboot.  With no incompatible VMs, no spare is needed —
        the scalability advantage of InPlaceTP (§5.4).
        """
        clock = clock or SimClock()
        source = machine.hypervisor
        if source is None:
            raise TransplantError(f"{machine.name} has no hypervisor")
        report = TransplantReport(
            machine=machine.name,
            source=source.kind.value,
            target=target_kind.value,
        )
        start = clock.now

        incompatible = evacuees(source)
        if incompatible:
            if fabric is None or spare is None:
                raise TransplantError(
                    f"{machine.name}: {len(incompatible)} VMs need migration "
                    f"but no spare host/fabric was provided"
                )
            if spare.hypervisor is None or spare.hypervisor.kind is not target_kind:
                raise TransplantError(
                    f"spare host {spare.name} must run {target_kind.value}"
                )
            migrator = MigrationTP(fabric, machine, spare)
            for domain in incompatible:
                report.migrated.append(migrator.migrate(domain, clock))

        report.inplace = self.inplace(machine, target_kind, clock)
        report.total_s = clock.now - start
        return report
