"""The "one-click" datacenter transplant API (§4.5.2).

``DatacenterAPI`` ties together the vulnerability advisor and the Nova
manager: hand it a CVE id and it (a) asks the advisor whether a transplant
is warranted and to which hypervisor, and (b) rolls the upgrade across every
affected host, producing a fleet-wide report.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.transplant import TransplantReport
from repro.vulndb.advisor import TransplantAdvice, TransplantAdvisor
from repro.orchestrator.nova import NovaCompute


@dataclass
class FleetUpgradeReport:
    """Outcome of a datacenter-wide emergency transplant."""

    trigger_cve: str
    advice: TransplantAdvice
    per_host: Dict[str, TransplantReport] = field(default_factory=dict)
    total_s: float = 0.0

    @property
    def hosts_upgraded(self) -> int:
        return len(self.per_host)

    @property
    def worst_vm_disruption_s(self) -> float:
        return max(
            (r.worst_downtime_s for r in self.per_host.values()), default=0.0
        )


class DatacenterAPI:
    """Entry point an operator (or a pager automation) calls."""

    def __init__(self, nova: NovaCompute, advisor: TransplantAdvisor):
        self.nova = nova
        self.advisor = advisor

    def respond_to_cve(self, cve_id: str,
                       open_cves: Sequence[str] = (),
                       clock: Optional[SimClock] = None,
                       evacuation_host: Optional[str] = None
                       ) -> FleetUpgradeReport:
        """Mitigate ``cve_id`` across the fleet.

        Every host running an affected hypervisor is live-upgraded to the
        advisor's recommended target.  Hosts already on a safe hypervisor
        are left alone.
        """
        clock = clock or SimClock()
        start = clock.now

        # Ask the advisor once per affected hypervisor kind in the fleet.
        fleet_kinds = {
            record.hypervisor_type for record in self.nova.database.values()
        }
        trigger = self.advisor.db.get(cve_id)
        affected_in_fleet = sorted(
            kind for kind in fleet_kinds if trigger.affects(kind)
        )
        if not affected_in_fleet:
            advice = self.advisor.advise(cve_id, next(iter(fleet_kinds)))
            return FleetUpgradeReport(trigger_cve=cve_id, advice=advice)

        current = affected_in_fleet[0]
        advice = self.advisor.advise_or_raise(cve_id, current,
                                              open_cves=open_cves)
        if not advice.transplant_needed:
            return FleetUpgradeReport(trigger_cve=cve_id, advice=advice)
        target = HypervisorKind(advice.recommended_target)

        report = FleetUpgradeReport(trigger_cve=cve_id, advice=advice)
        for host in sorted(self.nova.database):
            record = self.nova.database[host]
            if not trigger.affects(record.hypervisor_type):
                continue
            report.per_host[host] = self.nova.host_live_upgrade(
                host, target, clock=clock, evacuation_host=evacuation_host,
            )
        report.total_s = clock.now - start
        return report

    def revert_after_patch(self, original: HypervisorKind,
                           hosts: Optional[List[str]] = None,
                           clock: Optional[SimClock] = None
                           ) -> Dict[str, TransplantReport]:
        """Transplant hosts back once the original hypervisor is patched.

        The paper's Fig. 1(b): the replacement is temporary; after the
        patch, operators return to their preferred hypervisor.
        """
        clock = clock or SimClock()
        targets = hosts if hosts is not None else sorted(self.nova.database)
        results = {}
        for host in targets:
            record = self.nova.database[host]
            if record.hypervisor_type == original.value:
                continue
            results[host] = self.nova.host_live_upgrade(
                host, original, clock=clock,
            )
        return results
