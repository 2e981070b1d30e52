"""Reference implementations of the three fleet-scale hot paths.

Each is the straightforward version the optimized code in ``src/`` must
agree with, kept verbatim for differential tests:

* :class:`FullScanInventory` — exposure counted by scanning every host
  on every accrual, O(open CVEs x hosts);
* :func:`decide_fleet_rescan` — the spare-slot budget re-summed for every
  host and drained from the first provider each time, O(hosts^2);
* :class:`LiveListPlanner` — the live-node list rebuilt for every
  evacuated VM, O(hosts) per migration.

Test-only: nothing outside ``tests/`` imports this module.
"""

from typing import Dict, List, Mapping, Sequence

from repro.cluster.btrplace import BtrPlacePlanner
from repro.core.mechanisms import HostDecision, MechanismPolicy, VMProfile
from repro.core.pipeline import InPlacePipeline, MigrationPipeline
from repro.errors import PlanningError, SentinelError
from repro.sentinel.inventory import FleetInventory


class FullScanInventory(FleetInventory):
    """Counts exposure by scanning the hosts, never the per-kind ledger."""

    def exposure_count(self, cve_id: str) -> int:
        return len(self.exposed_hosts(cve_id))

    def advance(self, now_s: float) -> None:
        """Integrate exposure for every open CVE up to ``now_s``."""
        if now_s < self._accrued_to_s:
            raise SentinelError(
                f"inventory time moved backwards: {now_s} < "
                f"{self._accrued_to_s}"
            )
        elapsed = now_s - self._accrued_to_s
        if elapsed > 0:
            for cve_id in self._open:
                count = self.exposure_count(cve_id)
                if count:
                    self.exposure_s[cve_id] = (
                        self.exposure_s.get(cve_id, 0.0) + count * elapsed
                    )
        self._accrued_to_s = now_s


def decide_fleet_rescan(policy: MechanismPolicy,
                        host_vms: Mapping[str, Sequence[VMProfile]],
                        free_slots: Mapping[str, int], *,
                        inplace: InPlacePipeline,
                        migration: MigrationPipeline,
                        ) -> Dict[str, HostDecision]:
    """Decide every host, spending a shared spare-capacity budget."""
    remaining = {name: free_slots[name] for name in sorted(free_slots)}
    decisions: Dict[str, HostDecision] = {}
    for host in sorted(host_vms):
        spare = sum(slots for name, slots in remaining.items()
                    if name != host)
        decision = policy.decide_host(
            host, host_vms[host], inplace=inplace, migration=migration,
            spare_slots=spare,
        )
        decisions[host] = decision
        need = len(decision.evacuate)
        for name in remaining:
            if need == 0:
                break
            if name == host:
                continue
            taken = min(remaining[name], need)
            remaining[name] -= taken
            need -= taken
    return decisions


class LiveListPlanner(BtrPlacePlanner):
    """Builds the list of live nodes afresh for every destination pick."""

    def _pick_destination(self, offline_group: List[str],
                          vm_name: str) -> str:
        offline = set(offline_group)
        live = [name for name in self._sorted_names if name not in offline]
        if not live:
            raise PlanningError("no live nodes to receive evacuated VMs")
        for _ in range(len(live)):
            candidate = live[self._rr_cursor % len(live)]
            self._rr_cursor += 1
            if self.cluster.nodes[candidate].free_slots > 0:
                return candidate
        raise PlanningError(
            f"no destination with capacity for {vm_name} while "
            f"{offline_group} is offline"
        )
