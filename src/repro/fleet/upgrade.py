"""Whole-cluster upgrade campaigns (Fig. 13).

The §5.4 experiment is the fleet controller's degenerate campaign: no
failures, waves run one at a time and a wave's micro-reboots start only
once all of its evacuations are done, one migration stream, no admission
cap and no verify stage.  :class:`UpgradeCampaign` runs that campaign
for a given InPlaceTP-compatible share on the paper's cluster and
reports the migrations executed and the disclosure-to-remediation time;
sweeping the share reproduces both Fig. 13 panels (migration count, time
gain).
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.fleet.controller import FleetConfig, FleetController
from repro.fleet.state import HostState


@dataclass
class CampaignResult:
    """One sweep point of Fig. 13."""

    inplace_fraction: float
    migration_count: int
    total_s: float
    #: the evacuations' part of ``total_s``
    migration_s: float
    #: the host micro-reboots' part of ``total_s``
    upgrade_s: float

    @property
    def total_minutes(self) -> float:
        return self.total_s / 60.0


class UpgradeCampaign:
    """Parameterised §5.4 campaign."""

    def __init__(self, hosts: int = 10, vms_per_host: int = 10,
                 group_size: int = 2, seed: int = 42):
        self.hosts = hosts
        self.vms_per_host = vms_per_host
        self.group_size = group_size
        self.seed = seed

    def run(self, inplace_fraction: float) -> CampaignResult:
        controller = FleetController(FleetConfig(
            hosts=self.hosts, vms_per_host=self.vms_per_host,
            inplace_fraction=inplace_fraction, group_size=self.group_size,
            seed=self.seed, concurrency=None, sequential_groups=True,
            verify_fixed_s=0.0, verify_per_vm_s=0.0,
        ))
        metrics = controller.run()
        total_s = metrics.completed_at_s - metrics.disclosure_at_s
        upgrade_s = _reboot_s(controller)
        return CampaignResult(
            inplace_fraction=inplace_fraction,
            migration_count=metrics.migrations_executed,
            total_s=total_s,
            migration_s=total_s - upgrade_s,
            upgrade_s=upgrade_s,
        )

    def sweep(self, fractions: List[float]) -> List[CampaignResult]:
        return [self.run(f) for f in fractions]

    @staticmethod
    def time_gains(results: List[CampaignResult]) -> List[float]:
        """Per-point gain relative to the first (baseline) result."""
        if not results:
            return []
        baseline = results[0].total_s
        return [1.0 - r.total_s / baseline for r in results]


def _reboot_s(controller: FleetController) -> float:
    """The campaign's micro-reboot time, read from its transition log.

    A wave's hosts all enter TRANSPLANTING when its last evacuation
    ends, so the wave reboots from its first TRANSPLANTING to its last
    DONE.  The log is in time order.
    """
    records = controller.records
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    for transition in controller.trace.transitions:
        wave = records[transition.host].wave
        if transition.target is HostState.TRANSPLANTING:
            first.setdefault(wave, transition.time_s)
        elif transition.target is HostState.DONE:
            last[wave] = transition.time_s
    return sum(last[wave] - first[wave] for wave in sorted(first))
