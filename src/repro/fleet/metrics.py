"""Fleet-scale vulnerability-window metrics.

The paper's headline claim (§1, Fig. 13) is about the *vulnerability
window*: disclosure of a critical CVE until the fleet no longer runs the
vulnerable hypervisor.  This module aggregates per-host windows into the
fleet view — percentiles, the hosts-remediated-over-time curve, retry and
rollback counts — and serializes it to a deterministic JSON document
(same seed and config produce byte-identical output).
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.errors import FleetError
from repro.fleet.state import FleetTrace, HostRecord, HostState
from repro.obs.metrics import MetricsRegistry

METRICS_FORMAT = "hypertp-fleet-metrics"
METRICS_VERSION = 1

#: fixed bucket bounds (seconds) for per-host vulnerability windows — up to
#: a day, roughly logarithmic, shared by every campaign so snapshots diff.
WINDOW_BUCKETS = (
    1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 1800.0,
    3600.0, 7200.0, 14400.0, 28800.0, 86400.0,
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over ``values`` (``q`` in [0, 100])."""
    if not values:
        raise FleetError("cannot take a percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise FleetError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    # Nearest rank = ceil(n * q / 100).  Fraction keeps the product exact
    # (float multiplication can land an epsilon above an integer boundary
    # and push ceil one rank too high).
    rank = max(1, math.ceil(Fraction(len(ordered)) * Fraction(q) / 100))
    return ordered[rank - 1]


@dataclass
class HostOutcome:
    """Terminal result of one host."""

    name: str
    state: str
    wave: int
    vm_count: int
    planned_migrations: int
    window_s: Optional[float]
    retries: int
    rollbacks: int
    skipped_migrations: int
    failure_reasons: List[str] = field(default_factory=list)

    @classmethod
    def from_record(cls, record: HostRecord) -> "HostOutcome":
        return cls(
            name=record.name,
            state=record.state.value,
            wave=record.wave,
            vm_count=record.vm_count,
            planned_migrations=record.planned_migrations,
            window_s=record.window_s,
            retries=record.retries,
            rollbacks=record.rollbacks,
            skipped_migrations=record.skipped_migrations,
            failure_reasons=list(record.failure_reasons),
        )


@dataclass
class FleetMetrics:
    """The measured outcome of one emergency campaign."""

    trigger_cve: str
    source_hypervisor: str
    target_hypervisor: str
    hosts: int
    vms: int
    waves: int
    disclosure_at_s: float
    completed_at_s: float
    per_host: List[HostOutcome]
    remediation_curve: List[List[float]]
    window_percentiles_s: Dict[str, float]
    fleet_window_s: Optional[float]
    done_hosts: int
    rolled_back_hosts: int
    retries_total: int
    rollbacks_total: int
    migrations_executed: int
    migrations_skipped: int
    #: non-default mechanism policy, if one was configured.  None (the
    #: hybrid default) keeps the document byte-identical to pre-policy
    #: campaigns; any other policy annotates the campaign block and adds
    #: a top-level mechanism_mix section.
    mechanism: Optional[str] = None
    mechanism_mix: Optional[Dict[str, Dict[str, int]]] = None

    @property
    def all_terminal(self) -> bool:
        """Liveness: every host reached DONE or ROLLED_BACK."""
        terminal = {HostState.DONE.value, HostState.ROLLED_BACK.value}
        return all(h.state in terminal for h in self.per_host)

    def to_dict(self) -> Dict:
        document = {
            "format": METRICS_FORMAT,
            "version": METRICS_VERSION,
            "campaign": {
                "trigger_cve": self.trigger_cve,
                "source_hypervisor": self.source_hypervisor,
                "target_hypervisor": self.target_hypervisor,
                "hosts": self.hosts,
                "vms": self.vms,
                "waves": self.waves,
                "disclosure_at_s": self.disclosure_at_s,
                "completed_at_s": self.completed_at_s,
            },
            "window": {
                "fleet_window_s": self.fleet_window_s,
                "percentiles_s": dict(sorted(
                    self.window_percentiles_s.items()
                )),
                "remediation_curve": self.remediation_curve,
            },
            "robustness": {
                "done_hosts": self.done_hosts,
                "rolled_back_hosts": self.rolled_back_hosts,
                "retries_total": self.retries_total,
                "rollbacks_total": self.rollbacks_total,
                "migrations_executed": self.migrations_executed,
                "migrations_skipped": self.migrations_skipped,
            },
            "per_host": [
                {
                    "name": h.name,
                    "state": h.state,
                    "wave": h.wave,
                    "vm_count": h.vm_count,
                    "planned_migrations": h.planned_migrations,
                    "window_s": h.window_s,
                    "retries": h.retries,
                    "rollbacks": h.rollbacks,
                    "skipped_migrations": h.skipped_migrations,
                    "failure_reasons": h.failure_reasons,
                }
                for h in sorted(self.per_host, key=lambda h: h.name)
            ],
        }
        if self.mechanism is not None:
            document["campaign"]["mechanism"] = self.mechanism
            document["mechanism_mix"] = self.mechanism_mix
        return document

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def report_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Publish the campaign outcome into a metrics registry.

        Counters for the totals, gauges for the fleet-level window, and a
        fixed-bucket histogram of per-host windows (observed in sorted
        host order, so the snapshot is deterministic).
        """
        registry.counter(
            "fleet_hosts_done_total", "hosts remediated (DONE)",
        ).inc(self.done_hosts)
        registry.counter(
            "fleet_hosts_rolled_back_total", "hosts rolled back",
        ).inc(self.rolled_back_hosts)
        registry.counter(
            "fleet_retries_total", "phase retries across all hosts",
        ).inc(self.retries_total)
        registry.counter(
            "fleet_rollbacks_total", "rollback procedures executed",
        ).inc(self.rollbacks_total)
        registry.counter(
            "fleet_migrations_executed_total", "evacuations that ran",
        ).inc(self.migrations_executed)
        registry.counter(
            "fleet_migrations_skipped_total", "evacuations skipped",
        ).inc(self.migrations_skipped)
        registry.gauge(
            "fleet_window_seconds",
            "disclosure -> last host remediated",
        ).set(self.fleet_window_s if self.fleet_window_s is not None else 0.0)
        registry.gauge(
            "fleet_campaign_waves", "planner wave count",
        ).set(self.waves)
        histogram = registry.histogram(
            "fleet_host_window_seconds",
            "per-host disclosure -> remediated window",
            buckets=WINDOW_BUCKETS,
        )
        for outcome in sorted(self.per_host, key=lambda h: h.name):
            if outcome.window_s is not None:
                histogram.observe(outcome.window_s)
        return registry


def collect_metrics(records: Sequence[HostRecord], trace: FleetTrace, *,
                    trigger_cve: str, source_hypervisor: str,
                    target_hypervisor: str, waves: int,
                    disclosure_at_s: float, completed_at_s: float,
                    migrations_executed: int,
                    mechanism: Optional[str] = None,
                    mechanism_mix: Optional[Dict[str, Dict[str, int]]] = None,
                    ) -> FleetMetrics:
    """Aggregate host records and the transition trace into fleet metrics."""
    outcomes = [HostOutcome.from_record(r) for r in records]
    windows = [h.window_s for h in outcomes if h.window_s is not None]
    percentiles = {
        key: percentile(windows, q)
        for key, q in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0),
                       ("max", 100.0))
    } if windows else {}
    return FleetMetrics(
        trigger_cve=trigger_cve,
        source_hypervisor=source_hypervisor,
        target_hypervisor=target_hypervisor,
        hosts=len(outcomes),
        vms=sum(h.vm_count for h in outcomes),
        waves=waves,
        disclosure_at_s=disclosure_at_s,
        completed_at_s=completed_at_s,
        per_host=outcomes,
        remediation_curve=trace.remediation_curve(),
        window_percentiles_s=percentiles,
        fleet_window_s=max(windows) if windows else None,
        done_hosts=sum(1 for h in outcomes
                       if h.state == HostState.DONE.value),
        rolled_back_hosts=sum(1 for h in outcomes
                              if h.state == HostState.ROLLED_BACK.value),
        retries_total=sum(h.retries for h in outcomes),
        rollbacks_total=sum(h.rollbacks for h in outcomes),
        migrations_executed=migrations_executed,
        migrations_skipped=sum(h.skipped_migrations for h in outcomes),
        mechanism=mechanism,
        mechanism_mix=mechanism_mix,
    )
