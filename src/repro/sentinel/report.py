"""End-to-end window accounting for a sentinel run.

The fleet layer measures one campaign's disclosure->remediated window;
the sentinel measures the quantity the paper actually argues about
(§2.2, Fig. 1): *per-CVE* end-to-end windows over a whole feed, against
the patch-cycle counterfactual.  For each disclosed flaw the report
records when the fleet stopped being exposed and how — ``transplant``
(a campaign moved every exposed host), ``patch`` (the ordinary cycle got
there first, the Fig. 1a baseline), or ``not-exposed`` — plus the
exposure integral (host-days of open exposure, exact for the inventory's
piecewise-constant accounting).

The document is a deterministic function of ``(config, database)``:
sorted keys, sorted iteration, no wall-clock anywhere — the property the
byte-identity contract across reruns and worker counts rests on.
"""

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.fleet.metrics import WINDOW_BUCKETS, percentile
from repro.obs.metrics import MetricsRegistry
from repro.sentinel.feedstream import DAY_S
from repro.vulndb.data import VulnerabilityDatabase
from repro.vulndb.timeline import window_statistics

REPORT_FORMAT = "hypertp-sentinel-report"
REPORT_VERSION = 1

#: the fleet's sub-day buckets extended to feed scale: a week, a month,
#: two patch cycles — sentinel windows span both regimes (transplant
#: responses land in hours, patch-cycle fallbacks in months).
SENTINEL_WINDOW_BUCKETS = WINDOW_BUCKETS + (
    7 * DAY_S, 30 * DAY_S, 180 * DAY_S,
)

_PERCENTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0),
                ("max", 100.0))


def _percentiles_days(windows_s: List[float]) -> Dict[str, float]:
    if not windows_s:
        return {}
    return {key: percentile(windows_s, q) / DAY_S
            for key, q in _PERCENTILES}


@dataclass
class SentinelReport:
    """The measured outcome of one feed replay."""

    config: Dict[str, object]
    feed: Dict[str, object]
    cves: List[Dict[str, object]]
    campaigns: List[Dict[str, object]]
    windows: Dict[str, object]
    inventory: Dict[str, object]
    counters: Dict[str, int]
    completed_at_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "config": self.config,
            "feed": self.feed,
            "cves": self.cves,
            "campaigns": self.campaigns,
            "windows": self.windows,
            "inventory": self.inventory,
            "counters": dict(sorted(self.counters.items())),
            "completed_at_s": self.completed_at_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def report_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Publish run counters and the per-CVE window distribution."""
        for name, value in sorted(self.counters.items()):
            registry.counter(
                f"sentinel_{name}_total", f"sentinel {name}",
            ).inc(value)
        registry.gauge(
            "sentinel_exposure_host_days",
            "total open-exposure integral over the run",
        ).set(self.windows["exposure_host_days_total"])
        histogram = registry.histogram(
            "sentinel_cve_window_seconds",
            "per-CVE disclosure -> fleet-no-longer-exposed window",
            buckets=SENTINEL_WINDOW_BUCKETS,
        )
        for cve in self.cves:  # already in sorted-cve order
            if cve["window_days"] is not None:
                histogram.observe(cve["window_days"] * DAY_S)
        return registry


def build_report(*, config, feed_stats: Dict[str, object], states,
                 campaigns, inventory, counters: Dict[str, int],
                 db: VulnerabilityDatabase, completed_at_s: float,
                 ) -> SentinelReport:
    """Aggregate a finished sentinel run into the report document."""
    cves = []
    for state in states:  # sorted by cve_id by the caller
        window_s = state.window_s
        cves.append({
            "cve_id": state.cve_id,
            "severity": state.severity,
            "affected": state.affected,
            "disclosed_at_s": state.disclosed_at_s,
            "exposed_at_disclosure": state.exposed_at_disclosure,
            "remediation": state.remediation,
            "window_days": (window_s / DAY_S
                            if window_s is not None else None),
            "exposure_host_days": round(
                inventory.exposure_host_days(state.cve_id), 9),
            "closed_at_s": state.closed_at_s,
            "campaigns": list(state.campaigns),
            "residual": state.residual,
        })

    campaign_dicts = [{
        "index": c.index,
        "kind": c.kind,
        "trigger_cve": c.trigger_cve,
        "source": c.source,
        "target": c.target,
        "requested_at_s": c.requested_at_s,
        "launched_at_s": c.launched_at_s,
        "completed_at_s": c.completed_at_s,
        "hosts": c.hosts,
        "hosts_remediated": c.hosts_remediated,
        "hosts_rolled_back": c.hosts_rolled_back,
        "escape_fraction": c.escape_fraction,
        "preempted_at_s": c.preempted_at_s,
        "preempted_by": c.preempted_by,
    } for c in campaigns]

    # The head-to-head §2.2 comparison.  "transplant" windows are the
    # sentinel's measured end-to-end numbers; the patch-cycle windows are
    # the counterfactual for the *same* exposed CVEs had no sentinel run
    # (days-to-patch-release + the datacenter's application lag).
    transplant_windows = [
        s.window_s for s in states
        if s.remediation == "transplant" and s.window_s is not None
    ]
    exposed = [s for s in states if s.exposed_at_disclosure > 0]
    policy = config.policy
    patch_windows = []
    for state in exposed:
        release = db.get(state.cve_id).days_to_patch
        if release is None:
            release = policy.default_days_to_patch
        patch_windows.append(
            (release + policy.patch_application_days) * DAY_S)
    baseline = window_statistics(db)
    exposure_total = sum(
        inventory.exposure_host_days(s.cve_id) for s in states)
    windows = {
        "transplant_count": len(transplant_windows),
        "transplant_percentiles_days": _percentiles_days(
            transplant_windows),
        "patch_cycle_count": len(patch_windows),
        "patch_cycle_percentiles_days": _percentiles_days(patch_windows),
        "exposure_host_days_total": round(exposure_total, 9),
        "dataset_baseline": {
            "count": baseline.count,
            "mean_days": baseline.mean_days,
            "min_days": baseline.min_days,
            "max_days": baseline.max_days,
            "over_60_fraction": baseline.over_60_fraction,
        },
    }

    return SentinelReport(
        config=config.to_payload(),
        feed=dict(sorted(feed_stats.items())),
        cves=cves,
        campaigns=campaign_dicts,
        windows=windows,
        inventory=inventory.snapshot(),
        counters=counters,
        completed_at_s=completed_at_s,
    )
