"""Metrics registry: counters, gauges, and fixed-bucket histograms.

A registry is the data model of a ``--metrics`` snapshot: finished runs
publish their numbers into one (``FleetMetrics``, ``SentinelReport`` and
``CampaignJournal`` each have ``report_into``).  Three instrument types
cover the paper's reporting needs:

* :class:`Counter` — monotonically-increasing totals (retries, migrations);
* :class:`Gauge` — point-in-time values (fleet window, hosts in flight);
* :class:`Histogram` — distributions over **fixed** bucket bounds, so two
  runs of the same campaign fill the same buckets and snapshots diff
  cleanly (per-host and per-CVE vulnerability windows).

Snapshots are deterministic by construction: metric names sort, bucket
bounds are part of the metric's identity, and the JSON export uses sorted
keys — the same run always serializes to the same bytes.
"""

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ObservabilityError

#: default histogram bounds (seconds): sub-ms to one hour, roughly
#: logarithmic — wide enough for workload samples and campaign windows.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyz0123456789_"
)


def _check_name(name: str) -> str:
    if not name or not set(name) <= _NAME_OK or name[0].isdigit():
        raise ObservabilityError(
            f"bad metric name {name!r}: use lowercase [a-z0-9_], "
            f"not starting with a digit"
        )
    return name


class Counter:
    """A monotonically-increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: Union[int, float] = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name}: cannot increment by {amount}"
            )
        self._value += float(amount)

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "help": self.help, "value": self._value}


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: Union[int, float]) -> None:
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1.0) -> None:
        self._value += float(amount)

    def dec(self, amount: Union[int, float] = 1.0) -> None:
        self._value -= float(amount)

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "help": self.help, "value": self._value}


class Histogram:
    """A distribution over fixed, ascending bucket upper bounds.

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (non-cumulative); observations above the last bound land in the
    implicit overflow bucket.  Bounds are fixed at creation so snapshots
    of different runs are structurally comparable.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name}: bucket bounds must be non-empty, "
                f"strictly ascending and unique, got {list(buckets)}"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """``(upper_bound, count)`` pairs; ``None`` bound = overflow."""
        bounds: List[Optional[float]] = list(self.bounds)
        bounds.append(None)
        return list(zip(bounds, self._counts))

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in self.bucket_counts()
            ],
        }


SNAPSHOT_FORMAT = "hypertp-metrics"
#: version 3: gauges carry no ``seq`` stamp (version 2 snapshots had one)
SNAPSHOT_VERSION = 3


class MetricsRegistry:
    """Named instruments with get-or-create semantics and JSON snapshots."""

    def __init__(self):
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        return self._metrics.get(name)

    def _register(self, name: str, kind, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._register(
            name, Histogram, lambda: Histogram(name, help, buckets)
        )
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ObservabilityError(
                f"histogram {name!r} already registered with buckets "
                f"{list(metric.bounds)}"
            )
        return metric

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view of every metric, keyed and sorted by name."""
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "metrics": {
                name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)
            },
        }

    def to_json(self) -> str:
        """Deterministic JSON: same instruments and values, same bytes."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
