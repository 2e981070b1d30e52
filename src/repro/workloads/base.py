"""Workload base classes and the host timeline they observe."""

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.hypervisors.base import HypervisorKind


@dataclass
class HostTimeline:
    """What happened to the VM's host, on the simulated clock.

    * ``switches`` — (time, hypervisor kind) changes; the first entry is the
      initial hypervisor at its start time.
    * ``paused`` — closed intervals during which the VM was suspended.
    * ``degraded`` — (start, end, throughput_factor) intervals, e.g. the
      pre-copy phase of a migration.
    * ``network_down`` — intervals without connectivity (NIC re-init after a
      micro-reboot); network-dependent workloads serve nothing here.
    """

    switches: List[Tuple[float, HypervisorKind]] = field(default_factory=list)
    paused: List[Tuple[float, float]] = field(default_factory=list)
    degraded: List[Tuple[float, float, float]] = field(default_factory=list)
    network_down: List[Tuple[float, float]] = field(default_factory=list)

    def hypervisor_at(self, t: float) -> HypervisorKind:
        if not self.switches:
            raise ReproError("timeline has no hypervisor entries")
        current = self.switches[0][1]
        for when, kind in self.switches:
            if when <= t:
                current = kind
            else:
                break
        return current

    def is_paused(self, t: float) -> bool:
        return any(a <= t < b for a, b in self.paused)

    def is_network_down(self, t: float) -> bool:
        return any(a <= t < b for a, b in self.network_down)

    def degradation_factor(self, t: float) -> float:
        for a, b, factor in self.degraded:
            if a <= t < b:
                return factor
        return 1.0

    def paused_seconds_in(self, start: float, end: float) -> float:
        total = 0.0
        for a, b in self.paused:
            total += max(0.0, min(b, end) - max(a, start))
        return total


@dataclass
class MetricSeries:
    """A sampled time series (what the paper's figures plot)."""

    name: str
    unit: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(value)

    def mean(self) -> float:
        if not self.values:
            raise ReproError(f"series {self.name} is empty")
        return sum(self.values) / len(self.values)

    def mean_between(self, start: float, end: float) -> float:
        window = [v for t, v in zip(self.times, self.values)
                  if start <= t < end]
        if not window:
            raise ReproError(
                f"series {self.name}: no samples in [{start}, {end})"
            )
        return sum(window) / len(window)

    def zero_span(self) -> Tuple[Optional[float], Optional[float]]:
        """First and last time the series reads (near) zero, if any."""
        zeros = [t for t, v in zip(self.times, self.values) if v <= 1e-9]
        if not zeros:
            return (None, None)
        return (zeros[0], zeros[-1])


class Workload:
    """Base class: sample a metric over a timeline at 1 Hz."""

    #: metric name/unit, overridden by subclasses
    metric_name = "metric"
    metric_unit = ""
    #: does the workload need the network to make progress?
    network_dependent = False

    def __init__(self, seed: int = 0, noise: float = 0.02):
        self._rng = random.Random(seed)
        self.noise = noise

    def baseline(self, kind: HypervisorKind) -> float:
        """Steady-state metric value on one hypervisor."""
        raise NotImplementedError

    def sample(self, t: float, timeline: HostTimeline) -> float:
        if timeline.is_paused(t):
            return 0.0
        if self.network_dependent and timeline.is_network_down(t):
            return 0.0
        base = self.baseline(timeline.hypervisor_at(t))
        base *= timeline.degradation_factor(t)
        jitter = 1.0 + self._rng.uniform(-self.noise, self.noise)
        return max(0.0, base * jitter)

    def run(self, duration_s: float, timeline: HostTimeline,
            sample_interval_s: float = 1.0) -> MetricSeries:
        series = MetricSeries(name=self.metric_name, unit=self.metric_unit)
        t = 0.0
        while t < duration_s:
            series.append(t, self.sample(t, timeline))
            t += sample_interval_s
        return series
