"""Tests for the unified observability layer (``repro.obs``)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    trace_fleet,
)


# -- metrics ------------------------------------------------------------------

class TestCounter:
    def test_monotonic(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_bad_names_rejected(self):
        for bad in ("", "Has-Hyphen", "9starts_with_digit", "spa ce"):
            with pytest.raises(ObservabilityError):
                Counter(bad)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("hosts_in_flight")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0


class TestHistogram:
    def test_le_bucket_semantics(self):
        h = Histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 10.0, 99.0):
            h.observe(v)
        counts = dict()
        for bound, count in h.bucket_counts():
            counts[bound] = count
        # A value equal to a bound lands in that bound's bucket (le).
        assert counts[1.0] == 2    # 0.5 and 1.0
        assert counts[5.0] == 1    # 3.0
        assert counts[10.0] == 1   # 10.0
        assert counts[None] == 1   # 99.0 overflows
        assert h.count == 5
        assert h.sum == pytest.approx(113.5)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=())
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(5.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_default_buckets_ascend(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total")
        again = registry.counter("a_total")
        assert first is again
        assert len(registry) == 1 and "a_total" in registry

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="counter"):
            registry.gauge("x")

    def test_histogram_bucket_clash_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_is_deterministic_and_sorted(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name).inc()
            registry.histogram("h", buckets=(1.0,)).observe(0.5)
            return registry.to_json()

        a = build(["b_total", "a_total"])
        b = build(["a_total", "b_total"])
        assert a == b
        document = json.loads(a)
        assert document["format"] == "hypertp-metrics"
        names = list(document["metrics"])
        assert names == sorted(names)
        buckets = document["metrics"]["h"]["buckets"]
        assert buckets == [{"le": 1.0, "count": 1}, {"le": None, "count": 0}]


# -- fleet builder ------------------------------------------------------------

class _State:
    def __init__(self, value, terminal=False):
        self.value = value
        self.terminal = terminal


class _Transition:
    def __init__(self, time_s, host, source, target, reason=""):
        self.time_s = time_s
        self.host = host
        self.source = source
        self.target = target
        self.reason = reason


PENDING = _State("pending")
EVAC = _State("evacuating")
DONE = _State("done", terminal=True)


class TestTraceFleet:
    def transitions(self):
        return [
            _Transition(0.0, "h1", PENDING, EVAC),
            _Transition(0.0, "h2", PENDING, EVAC),
            _Transition(4.0, "h1", EVAC, DONE),
            _Transition(6.0, "h2", EVAC, DONE, reason="slow"),
        ]

    def test_state_spans_between_transitions(self):
        trace = trace_fleet(self.transitions())
        evac = [s for s in trace.spans if s.name == "evacuating"]
        assert {(s.track, s.start_s, s.end_s) for s in evac} == {
            ("h1", 0.0, 4.0), ("h2", 0.0, 6.0),
        }
        done = [s for s in trace.spans if s.name == "done"]
        assert all(s.duration_s == 0.0 for s in done)
        assert next(s for s in done if s.track == "h2").args == {
            "reason": "slow",
        }

    def test_wave_envelopes_nest_host_spans(self):
        trace = trace_fleet(self.transitions(),
                            host_waves={"h1": 0, "h2": 1})
        h1_wave = next(s for s in trace.spans
                       if s.track == "h1" and s.name == "wave 0")
        assert h1_wave.start_s == 0.0 and h1_wave.end_s == 4.0
        fleet_waves = {s.track for s in trace.spans
                       if s.track.startswith("fleet/")}
        assert fleet_waves == {"fleet/wave 0", "fleet/wave 1"}

    def test_campaign_span_covers_everything(self):
        trace = trace_fleet(self.transitions(), start_s=0.0, end_s=6.0,
                            campaign="campaign CVE-X")
        campaign = next(s for s in trace.spans if s.track == "fleet")
        assert campaign.name == "campaign CVE-X"
        assert campaign.start_s == 0.0 and campaign.end_s == 6.0
        assert campaign.args == {"hosts": 2}
