"""Tests for the video-streaming workload model."""

import pytest

from repro.errors import ReproError
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.transplant import HyperTP
from repro.bench.runner import make_host
from repro.workloads.base import HostTimeline
from repro.workloads.generator import timeline_for_inplace
from repro.workloads.streaming import StreamingWorkload

XEN = HypervisorKind.XEN
KVM = HypervisorKind.KVM


def quiet_timeline():
    return HostTimeline(switches=[(0.0, XEN)])


class TestThroughput:
    def test_baseline_scales_with_clients(self):
        small = StreamingWorkload(clients=5)
        large = StreamingWorkload(clients=50)
        assert large.baseline(XEN) == pytest.approx(10 * small.baseline(XEN))

    def test_outage_zeroes_throughput(self):
        workload = StreamingWorkload(noise=0.0)
        timeline = HostTimeline(switches=[(0.0, XEN)],
                                network_down=[(10.0, 20.0)])
        series = workload.run(30.0, timeline)
        assert series.values[15] == 0.0
        assert series.values[5] > 0

    def test_validation(self):
        with pytest.raises(ReproError):
            StreamingWorkload(clients=0)
        with pytest.raises(ReproError):
            StreamingWorkload(buffer_s=0)


class TestPlayback:
    def test_no_outage_no_rebuffering(self):
        stats = StreamingWorkload().playback(60.0, quiet_timeline())
        assert stats.rebuffer_events == 0
        assert stats.rebuffer_seconds == 0.0
        assert stats.played_seconds == pytest.approx(60.0, abs=0.5)

    def test_short_outage_absorbed_by_buffer(self):
        # A 3 s blackout against a 12 s buffer: clients never notice.
        workload = StreamingWorkload(buffer_s=12.0)
        timeline = HostTimeline(switches=[(0.0, XEN)],
                                network_down=[(20.0, 23.0)])
        stats = workload.playback(60.0, timeline)
        assert stats.rebuffer_events == 0

    def test_long_outage_rebuffers(self):
        # A 30 s blackout overwhelms the buffer.
        workload = StreamingWorkload(buffer_s=12.0)
        timeline = HostTimeline(switches=[(0.0, XEN)],
                                network_down=[(20.0, 50.0)])
        stats = workload.playback(90.0, timeline)
        assert stats.rebuffer_events == 1
        assert stats.rebuffer_seconds > 10.0
        assert stats.rebuffer_ratio > 0.1

    def test_inplace_transplant_does_not_rebuffer(self):
        """The headline streaming claim: InPlaceTP's ~9 s interruption
        (downtime + NIC) fits inside a normal client buffer."""
        machine = make_host(M1_SPEC, XEN, vm_count=1, vcpus=2, memory_gib=8.0)
        report = HyperTP().inplace(machine, KVM, SimClock())
        timeline = timeline_for_inplace(report, 30.0, XEN, KVM)
        stats = StreamingWorkload(buffer_s=12.0).playback(120.0, timeline)
        assert stats.rebuffer_events == 0

    def test_tiny_buffer_does_rebuffer_through_transplant(self):
        machine = make_host(M1_SPEC, XEN, vm_count=1, vcpus=2, memory_gib=8.0)
        report = HyperTP().inplace(machine, KVM, SimClock())
        timeline = timeline_for_inplace(report, 30.0, XEN, KVM)
        stats = StreamingWorkload(buffer_s=2.0).playback(120.0, timeline)
        assert stats.rebuffer_events >= 1
