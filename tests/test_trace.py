"""Tests for span tracing and chrome-trace export."""

import json

import pytest

from repro.errors import ReproError
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.obs import Span, Trace, trace_inplace, trace_migration
from repro.bench.runner import make_host_pair, make_xen_host
from repro.core.migration import MigrationTP
from repro.core.transplant import HyperTP


def _events(trace, ph="X"):
    document = json.loads(trace.to_chrome_trace())
    return [e for e in document["traceEvents"] if e["ph"] == ph]


class TestSpan:
    def test_duration(self):
        span = Span("x", "cat", 1.0, 3.5)
        assert span.duration_s == 2.5

    def test_backwards_span_rejected(self):
        with pytest.raises(ReproError):
            Span("x", "cat", 3.0, 1.0)

    def test_process_is_track_prefix(self):
        assert Span("x", "c", 0.0, 1.0, track="node03/nic").process == "node03"
        assert Span("x", "c", 0.0, 1.0, track="node03").process == "node03"


class TestTrace:
    def test_total_span(self):
        trace = Trace()
        trace.extend([Span("a", "c", 0.0, 1.0), Span("b", "c", 5.0, 7.0)])
        assert trace.total_span() == 7.0
        assert Trace().total_span() == 0.0

    def test_chrome_export_is_valid_json(self):
        trace = Trace()
        trace.add(Span("a", "c", 0.5, 1.0, args={"k": 1}))
        document = json.loads(trace.to_chrome_trace())
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        event = spans[0]
        assert event["name"] == "a"
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.5e6)
        assert event["args"] == {"k": 1}

    def test_integer_track_ids(self):
        # Regression: tids were once the raw track *strings*, which the
        # trace-event spec forbids and trace_processor rejects.
        trace = Trace()
        trace.add(Span("a", "c", 0.0, 1.0, track="node01"))
        trace.add(Span("b", "c", 0.0, 1.0, track="node01/nic"))
        trace.add(Span("c", "c", 0.0, 1.0, track="node00"))
        for event in _events(trace):
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        pid_of, tid_of = trace.track_ids()
        # Sorted-name numbering from 1: stable across insertion orders.
        assert pid_of == {"node00": 1, "node01": 2}
        assert tid_of == {"node00": 1, "node01": 2, "node01/nic": 3}

    def test_metadata_events_name_tracks(self):
        trace = Trace()
        trace.add(Span("a", "c", 0.0, 1.0, track="node01"))
        trace.add(Span("b", "c", 0.0, 1.0, track="node01/nic"))
        metadata = _events(trace, ph="M")
        names = {(e["name"], e["args"]["name"]) for e in metadata}
        assert ("process_name", "node01") in names
        assert ("thread_name", "nic") in names
        # The main track's thread is named after the process itself.
        assert ("thread_name", "node01") in names
        # Metadata precedes span events so viewers label rows up front.
        document = json.loads(trace.to_chrome_trace())
        phases = [e["ph"] for e in document["traceEvents"]]
        assert phases.index("X") > phases.index("M")

    def test_export_is_deterministic_regardless_of_insertion_order(self):
        spans = [
            Span("a", "c", 0.0, 1.0, track="h2"),
            Span("b", "c", 0.5, 0.8, track="h1"),
            Span("c", "c", 0.0, 2.0, track="h1"),
        ]
        forward, backward = Trace(), Trace()
        forward.extend(spans)
        backward.extend(reversed(spans))
        assert forward.to_chrome_trace() == backward.to_chrome_trace()

    def test_trace_is_iterable(self):
        trace = Trace()
        trace.add(Span("a", "c", 0.0, 1.0))
        assert [s.name for s in trace] == ["a"]
        assert len(trace) == 1


class TestReportTraces:
    def test_inplace_trace_matches_report(self):
        machine = make_xen_host(M1_SPEC, vm_count=1)
        report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        trace = trace_inplace(report)
        by_name = {s.name: s for s in trace.spans}
        assert by_name["PRAM"].duration_s == pytest.approx(report.pram_s)
        assert by_name["Reboot"].duration_s == pytest.approx(report.reboot_s)
        # The guests-paused span covers exactly the downtime.
        assert by_name["VMs paused"].duration_s == pytest.approx(
            report.downtime_s
        )
        # Phases are contiguous: translation starts when PRAM ends.
        assert by_name["Translation"].start_s == pytest.approx(
            by_name["PRAM"].end_s
        )
        json.loads(trace.to_chrome_trace())  # exports cleanly

    def test_inplace_trace_fig6_phase_ordering(self):
        # Fig. 6: PRAM runs pre-pause, then Translation -> Reboot ->
        # Restoration back-to-back inside the downtime window.
        machine = make_xen_host(M1_SPEC, vm_count=2)
        report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        trace = trace_inplace(report)
        by_name = {s.name: s for s in trace.spans}
        order = ["PRAM", "Translation", "Reboot", "Restoration"]
        for earlier, later in zip(order, order[1:]):
            assert by_name[earlier].end_s == pytest.approx(
                by_name[later].start_s
            ), f"{earlier} should hand off to {later}"
        # "VMs paused" covers exactly the downtime phases, no more.
        paused = by_name["VMs paused"]
        assert paused.start_s == pytest.approx(by_name["Translation"].start_s)
        assert paused.end_s == pytest.approx(by_name["Restoration"].end_s)
        assert paused.duration_s == pytest.approx(report.downtime_s)
        # NIC re-init overlaps restoration on its own sub-track.
        nic = by_name["NIC re-init"]
        assert nic.track.endswith("/nic")
        assert nic.start_s == pytest.approx(by_name["Reboot"].end_s)

    def test_migration_trace_rounds(self):
        source, destination, fabric = make_host_pair(
            M1_SPEC, HypervisorKind.KVM,
        )
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination).migrate(
            domain, dirty_rate_bytes_s=48 << 20,
        )
        trace = trace_migration(report)
        round_spans = [s for s in trace.spans if s.category == "precopy"]
        assert len(round_spans) == report.round_count
        stop = next(s for s in trace.spans if s.name == "stop-and-copy")
        assert stop.duration_s == pytest.approx(report.downtime_s)
        assert stop.start_s == pytest.approx(
            sum(r.duration_s for r in report.rounds)
        )
