"""Tests for span tracing and chrome-trace export."""

import json

import pytest

from repro.errors import ReproError
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.obs import Span, Trace, trace_inplace, trace_migration
from repro.bench.runner import make_host, make_host_pair
from repro.core.inplace import InPlaceTP
from repro.core.migration import LiveMigration, MigrationTP
from repro.core.transplant import HyperTP
from repro.guest.drivers import PassthroughDriver


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
        machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1)
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
        machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=2)
        report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        trace = trace_inplace(report)
        by_name = {s.name: s for s in trace.spans}
        order = ["PRAM", "Translation", "Reboot", "Restoration"]
        for earlier, later in zip(order, order[1:], strict=False):
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

    @pytest.mark.parametrize("prepare_ahead", [True, False])
    def test_paused_span_lasts_the_downtime(self, prepare_ahead):
        # Without prepare-ahead, PRAM is built inside the pause (the
        # ablation charges it to the downtime), so the pause starts
        # before PRAM instead of after it.
        from repro.core.optimizations import OptimizationConfig

        machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=2)
        report = InPlaceTP(
            machine, HypervisorKind.KVM,
            optimizations=OptimizationConfig(prepare_ahead=prepare_ahead),
        ).run(SimClock())
        by_name = {s.name: s for s in trace_inplace(report).spans}
        paused, pram = by_name["VMs paused"], by_name["PRAM"]
        assert paused.duration_s == pytest.approx(report.downtime_s)
        for downtime_s in report.per_vm_downtime.values():
            assert paused.duration_s == pytest.approx(downtime_s)
        if prepare_ahead:
            assert pram.category == "prepare"
            assert paused.start_s == pytest.approx(pram.end_s)
        else:
            assert pram.category == "downtime"
            assert paused.start_s == pytest.approx(pram.start_s)
        assert paused.end_s == pytest.approx(by_name["Restoration"].end_s)
        assert report.pram_in_pause is not prepare_ahead

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
        # Round 1 starts once the connection is set up.
        assert round_spans[0].start_s == pytest.approx(
            report.precopy_s - sum(r.duration_s for r in report.rounds)
        )
        assert round_spans[0].start_s > 0.0
        stop = next(s for s in trace.spans if s.name == "stop-and-copy")
        assert stop.duration_s == pytest.approx(report.downtime_s)
        assert stop.start_s == pytest.approx(report.precopy_s)
        outer = next(s for s in trace.spans if s.category == "migration")
        assert outer.name == f"MigrationTP {report.vm_name}"
        assert outer.end_s == pytest.approx(report.total_s)
        assert stop.end_s == pytest.approx(outer.end_s)


# The spans the former live tracer recorded for three runs, as
# (name, category, start_s, end_s, track, args); its zero-length codec
# and wire ("io") spans are left out.  The builders must reproduce them.
INPLACE_PASSTHROUGH_SPANS = (
    ("Device prepare", "prepare", 0.0, 0.008, "m1", None),
    ("PRAM", "prepare", 0.008, 0.5104, "m1", None),
    ("Translation", "downtime", 0.5104, 0.60264, "m1", None),
    ("VMs paused", "guest", 0.5104, 2.32996, "m1/guests", {"vm_count": 2}),
    ("Reboot", "downtime", 0.60264, 2.20648, "m1", {"target": "kvm"}),
    ("Restoration", "downtime", 2.20648, 2.32996, "m1", None),
    ("NIC re-init", "network", 2.206480000000001, 8.80648, "m1/nic", None),
)

_VM = "bench-src-vm0"
MIGRATIONTP_SPANS = (
    (f"MigrationTP {_VM}", "migration", 0.0, 17.29775821075269, _VM,
     {"source": "bench-src/xen", "destination": "bench-dst/kvm"}),
    ("pre-copy round 1", "precopy", 0.45, 9.76648880860215, _VM,
     {"bytes": 1073741824}),
    ("pre-copy round 2", "precopy", 9.76648880860215, 13.880159647311828,
     _VM, {"bytes": 468914235}),
    ("pre-copy round 3", "precopy", 13.880159647311828, 15.741216266666667,
     _VM, {"bytes": 207047832}),
    ("pre-copy round 4", "precopy", 15.741216266666667, 16.626980103225808,
     _VM, {"bytes": 93670046}),
    ("pre-copy round 5", "precopy", 16.626980103225808, 17.09048077419355,
     _VM, {"bytes": 44581953}),
    ("stop-and-copy", "downtime", 17.09048077419355, 17.29775821075269,
     _VM, None),
)

# Xen -> Xen, started at t = 30 s on the caller's clock.
LIVE_MIGRATION_SPANS = (
    (f"live migration {_VM}", "migration", 30.0, 47.424158210752694, _VM,
     {"source": "bench-src/xen", "destination": "bench-dst/xen"}),
    ("pre-copy round 1", "precopy", 30.45, 39.76648880860215, _VM,
     {"bytes": 1073741824}),
    ("pre-copy round 2", "precopy", 39.76648880860215, 43.88015964731183,
     _VM, {"bytes": 468914235}),
    ("pre-copy round 3", "precopy", 43.88015964731183, 45.74121626666667,
     _VM, {"bytes": 207047832}),
    ("pre-copy round 4", "precopy", 45.74121626666667, 46.62698010322581,
     _VM, {"bytes": 93670046}),
    ("pre-copy round 5", "precopy", 46.62698010322581, 47.09048077419355,
     _VM, {"bytes": 44581953}),
    ("stop-and-copy", "downtime", 47.09048077419355, 47.424158210752694,
     _VM, None),
)


def _assert_same_spans(trace, expected):
    """Equal as sets of spans, times within 1e-9 s."""
    def key(span):
        name, category, _, _, track, args = span
        return (name, category, track, json.dumps(args, sort_keys=True))

    built = {key((s.name, s.category, s.start_s, s.end_s, s.track, s.args)):
             (s.start_s, s.end_s) for s in trace.spans}
    wanted = {key(span): (span[2], span[3]) for span in expected}
    assert len(built) == len(trace.spans)
    assert sorted(built) == sorted(wanted)
    for span_key, (start, end) in wanted.items():
        assert built[span_key] == pytest.approx((start, end), abs=1e-9), \
            span_key


class TestBuildersMatchFormerLiveSpans:
    def test_inplace_with_passthrough_devices(self):
        machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=2,
                            name="m1")
        domains = sorted(machine.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        for index, domain in enumerate(domains):
            domain.vm.attach_device(PassthroughDriver(f"gpu{index}"))
        report = InPlaceTP(machine, HypervisorKind.KVM).run(SimClock())
        assert report.device_prepare_s > 0
        _assert_same_spans(trace_inplace(report), INPLACE_PASSTHROUGH_SPANS)

    def test_migrationtp(self):
        source, destination, fabric = make_host_pair(
            M1_SPEC, HypervisorKind.KVM,
        )
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination).migrate(
            domain, SimClock(), dirty_rate_bytes_s=48 << 20,
        )
        _assert_same_spans(trace_migration(report), MIGRATIONTP_SPANS)

    def test_xen_to_xen_live_migration(self):
        source, destination, fabric = make_host_pair(
            M1_SPEC, HypervisorKind.XEN,
        )
        domain = next(iter(source.hypervisor.domains.values()))
        report = LiveMigration(fabric, source, destination).migrate(
            domain, SimClock(30.0), dirty_rate_bytes_s=48 << 20,
        )
        _assert_same_spans(trace_migration(report, start_s=30.0),
                           LIVE_MIGRATION_SPANS)

    def test_no_device_prepare_span_without_devices(self):
        machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=2)
        report = InPlaceTP(machine, HypervisorKind.KVM).run(SimClock())
        assert report.device_prepare_s == 0.0
        names = [s.name for s in trace_inplace(report).spans]
        assert "Device prepare" not in names
        assert names[0] == "PRAM"
