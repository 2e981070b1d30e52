"""Tests for the file-server workload over remote storage."""

import pytest

from repro.errors import ReproError
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.bench.runner import make_host
from repro.core.transplant import HyperTP
from repro.storage import RemoteBlockStore, StorageManager
from repro.workloads.base import HostTimeline
from repro.workloads.fileserver import FileServerWorkload
from repro.workloads.generator import timeline_for_inplace

MIB = 1 << 20
XEN = HypervisorKind.XEN
KVM = HypervisorKind.KVM


@pytest.fixture
def served_vm():
    store = RemoteBlockStore()
    store.create_volume("data", 64 * MIB)
    machine = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1, vcpus=2,
                        memory_gib=2.0)
    vm = next(iter(machine.hypervisor.domains.values())).vm
    driver = StorageManager(store).attach(vm, "data")
    return machine, vm, driver


class TestServe:
    def test_quiet_run_verifies(self, served_vm):
        _, _, driver = served_vm
        workload = FileServerWorkload(driver)
        trace = workload.serve(30.0, HostTimeline(switches=[(0.0, XEN)]))
        assert trace.reads > 0 and trace.writes > 0
        assert trace.stalled_seconds == 0.0
        assert trace.verified_ok

    def test_outage_stalls_io(self, served_vm):
        _, _, driver = served_vm
        workload = FileServerWorkload(driver)
        timeline = HostTimeline(switches=[(0.0, XEN)],
                                network_down=[(10.0, 15.0)])
        trace = workload.serve(30.0, timeline)
        assert trace.stalled_seconds == pytest.approx(5.0, abs=0.6)
        assert trace.verified_ok

    def test_bad_write_fraction_rejected(self, served_vm):
        _, _, driver = served_vm
        with pytest.raises(ReproError):
            FileServerWorkload(driver, write_fraction=1.5)


class TestAcrossTransplant:
    def test_data_written_before_survives_transplant(self, served_vm):
        """End-to-end §4.1 story: a file server's data written on Xen is
        read back verified on KVM, with only the transplant-window stall."""
        machine, vm, driver = served_vm
        report = HyperTP().inplace(machine, KVM, SimClock())
        timeline = timeline_for_inplace(report, 30.0, XEN, KVM)
        workload = FileServerWorkload(driver)
        series, trace = workload.run_with_io(120.0, timeline)
        assert trace.verified_ok
        # Stall spans the downtime+NIC window, nothing more.
        assert trace.stalled_seconds == pytest.approx(
            max(report.downtime_s,
                report.translation_s + report.reboot_s + report.network_s),
            abs=1.5,
        )
        # IOPS recover to the KVM baseline after the window.
        assert series.mean_between(60, 120) == pytest.approx(
            workload.baseline(KVM), rel=0.05,
        )
