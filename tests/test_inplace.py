"""Tests for the InPlaceTP workflow (Fig. 3, Fig. 6/7/10 behaviours)."""

import pytest

from repro.errors import TransplantError
from repro.guest.drivers import NetworkDriver, PassthroughDriver
from repro.hw.machine import M1_SPEC, M2_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.inplace import InPlaceTP
from repro.core.optimizations import OptimizationConfig


def run_inplace(machine, target=HypervisorKind.KVM, **kwargs):
    transplant = InPlaceTP(machine, target, **kwargs)
    return transplant.run(SimClock())


class TestBasics:
    def test_requires_hypervisor(self, m1):
        with pytest.raises(TransplantError):
            InPlaceTP(m1, HypervisorKind.KVM)

    def test_requires_different_target(self, xen_host):
        with pytest.raises(TransplantError):
            InPlaceTP(xen_host, HypervisorKind.XEN)

    def test_machine_runs_target_after(self, xen_host):
        run_inplace(xen_host)
        assert xen_host.hypervisor.kind is HypervisorKind.KVM

    def test_vms_running_after(self, xen_host):
        old_domains = list(xen_host.hypervisor.domains.values())
        run_inplace(xen_host)
        kvm = xen_host.hypervisor
        assert len(kvm.domains) == len(old_domains)
        for domain in kvm.domains.values():
            assert domain.vm.state.value == "running"

    def test_guest_digests_preserved(self, xen_host):
        report = run_inplace(xen_host)
        assert report.guest_digests_preserved

    def test_management_state_rebuilt(self, xen_host_factory):
        machine = xen_host_factory(vm_count=3, vcpus=2)
        run_inplace(machine)
        assert machine.hypervisor.scheduler.queued_vcpus() == 6

    def test_ephemeral_memory_returned(self, xen_host):
        before = xen_host.memory.allocated_bytes
        run_inplace(xen_host)
        # Guest memory survives; UISR + PRAM metadata are freed; the exact
        # total differs only by hypervisor bookkeeping, not by guest pages.
        assert xen_host.memory.allocated_bytes == before
        assert not xen_host.memory.pinned_frames()

    def test_nic_back_up_at_end(self, xen_host):
        run_inplace(xen_host)
        assert xen_host.nic.link_up

    def test_per_vm_downtime_recorded(self, xen_host_factory):
        machine = xen_host_factory(vm_count=2)
        report = run_inplace(machine)
        assert len(report.per_vm_downtime) == 2
        for downtime in report.per_vm_downtime.values():
            assert downtime == pytest.approx(report.downtime_s, rel=0.01)


class TestPaperAnchors:
    """Calibration anchors from Fig. 6 (1 vCPU / 1 GB, Xen->KVM)."""

    def test_m1_breakdown(self, xen_host_factory):
        report = run_inplace(xen_host_factory(spec=M1_SPEC))
        assert report.pram_s == pytest.approx(0.45, abs=0.1)
        assert report.translation_s == pytest.approx(0.08, abs=0.05)
        assert report.reboot_s == pytest.approx(1.52, abs=0.15)
        assert report.restoration_s == pytest.approx(0.12, abs=0.05)
        assert report.downtime_s == pytest.approx(1.7, abs=0.2)

    def test_m2_breakdown(self, xen_host_factory):
        report = run_inplace(xen_host_factory(spec=M2_SPEC))
        assert report.downtime_s == pytest.approx(3.01, abs=0.3)
        assert report.reboot_s == pytest.approx(2.40, abs=0.25)

    def test_reboot_dominates(self, xen_host_factory):
        # §5.2.1: Reboot is ~70 % of the transplantation time.
        report = run_inplace(xen_host_factory(spec=M1_SPEC))
        transplantation = (report.pram_s + report.translation_s
                           + report.reboot_s + report.restoration_s)
        assert report.reboot_s / transplantation > 0.6

    def test_network_reported_separately(self, xen_host_factory):
        report = run_inplace(xen_host_factory(spec=M1_SPEC))
        assert report.network_s == pytest.approx(6.6)
        assert report.downtime_with_network_s > report.downtime_s
        assert report.downtime_with_network_s == pytest.approx(8.2, abs=0.5)

    def test_kvm_to_xen_slower(self, xen_host_factory, kvm_host_factory):
        to_kvm = run_inplace(xen_host_factory(spec=M1_SPEC))
        machine = kvm_host_factory(vm_count=1)
        to_xen = run_inplace(machine, target=HypervisorKind.XEN)
        # Fig. 10: Xen's two-kernel boot dominates; ~7.8 s downtime on M1.
        assert to_xen.downtime_s > 2 * to_kvm.downtime_s
        assert to_xen.downtime_s == pytest.approx(7.8, abs=0.5)

    def test_pram_16kb_for_1gib(self, xen_host_factory):
        report = run_inplace(xen_host_factory())
        assert report.pram_metadata_bytes == 16 * 1024


class TestScalability:
    def test_vcpus_do_not_change_transplant_time(self, xen_host_factory):
        # Fig. 7a: vCPU count has no visible impact.
        small = run_inplace(xen_host_factory(vcpus=1))
        large = run_inplace(xen_host_factory(vcpus=10))
        assert large.downtime_s == pytest.approx(small.downtime_s, rel=0.05)

    def test_memory_grows_reboot_and_pram(self, xen_host_factory):
        # Fig. 7b: PRAM and Reboot grow with guest memory.
        small = run_inplace(xen_host_factory(memory_gib=1.0))
        large = run_inplace(xen_host_factory(memory_gib=12.0))
        assert large.pram_s > small.pram_s
        assert large.reboot_s > small.reboot_s
        assert large.restoration_s == pytest.approx(small.restoration_s,
                                                    abs=0.3)

    def test_downtime_stays_in_paper_range_m1(self, xen_host_factory):
        # §5.2.2: downtime between 1.7 s and 3.6 s on M1 across the sweeps.
        for memory in (1.0, 6.0, 12.0):
            report = run_inplace(xen_host_factory(memory_gib=memory))
            assert 1.4 <= report.downtime_s <= 4.0

    def test_m1_parallelizes_worse_than_m2(self, xen_host_factory):
        # Fig. 7c vs 7f: fewer cores => PRAM time grows faster with VM count.
        m1_1 = run_inplace(xen_host_factory(vm_count=1, spec=M1_SPEC))
        m1_12 = run_inplace(xen_host_factory(vm_count=12, spec=M1_SPEC))
        m2_1 = run_inplace(xen_host_factory(vm_count=1, spec=M2_SPEC))
        m2_12 = run_inplace(xen_host_factory(vm_count=12, spec=M2_SPEC))
        m1_growth = m1_12.pram_s / m1_1.pram_s
        m2_growth = m2_12.pram_s / m2_1.pram_s
        assert m1_growth > m2_growth


class TestDevices:
    def test_network_device_unplug_rescan(self, xen_host):
        vm = next(iter(xen_host.hypervisor.domains.values())).vm
        nic = NetworkDriver("net0")
        vm.attach_device(nic)
        run_inplace(xen_host)
        assert nic.state.value == "active"
        assert nic.tcp_connections_alive

    def test_passthrough_device_pause_resume(self, xen_host):
        vm = next(iter(xen_host.hypervisor.domains.values())).vm
        gpu = PassthroughDriver("gpu0")
        vm.attach_device(gpu)
        run_inplace(xen_host)
        assert gpu.state.value == "active"


class TestOptimizationAblation:
    def test_no_prepare_ahead_moves_pram_into_downtime(self, xen_host_factory):
        # Device quiescing stays before the pause in both configurations;
        # only PRAM construction moves into the downtime.
        def host_with_devices():
            machine = xen_host_factory(vm_count=2)
            for i, domain in enumerate(machine.hypervisor.domains.values()):
                domain.vm.attach_device(PassthroughDriver(f"gpu{i}"))
            return machine

        default = run_inplace(host_with_devices())
        ablated = run_inplace(
            host_with_devices(),
            optimizations=OptimizationConfig(prepare_ahead=False),
        )
        assert default.device_prepare_s > 0
        assert ablated.device_prepare_s > 0
        assert ablated.downtime_s - default.downtime_s == pytest.approx(
            ablated.pram_s, abs=1e-9
        )

    def test_no_parallel_slower_with_many_vms(self, xen_host_factory):
        default = run_inplace(xen_host_factory(vm_count=6))
        ablated = run_inplace(
            xen_host_factory(vm_count=6),
            optimizations=OptimizationConfig(parallel=False),
        )
        assert ablated.pram_s > default.pram_s

    def test_no_huge_pages_blows_up_metadata(self, xen_host_factory):
        default = run_inplace(xen_host_factory())
        ablated = run_inplace(
            xen_host_factory(),
            optimizations=OptimizationConfig(huge_pages=False),
        )
        assert ablated.pram_metadata_bytes > 100 * default.pram_metadata_bytes
        assert ablated.downtime_s > default.downtime_s

    def test_no_early_restoration_slower(self, xen_host_factory):
        default = run_inplace(xen_host_factory())
        ablated = run_inplace(
            xen_host_factory(),
            optimizations=OptimizationConfig(early_restoration=False),
        )
        assert ablated.restoration_s > default.restoration_s

    def test_all_disabled_is_worst(self, xen_host_factory):
        default = run_inplace(xen_host_factory(vm_count=4))
        ablated = run_inplace(
            xen_host_factory(vm_count=4),
            optimizations=OptimizationConfig.all_disabled(),
        )
        assert ablated.downtime_s > 1.5 * default.downtime_s
        # Even fully de-optimised, guests survive intact.
        assert ablated.guest_digests_preserved
