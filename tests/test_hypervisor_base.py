"""Negative-path and contract tests for the generic hypervisor base."""

import pytest

from repro.errors import HypervisorError
from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, Machine
from repro.hypervisors import (
    HYPERVISOR_CLASSES,
    KVMHypervisor,
    XenHypervisor,
    make_hypervisor,
)
from repro.hypervisors.base import Hypervisor, HypervisorKind

GIB = 1024 ** 3


class TestLifecycleContracts:
    def test_unbooted_hypervisor_rejects_operations(self):
        xen = XenHypervisor()
        with pytest.raises(HypervisorError, match="not booted"):
            xen.create_vm(VMConfig("g", memory_bytes=GIB))

    def test_unknown_domain_operations(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        for operation in (xen.destroy_domain, xen.detach_domain):
            with pytest.raises(HypervisorError, match="no domain"):
                operation(99)
        with pytest.raises(HypervisorError):
            xen.pause_domain(99, 0.0)

    def test_domain_of_unknown_vm(self, m1, m2):
        xen = XenHypervisor()
        xen.boot(m1)
        other = KVMHypervisor()
        other.boot(m2)
        foreign = other.create_vm(VMConfig("f", memory_bytes=GIB))
        with pytest.raises(HypervisorError, match="not hosted"):
            xen.domain_of(foreign.vm)

    def test_domids_monotonic_across_destroy(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        first = xen.create_vm(VMConfig("a", memory_bytes=GIB))
        xen.destroy_domain(first.domid)
        second = xen.create_vm(VMConfig("b", memory_bytes=GIB))
        assert second.domid > first.domid

    def test_shutdown_clears_machine_binding(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        xen.shutdown()
        assert m1.hypervisor is None
        assert not xen.booted
        # The machine can host something else now.
        KVMHypervisor().boot(m1)

    def test_destroy_releases_guest_memory(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("a", memory_bytes=GIB))
        assert m1.memory.allocated_bytes == GIB
        xen.destroy_domain(domain.domid)
        assert m1.memory.allocated_bytes == 0

    def test_destroy_without_release_keeps_vm(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("a", memory_bytes=GIB))
        xen.destroy_domain(domain.domid, release_vm=False)
        assert m1.memory.allocated_bytes == GIB
        assert domain.vm.state.value == "running"


@pytest.mark.parametrize("kind", list(HypervisorKind),
                         ids=lambda kind: kind.value)
def test_fresh_vm_round_trips_its_own_platform_format(kind):
    # A VM gets the platform of the hypervisor that creates it, so its
    # native state blob saves and loads back without a fixup.
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(Machine(M1_SPEC))
    domain = hypervisor.create_vm(VMConfig("g", vcpus=2, memory_bytes=GIB,
                                           seed=5))
    platform = domain.vm.platform.architectural_view()
    vcpus = [vcpu.architectural_view() for vcpu in domain.vm.vcpus]
    hypervisor.load_platform_state(domain,
                                   hypervisor.save_platform_state(domain))
    assert domain.vm.platform.ioapic.pin_count == hypervisor.ioapic_pins
    assert domain.vm.platform.architectural_view() == platform
    assert [vcpu.architectural_view() for vcpu in domain.vm.vcpus] == vcpus


class TestRegistryCompleteness:
    def test_every_kind_has_a_class(self):
        assert set(HYPERVISOR_CLASSES) == set(HypervisorKind)

    def test_make_hypervisor_all_kinds(self):
        for kind in HypervisorKind:
            assert make_hypervisor(kind).kind is kind

    def test_hypervisor_without_a_state_path_cannot_be_instantiated(self):
        # The one UISR converter pair reaches VM_i State only through
        # these methods, so a hypervisor lacking them fails here rather
        # than mid-transplant.
        class NoStatePath(Hypervisor):
            build_npt = XenHypervisor.build_npt
            save_platform_state = XenHypervisor.save_platform_state
            load_platform_state = XenHypervisor.load_platform_state
            scheduler_report = XenHypervisor.scheduler_report

        assert NoStatePath.__abstractmethods__ == {"read_vm_state",
                                                   "write_vm_state"}
        with pytest.raises(TypeError, match="abstract"):
            NoStatePath()

    def test_every_kind_has_boot_model(self, m1):
        from repro.core.timings import DEFAULT_COST_MODEL

        for kind in HypervisorKind:
            assert DEFAULT_COST_MODEL.kernel_boot_s(m1, kind) > 0

    def test_every_kind_has_stopcopy_model(self):
        from repro.core.timings import DEFAULT_COST_MODEL

        for kind in HypervisorKind:
            assert DEFAULT_COST_MODEL.stopcopy_overhead_s(kind, 1) > 0

    def test_every_kind_has_libvirt_uri(self, m1):
        from repro.orchestrator.libvirt import _URI_BY_KIND

        assert set(_URI_BY_KIND) == set(HypervisorKind)

    def test_every_kind_has_net_flavor(self):
        from repro.devices.model import NATIVE_NET_FLAVOR

        assert set(NATIVE_NET_FLAVOR) == {k.value for k in HypervisorKind}


class TestMemoryReportContract:
    def test_total_is_sum_of_categories(self, xen_host):
        report = xen_host.hypervisor.memory_report()
        assert report.total == (report.guest_state + report.vmi_state
                                + report.management_state + report.hv_state)

    def test_empty_host_has_no_guest_state(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        report = xen.memory_report()
        assert report.guest_state == 0
        assert report.hv_state > 0
