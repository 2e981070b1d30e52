"""Property-based whole-transplant invariants and device-record flow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.drivers import EmulatedDriver, NetworkDriver
from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, Machine
from repro.hypervisors import XenHypervisor
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.convert import to_uisr
from repro.core.inplace import InPlaceTP
from repro.core.transplant import HyperTP
from repro.core.uisr.codec import decode_uisr, encode_uisr

GIB = 1024 ** 3


@given(
    vm_count=st.integers(min_value=1, max_value=4),
    vcpus=st.integers(min_value=1, max_value=4),
    memory_gib=st.sampled_from([1, 2]),
    target=st.sampled_from([HypervisorKind.KVM, HypervisorKind.NOVA]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=15, deadline=None)
def test_inplace_invariants_hold_for_any_population(vm_count, vcpus,
                                                    memory_gib, target,
                                                    seed):
    """For arbitrary small VM populations and either target:
    digests preserved, downtime positive and bounded, memory balanced."""
    machine = Machine(M1_SPEC)
    xen = XenHypervisor()
    xen.boot(machine)
    for i in range(vm_count):
        xen.create_vm(VMConfig(f"p{i}", vcpus=vcpus,
                               memory_bytes=memory_gib * GIB,
                               seed=seed + i))
    allocated_before = machine.memory.allocated_bytes
    report = HyperTP().inplace(machine, target, SimClock())
    assert report.guest_digests_preserved
    assert 0 < report.downtime_s < 30.0  # the Azure bound
    assert machine.memory.allocated_bytes == allocated_before
    assert not machine.memory.pinned_frames()
    assert machine.hypervisor.kind is target
    assert len(machine.hypervisor.domains) == vm_count
    assert machine.hypervisor.scheduler_report()["queued_vcpus"] == \
        vm_count * vcpus


class TestDeviceRecordsInUISR:
    def test_device_records_travel_in_uisr(self, xen_host):
        xen = xen_host.hypervisor
        domain = next(iter(xen.domains.values()))
        domain.vm.attach_device(NetworkDriver("net0"))
        domain.vm.attach_device(EmulatedDriver("blk0",
                                               vmm_state_bytes=1024))
        state = to_uisr(xen, domain)
        by_name = {d.name: d for d in state.devices}
        assert by_name["net0"].strategy == "unplug-rescan"
        assert by_name["blk0"].strategy == "translate"
        assert len(by_name["blk0"].payload) > 0
        # And they survive the codec.
        decoded = decode_uisr(encode_uisr(state))
        assert {d.name for d in decoded.devices} == {"net0", "blk0"}

    def test_device_records_cross_the_migration_wire(self, xen_host_factory,
                                                     kvm_host_factory,
                                                     fabric):
        from repro.core.migration import MigrationTP

        source = xen_host_factory(name="dev-src")
        destination = kvm_host_factory(name="dev-dst")
        fabric.connect(source, destination)
        domain = next(iter(source.hypervisor.domains.values()))
        domain.vm.attach_device(EmulatedDriver("serial0",
                                               vmm_state_bytes=256))
        report = MigrationTP(fabric, source, destination).migrate(domain)
        assert report.guest_digest_preserved
        # The device object followed the VM to the destination domain.
        landed = next(iter(destination.hypervisor.domains.values()))
        assert any(d.name == "serial0" for d in landed.vm.devices)


class TestDowntimePredictability:
    def test_report_downtime_equals_pause_interval(self, xen_host_factory):
        machine = xen_host_factory(vm_count=3)
        vms = [d.vm for d in machine.hypervisor.domains.values()]
        report = InPlaceTP(machine, HypervisorKind.KVM).run(SimClock())
        for vm in vms:
            (start, end), = vm.pause_intervals
            assert end - start == pytest.approx(report.downtime_s)

    def test_direction_ordering_of_downtime(self, xen_host_factory,
                                            kvm_host_factory):
        """NOVA < KVM < Xen as a reboot target, on identical hosts."""
        to_nova = HyperTP().inplace(xen_host_factory(),
                                    HypervisorKind.NOVA, SimClock())
        to_kvm = HyperTP().inplace(xen_host_factory(),
                                   HypervisorKind.KVM, SimClock())
        to_xen = HyperTP().inplace(kvm_host_factory(vm_count=1),
                                   HypervisorKind.XEN, SimClock())
        assert (to_nova.downtime_s < to_kvm.downtime_s < to_xen.downtime_s)
