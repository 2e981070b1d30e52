"""Tests for the third hypervisor (NOVA) and UISR extensibility."""

import pytest

from repro.errors import StateFormatError
from repro.guest.devices import make_default_platform
from repro.guest.vcpu import make_boot_vcpu
from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, Machine
from repro.hypervisors import NOVAHypervisor, make_hypervisor
from repro.hypervisors.base import HypervisorKind, HypervisorType
from repro.hypervisors.nova import formats
from repro.sim.clock import SimClock
from repro.core.transplant import HyperTP

GIB = 1024 ** 3


def _nova_host(vm_count=1, vcpus=1, memory_gib=1.0):
    machine = Machine(M1_SPEC)
    nova = NOVAHypervisor()
    nova.boot(machine)
    for i in range(vm_count):
        nova.create_vm(VMConfig(
            f"nvm{i}", vcpus=vcpus, memory_bytes=int(memory_gib * GIB),
            seed=i,
        ))
    return machine


class TestSnapshotFormat:
    def _state(self, vcpus=2, seed=0):
        return ([make_boot_vcpu(i, seed=seed) for i in range(vcpus)],
                make_default_platform(vcpus,
                                      ioapic_pins=formats.NOVA_IOAPIC_PINS,
                                      seed=seed))

    def test_roundtrip(self):
        vcpus, platform = self._state()
        blob = formats.encode_snapshot(vcpus, platform)
        decoded_vcpus, decoded_platform = formats.decode_snapshot(blob)
        assert ([v.architectural_view() for v in decoded_vcpus]
                == [v.architectural_view() for v in vcpus])
        assert decoded_platform.architectural_view() == platform.architectural_view()

    def test_32_pin_requirement(self):
        vcpus, _ = self._state(vcpus=1)
        xen_platform = make_default_platform(1)  # 48 pins
        with pytest.raises(StateFormatError):
            formats.encode_snapshot(vcpus, xen_platform)

    def test_bad_magic_rejected(self):
        vcpus, platform = self._state(vcpus=1)
        blob = bytearray(formats.encode_snapshot(vcpus, platform))
        blob[0] ^= 0xFF
        with pytest.raises(StateFormatError):
            formats.decode_snapshot(bytes(blob))

    def test_format_differs_from_xen_and_kvm(self):
        """Same architectural state, three different wire shapes."""
        from repro.hypervisors.kvm import formats as kf
        from repro.hypervisors.xen import formats as xf
        from repro.guest.devices import KVM_IOAPIC_PINS

        vcpus = [make_boot_vcpu(0)]
        nova_blob = formats.encode_snapshot(
            vcpus, make_default_platform(1, ioapic_pins=32))
        xen_blob = xf.encode_hvm_context(
            vcpus, make_default_platform(1))
        kvm_blob = kf.pack_bundle(kf.encode_bundle(
            vcpus, make_default_platform(1, ioapic_pins=KVM_IOAPIC_PINS)))
        assert len({nova_blob, xen_blob, kvm_blob}) == 3


class TestNOVAHypervisor:
    def test_identity(self):
        assert NOVAHypervisor.kind is HypervisorKind.NOVA
        assert NOVAHypervisor.hv_type is HypervisorType.TYPE_1
        assert make_hypervisor(HypervisorKind.NOVA).kind is HypervisorKind.NOVA

    def test_smallest_hv_state(self):
        from repro.hypervisors import KVMHypervisor, XenHypervisor

        assert NOVAHypervisor.hv_state_bytes < KVMHypervisor.hv_state_bytes
        assert NOVAHypervisor.hv_state_bytes < XenHypervisor.hv_state_bytes

    def test_npt_policy(self):
        machine = _nova_host()
        domain = next(iter(machine.hypervisor.domains.values()))
        assert domain.npt.policy_tag == "nova-npt"

    def test_scheduler(self):
        machine = _nova_host(vm_count=2, vcpus=3)
        hv = machine.hypervisor
        assert hv.scheduler.queued_vcpus() == 6
        assert hv.scheduler_report()["scheduler"] == "priority-rr"
        hv.rebuild_management_state()
        assert hv.scheduler.queued_vcpus() == 6


class TestRegistryExtensibility:
    def test_xen_to_nova_inplace(self, xen_host_factory):
        machine = xen_host_factory(vm_count=2, vcpus=2)
        vms = [d.vm for d in machine.hypervisor.domains.values()]
        digests = [vm.image.content_digest() for vm in vms]
        original = [[v.architectural_view() for v in vm.vcpus] for vm in vms]
        report = HyperTP().inplace(machine, HypervisorKind.NOVA, SimClock())
        assert machine.hypervisor.kind is HypervisorKind.NOVA
        assert [vm.image.content_digest() for vm in vms] == digests
        assert [[v.architectural_view() for v in vm.vcpus]
                for vm in vms] == original
        # 48-pin Xen IOAPIC shrank to NOVA's 32.
        assert vms[0].platform.ioapic.pin_count == formats.NOVA_IOAPIC_PINS

    def test_nova_to_kvm_inplace(self):
        machine = _nova_host(vm_count=1, vcpus=2)
        vm = next(iter(machine.hypervisor.domains.values())).vm
        digest = vm.image.content_digest()
        HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        assert machine.hypervisor.kind is HypervisorKind.KVM
        assert vm.image.content_digest() == digest
        assert vm.platform.ioapic.pin_count == 24

    def test_nova_boot_is_fastest_direction(self, xen_host_factory):
        to_nova = HyperTP().inplace(xen_host_factory(), HypervisorKind.NOVA,
                                    SimClock())
        to_kvm = HyperTP().inplace(xen_host_factory(), HypervisorKind.KVM,
                                   SimClock())
        assert to_nova.reboot_s < to_kvm.reboot_s
        assert to_nova.downtime_s < to_kvm.downtime_s

    def test_full_tour_xen_nova_kvm_xen(self, xen_host_factory):
        """Every hop through the repertoire preserves the guest."""
        machine = xen_host_factory(vm_count=1, vcpus=2)
        vm = next(iter(machine.hypervisor.domains.values())).vm
        digest = vm.image.content_digest()
        hypertp = HyperTP()
        clock = SimClock()
        for target in (HypervisorKind.NOVA, HypervisorKind.KVM,
                       HypervisorKind.XEN):
            hypertp.inplace(machine, target, clock)
        assert machine.hypervisor.kind is HypervisorKind.XEN
        assert vm.image.content_digest() == digest

    def test_migration_tp_to_nova(self, xen_host_factory, fabric):
        from repro.core.migration import MigrationTP

        source = xen_host_factory(name="nsrc")
        destination = Machine(M1_SPEC, name="ndst")
        NOVAHypervisor().boot(destination)
        fabric.connect(source, destination)
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination).migrate(domain)
        assert report.guest_digest_preserved
        assert report.downtime_s < 0.02  # user-level VMM activation
        assert len(destination.hypervisor.domains) == 1


class TestAdvisorWithThreeHypervisors:
    def test_nova_saves_the_common_flaw_case(self):
        """VENOM hits both Xen and KVM; a QEMU-free microhypervisor in the
        repertoire restores the safe-alternative guarantee."""
        from repro.vulndb import TransplantAdvisor, load_default_database

        db = load_default_database()
        two = TransplantAdvisor(db, hypervisor_pool=("xen", "kvm"))
        assert two.advise("CVE-2015-3456", "xen").recommended_target is None

        three = TransplantAdvisor(db, hypervisor_pool=("xen", "kvm", "nova"))
        advice = three.advise("CVE-2015-3456", "xen")
        assert advice.recommended_target == "nova"
