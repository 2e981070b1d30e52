"""Tests for the KVM substrate: ioctl formats, EPT, CFS, kvmtool."""

import pytest

from repro.errors import HypervisorError, StateFormatError
from repro.guest.devices import KVM_IOAPIC_PINS, make_default_platform
from repro.guest.vcpu import make_boot_vcpu
from repro.guest.vm import VMConfig
from repro.hypervisors import KVMHypervisor
from repro.hypervisors.base import HypervisorKind, HypervisorType
from repro.hypervisors.kvm import formats

GIB = 1024 ** 3


def _state(vcpus=2, seed=0):
    return ([make_boot_vcpu(i, seed=seed) for i in range(vcpus)],
            make_default_platform(vcpus, ioapic_pins=KVM_IOAPIC_PINS,
                                  seed=seed))


class TestKVMBundle:
    def test_roundtrip_preserves_architectural_state(self):
        vcpus, platform = _state()
        bundle = formats.encode_bundle(vcpus, platform)
        decoded_vcpus, decoded_platform = formats.decode_bundle(bundle)
        assert ([v.architectural_view() for v in decoded_vcpus]
                == [v.architectural_view() for v in vcpus])
        assert decoded_platform.architectural_view() == platform.architectural_view()

    def test_bundle_has_per_vcpu_ioctls(self):
        vcpus, platform = _state(vcpus=3)
        bundle = formats.encode_bundle(vcpus, platform)
        for i in range(3):
            for ioctl in ("REGS", "SREGS", "MSRS", "LAPIC", "FPU", "XSAVE",
                          "XCRS"):
                assert f"KVM_GET_{ioctl}:{i}" in bundle
        assert "KVM_GET_IRQCHIP" in bundle
        assert "KVM_GET_PIT2" in bundle

    def test_mtrr_travels_inside_msrs(self):
        vcpus, platform = _state(vcpus=1)
        bundle = formats.encode_bundle(vcpus, platform)
        msrs = formats.decode_msrs(bundle["KVM_GET_MSRS:0"])
        assert formats.MSR_MTRR_DEF_TYPE in msrs
        assert formats.MSR_APIC_BASE in msrs
        arch, apic_base, mtrr = formats.split_msrs(msrs)
        assert formats.MSR_MTRR_DEF_TYPE not in arch
        assert mtrr.default_type == platform.mtrr.default_type
        assert mtrr.variable == platform.mtrr.variable

    def test_48_pin_ioapic_rejected(self):
        vcpus, _ = _state(vcpus=1)
        platform48 = make_default_platform(1)  # Xen-sized
        with pytest.raises(StateFormatError):
            formats.encode_bundle(vcpus, platform48)

    def test_pack_unpack_bundle(self):
        vcpus, platform = _state(vcpus=1)
        bundle = formats.encode_bundle(vcpus, platform)
        flat = formats.pack_bundle(bundle)
        assert formats.unpack_bundle(flat) == bundle

    def test_corrupt_flat_blob_rejected(self):
        vcpus, platform = _state(vcpus=1)
        flat = formats.pack_bundle(formats.encode_bundle(vcpus, platform))
        with pytest.raises(StateFormatError):
            formats.unpack_bundle(flat[:-4])

    def test_bundle_size_counts_all_entries(self):
        vcpus, platform = _state(vcpus=1)
        bundle = formats.encode_bundle(vcpus, platform)
        assert formats.bundle_size(bundle) == sum(len(v) for v in bundle.values())

    def test_xcrs_validation(self):
        with pytest.raises(StateFormatError):
            formats.decode_xcrs(b"\x02\x00\x00\x00")


class TestKVMHypervisor:
    def test_identity(self):
        assert KVMHypervisor.kind is HypervisorKind.KVM
        assert KVMHypervisor.hv_type is HypervisorType.TYPE_2

    def test_create_vm_builds_ept_and_vmm(self, m1):
        kvm = KVMHypervisor()
        kvm.boot(m1)
        domain = kvm.create_vm(VMConfig("g", vcpus=1, memory_bytes=GIB))
        assert domain.npt.policy_tag == "kvm-ept"
        assert kvm.vmm_for(domain.domid).domain is domain

    def test_ept_lighter_than_p2m(self, m1, m2):
        from repro.hypervisors import XenHypervisor

        kvm = KVMHypervisor()
        kvm.boot(m1)
        xen = XenHypervisor()
        xen.boot(m2)
        kd = kvm.create_vm(VMConfig("k", vcpus=1, memory_bytes=GIB))
        xd = xen.create_vm(VMConfig("x", vcpus=1, memory_bytes=GIB))
        assert kd.npt.metadata_bytes < xd.npt.metadata_bytes

    def test_cfs_tracks_domains(self, m1):
        kvm = KVMHypervisor()
        kvm.boot(m1)
        d = kvm.create_vm(VMConfig("a", vcpus=4, memory_bytes=GIB))
        assert kvm.scheduler.queued_vcpus() == 4
        kvm.destroy_domain(d.domid)
        assert kvm.scheduler.queued_vcpus() == 0
        with pytest.raises(HypervisorError):
            kvm.vmm_for(d.domid)

    def test_kvmtool_state_roundtrip(self, kvm_host_factory):
        machine = kvm_host_factory(vm_count=1, vcpus=2)
        kvm = machine.hypervisor
        domain = next(iter(kvm.domains.values()))
        vmm = kvm.vmm_for(domain.domid)
        bundle = vmm.read_state_bundle()
        original = [v.architectural_view() for v in domain.vm.vcpus]
        domain.vm.vcpus = [make_boot_vcpu(i, seed=50) for i in range(2)]
        vmm.apply_state_bundle(bundle)
        assert [v.architectural_view() for v in domain.vm.vcpus] == original
        assert vmm.ioctls_issued > 0

    def test_kvmtool_rejects_wrong_vcpu_count(self, kvm_host_factory):
        machine = kvm_host_factory(vm_count=1, vcpus=1)
        kvm = machine.hypervisor
        domain = next(iter(kvm.domains.values()))
        vcpus, platform = _state(vcpus=2)
        bundle = formats.encode_bundle(vcpus, platform)
        with pytest.raises(HypervisorError):
            kvm.vmm_for(domain.domid).apply_state_bundle(bundle)

    def test_scheduler_report_shapes(self, m1):
        kvm = KVMHypervisor()
        kvm.boot(m1)
        kvm.create_vm(VMConfig("a", vcpus=2, memory_bytes=GIB))
        report = kvm.scheduler_report()
        assert report["scheduler"] == "cfs"
        assert report["queued_vcpus"] == 2
