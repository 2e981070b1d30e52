"""Tests for the Xen substrate: formats, NPT, scheduler, toolstack."""

import pytest

from repro.errors import HypervisorError, StateFormatError
from repro.guest.devices import XEN_IOAPIC_PINS, make_default_platform
from repro.guest.vcpu import make_boot_vcpu
from repro.guest.vm import VMConfig
from repro.hypervisors import XenHypervisor
from repro.hypervisors.base import HypervisorKind, HypervisorType
from repro.hypervisors.xen import formats

GIB = 1024 ** 3


def _state(vcpus=2, seed=0):
    return ([make_boot_vcpu(i, seed=seed) for i in range(vcpus)],
            make_default_platform(vcpus, seed=seed))


class TestHVMContext:
    def test_roundtrip_preserves_architectural_state(self):
        vcpus, platform = _state()
        blob = formats.encode_hvm_context(vcpus, platform)
        decoded_vcpus, decoded_platform = formats.decode_hvm_context(blob)
        assert ([v.architectural_view() for v in decoded_vcpus]
                == [v.architectural_view() for v in vcpus])
        assert decoded_platform.architectural_view() == platform.architectural_view()

    def test_blob_starts_with_header_and_ends_with_end(self):
        vcpus, platform = _state(vcpus=1)
        records = formats._unpack_records(
            formats.encode_hvm_context(vcpus, platform)
        )
        assert records[0].typecode == formats.REC_HEADER
        assert records[-1].typecode == formats.REC_END

    def test_ioapic_carries_48_pins(self):
        vcpus, platform = _state(vcpus=1)
        _, decoded = formats.decode_hvm_context(
            formats.encode_hvm_context(vcpus, platform)
        )
        assert decoded.ioapic.pin_count == XEN_IOAPIC_PINS

    def test_truncated_blob_rejected(self):
        vcpus, platform = _state(vcpus=1)
        blob = formats.encode_hvm_context(vcpus, platform)
        with pytest.raises(StateFormatError):
            formats.decode_hvm_context(blob[:-10])

    def test_missing_end_record_rejected(self):
        vcpus, platform = _state(vcpus=1)
        blob = formats.encode_hvm_context(vcpus, platform)
        # Strip the END record (8-byte header + empty payload).
        with pytest.raises(StateFormatError):
            formats.decode_hvm_context(blob[:-8])

    def test_bad_magic_rejected(self):
        vcpus, platform = _state(vcpus=1)
        blob = bytearray(formats.encode_hvm_context(vcpus, platform))
        blob[8] ^= 0xFF  # corrupt the header payload's magic
        with pytest.raises(StateFormatError):
            formats.decode_hvm_context(bytes(blob))

    def test_vcpu_count_mismatch_rejected(self):
        vcpus, platform = _state(vcpus=2)
        with pytest.raises(StateFormatError):
            formats.encode_hvm_context(vcpus[:1], platform)


class TestXenHypervisor:
    def test_identity(self):
        assert XenHypervisor.kind is HypervisorKind.XEN
        assert XenHypervisor.hv_type is HypervisorType.TYPE_1

    def test_boot_installs_on_machine(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        assert m1.hypervisor is xen
        assert xen.dom0_online

    def test_double_boot_rejected(self, m1):
        XenHypervisor().boot(m1)
        with pytest.raises(HypervisorError):
            XenHypervisor().boot(m1)

    def test_create_vm_builds_p2m(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("g", vcpus=1, memory_bytes=GIB))
        assert domain.npt.policy_tag == "xen-p2m"
        assert len(domain.npt.gfn_to_mfn) == 512
        assert domain.npt.lookup(5) == domain.vm.image.mfn_of(5)

    def test_scheduler_tracks_domains(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        d1 = xen.create_vm(VMConfig("a", vcpus=2, memory_bytes=GIB))
        xen.create_vm(VMConfig("b", vcpus=3, memory_bytes=GIB))
        assert xen.scheduler.queued_vcpus() == 5
        xen.destroy_domain(d1.domid)
        assert xen.scheduler.queued_vcpus() == 3

    def test_rebuild_management_state(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        xen.create_vm(VMConfig("a", vcpus=2, memory_bytes=GIB))
        before = xen.scheduler.queued_vcpus()
        xen.rebuild_management_state()
        assert xen.scheduler.queued_vcpus() == before

    def test_toolstack_get_set_context(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("g", vcpus=2, memory_bytes=GIB))
        blob = xen.toolstack.xc_domain_hvm_getcontext(domain.domid)
        original = [v.architectural_view() for v in domain.vm.vcpus]
        domain.vm.vcpus = [make_boot_vcpu(i, seed=99) for i in range(2)]
        xen.toolstack.xc_domain_hvm_setcontext(domain.domid, blob)
        assert [v.architectural_view() for v in domain.vm.vcpus] == original

    def test_toolstack_domain_by_name(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        xen.create_vm(VMConfig("findme", vcpus=1, memory_bytes=GIB))
        assert xen.toolstack.domain_by_name("findme").vm.name == "findme"
        with pytest.raises(HypervisorError):
            xen.toolstack.domain_by_name("ghost")

    def test_memory_report_categories(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        xen.create_vm(VMConfig("g", vcpus=1, memory_bytes=GIB))
        report = xen.memory_report()
        assert report.guest_state == GIB
        assert report.vmi_state > 0
        assert report.management_state > 0
        assert report.hv_state == XenHypervisor.hv_state_bytes

    def test_detach_keeps_vm_alive(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("g", vcpus=1, memory_bytes=GIB))
        vm = xen.detach_domain(domain.domid)
        assert vm.name == "g"
        assert not xen.domains
        assert vm.image.size_bytes == GIB  # still allocated

    def test_shutdown_requires_no_domains(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        xen.create_vm(VMConfig("g", vcpus=1, memory_bytes=GIB))
        with pytest.raises(HypervisorError):
            xen.shutdown()
