"""Tests for the UISR converter pair and the compat fixups."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import UISRError
from repro.guest.devices import (
    IOAPICPin,
    IOAPICState,
    KVM_IOAPIC_PINS,
    XEN_IOAPIC_PINS,
    make_default_platform,
)
from repro.guest.drivers import EmulatedDriver, NetworkDriver
from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, Machine
from repro.hypervisors import make_hypervisor
from repro.hypervisors.base import HypervisorKind
from repro.core.convert import (
    apply_platform_fixups,
    from_uisr,
    ioapic_grow_to,
    ioapic_shrink_to,
    to_uisr,
)
from repro.core.pram import PRAMFilesystem
from repro.core.uisr.codec import encode_uisr
from tests.oracles import FORMER_CONVERTERS


class TestIOAPICFixups:
    def test_shrink_drops_high_pins(self):
        ioapic = make_default_platform(1).ioapic
        shrunk = ioapic_shrink_to(ioapic, KVM_IOAPIC_PINS)
        assert shrunk.pin_count == KVM_IOAPIC_PINS
        assert shrunk.pins == ioapic.pins[:KVM_IOAPIC_PINS]

    def test_shrink_refuses_live_routes(self):
        pins = [IOAPICPin() for _ in range(48)]
        pins[40] = IOAPICPin(vector=0x55, masked=False)
        with pytest.raises(UISRError):
            ioapic_shrink_to(IOAPICState(pins=pins), KVM_IOAPIC_PINS)

    def test_shrink_below_zero_rejected(self):
        with pytest.raises(UISRError):
            ioapic_shrink_to(IOAPICState(pins=[IOAPICPin()]), 0)

    def test_grow_pads_with_disconnected_pins(self):
        ioapic = make_default_platform(
            1, ioapic_pins=KVM_IOAPIC_PINS
        ).ioapic
        grown = ioapic_grow_to(ioapic, XEN_IOAPIC_PINS)
        assert grown.pin_count == XEN_IOAPIC_PINS
        for pin in grown.pins[KVM_IOAPIC_PINS:]:
            assert pin.masked and pin.vector == 0

    def test_grow_smaller_rejected(self):
        ioapic = make_default_platform(1).ioapic
        with pytest.raises(UISRError):
            ioapic_grow_to(ioapic, KVM_IOAPIC_PINS)

    def test_shrink_then_grow_preserves_low_pins(self):
        ioapic = make_default_platform(1).ioapic
        roundtrip = ioapic_grow_to(
            ioapic_shrink_to(ioapic, KVM_IOAPIC_PINS), XEN_IOAPIC_PINS
        )
        assert (roundtrip.redirection_view()[:KVM_IOAPIC_PINS]
                == ioapic.redirection_view()[:KVM_IOAPIC_PINS])

    def test_apply_platform_fixups_does_not_mutate_input(self):
        platform = make_default_platform(1)
        fixed = apply_platform_fixups(platform, KVM_IOAPIC_PINS)
        assert platform.ioapic.pin_count == XEN_IOAPIC_PINS
        assert fixed.ioapic.pin_count == KVM_IOAPIC_PINS


class TestXenToKVM:
    def test_full_conversion_preserves_architectural_subset(
            self, xen_host_factory, kvm_host_factory):
        source = xen_host_factory(vm_count=1, vcpus=2)
        xen = source.hypervisor
        domain = next(iter(xen.domains.values()))
        original_vcpus = [v.architectural_view() for v in domain.vm.vcpus]

        uisr = to_uisr(xen, domain, pram_file=None)
        assert uisr.source_hypervisor == "xen"
        assert not uisr.memory_map.by_reference

        dest = kvm_host_factory(vm_count=1, vcpus=2)
        kvm = dest.hypervisor
        kvm_domain = next(iter(kvm.domains.values()))
        from_uisr(kvm, kvm_domain, uisr, pram_fs=None)

        assert ([v.architectural_view() for v in kvm_domain.vm.vcpus]
                == original_vcpus)
        assert kvm_domain.vm.platform.ioapic.pin_count == KVM_IOAPIC_PINS
        # Low 24 pins survive the shrink.
        assert (kvm_domain.vm.platform.ioapic.redirection_view()
                == domain.vm.platform.ioapic.redirection_view()[:KVM_IOAPIC_PINS])

    def test_vcpu_count_mismatch_rejected(self, xen_host_factory,
                                          kvm_host_factory):
        source = xen_host_factory(vm_count=1, vcpus=2)
        xen = source.hypervisor
        uisr = to_uisr(xen, next(iter(xen.domains.values())))
        dest = kvm_host_factory(vm_count=1, vcpus=1)
        kvm = dest.hypervisor
        with pytest.raises(UISRError):
            from_uisr(kvm, next(iter(kvm.domains.values())), uisr)

    def test_by_reference_requires_pram(self, xen_host_factory,
                                        kvm_host_factory):
        source = xen_host_factory(vm_count=1)
        xen = source.hypervisor
        domain = next(iter(xen.domains.values()))
        uisr = to_uisr(xen, domain, pram_file=domain.vm.name)
        dest = kvm_host_factory(vm_count=1)
        kvm = dest.hypervisor
        with pytest.raises(UISRError):
            from_uisr(kvm, next(iter(kvm.domains.values())), uisr,
                      pram_fs=None)


class TestKVMToXen:
    def test_full_conversion_grows_ioapic(self, kvm_host_factory,
                                          xen_host_factory):
        source = kvm_host_factory(vm_count=1, vcpus=2)
        kvm = source.hypervisor
        domain = next(iter(kvm.domains.values()))
        original_vcpus = [v.architectural_view() for v in domain.vm.vcpus]

        uisr = to_uisr(kvm, domain, pram_file=None)
        assert uisr.source_hypervisor == "kvm"

        dest = xen_host_factory(vm_count=1, vcpus=2)
        xen = dest.hypervisor
        xen_domain = next(iter(xen.domains.values()))
        from_uisr(xen, xen_domain, uisr, pram_fs=None)

        assert ([v.architectural_view() for v in xen_domain.vm.vcpus]
                == original_vcpus)
        assert xen_domain.vm.platform.ioapic.pin_count == XEN_IOAPIC_PINS

    def test_double_roundtrip_stabilizes(self, xen_host_factory,
                                         kvm_host_factory):
        """Xen->UISR->KVM->UISR->Xen preserves the surviving 24-pin subset
        and every other architectural field exactly."""
        source = xen_host_factory(vm_count=1, vcpus=2)
        xen = source.hypervisor
        xen_domain = next(iter(xen.domains.values()))
        uisr1 = to_uisr(xen, xen_domain)

        mid = kvm_host_factory(vm_count=1, vcpus=2)
        kvm = mid.hypervisor
        kvm_domain = next(iter(kvm.domains.values()))
        from_uisr(kvm, kvm_domain, uisr1)
        uisr2 = to_uisr(kvm, kvm_domain)

        dest = xen_host_factory(vm_count=1, vcpus=2, name="final")
        xen2 = dest.hypervisor
        final = next(iter(xen2.domains.values()))
        from_uisr(xen2, final, uisr2)

        assert ([v.architectural_view() for v in final.vm.vcpus]
                == [v.architectural_view() for v in xen_domain.vm.vcpus])
        original_pins = xen_domain.vm.platform.ioapic.redirection_view()
        final_pins = final.vm.platform.ioapic.redirection_view()
        assert final_pins[:KVM_IOAPIC_PINS] == original_pins[:KVM_IOAPIC_PINS]


# -- the one pair against the former per-hypervisor pairs ---------------------

ORDERED_PAIRS = [(a, b) for a in HypervisorKind for b in HypervisorKind
                 if a is not b]
MB = 1 << 20


def _domain(kind, name, vcpus, memory_mib, seed, devices):
    machine = Machine(M1_SPEC, name=name)
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(machine)
    domain = hypervisor.create_vm(VMConfig(
        "vm0", vcpus=vcpus, memory_bytes=memory_mib * MB, seed=seed,
    ))
    if devices:
        domain.vm.attach_device(NetworkDriver("net0"))
        domain.vm.attach_device(EmulatedDriver("blk0", vmm_state_bytes=512))
    return hypervisor, domain


def _native_view(hypervisor, domain):
    """What a translation leaves in a domain, read before the final
    ``save_platform_state`` (which rewrites the blob and, on KVM, counts
    its GET ioctls)."""
    view = [domain.native_state_blob, domain.provenance,
            list(domain.vm.image.mappings()), domain.npt.gfn_to_mfn]
    if hypervisor.kind is HypervisorKind.KVM:
        vmm = hypervisor.vmm_for(domain.domid)
        view += [vmm.ioctls_issued, vmm.mapped_guest_base]
    return view + [hypervisor.save_platform_state(domain)]


def _translate(to_uisr_fn, from_uisr_fn, kinds, vcpus, memory_mib, seed,
               devices, by_reference):
    source, source_domain = _domain(kinds[0], "src", vcpus, memory_mib,
                                    seed, devices)
    pram = None
    if by_reference:
        # InPlaceTP's memory hand-over: the guest frames described in PRAM.
        image = source_domain.vm.image
        pram = PRAMFilesystem(source.machine.memory)
        pram.add_vm_file("vm0", image.mappings(), page_size=image.page_size)
    document = to_uisr_fn(source, source_domain,
                          pram_file="vm0" if by_reference else None)
    encoded = encode_uisr(document)
    dest, dest_domain = _domain(kinds[1], "dst", vcpus, memory_mib,
                                seed + 1, devices)
    restored = from_uisr_fn(dest, dest_domain, document, pram_fs=pram)
    assert restored is dest_domain
    return (encoded, _native_view(source, source_domain),
            _native_view(dest, dest_domain))


@given(kinds=st.sampled_from(ORDERED_PAIRS), vcpus=st.integers(1, 4),
       memory_mib=st.sampled_from([16, 64, 256]),
       seed=st.integers(0, 2 ** 16), devices=st.booleans(),
       by_reference=st.booleans())
@example(kinds=(HypervisorKind.XEN, HypervisorKind.KVM), vcpus=2,
         memory_mib=64, seed=0, devices=True, by_reference=True)
@example(kinds=(HypervisorKind.KVM, HypervisorKind.NOVA), vcpus=4,
         memory_mib=16, seed=3, devices=False, by_reference=False)
@settings(max_examples=80, deadline=None)
def test_pair_matches_former_converters(kinds, vcpus, memory_mib, seed,
                                        devices, by_reference):
    """``to_uisr``/``from_uisr`` translate exactly like the former
    ``to_uisr_<kind>``/``from_uisr_<kind>`` pairs: same UISR bytes, and
    the same native state, provenance, memory layout and kvmtool traffic
    on both sides."""
    shape = (kinds, vcpus, memory_mib, seed, devices, by_reference)
    former = _translate(FORMER_CONVERTERS[kinds[0]][0],
                        FORMER_CONVERTERS[kinds[1]][1], *shape)
    current = _translate(to_uisr, from_uisr, *shape)
    assert current == former
