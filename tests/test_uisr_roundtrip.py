"""Round-trip regression over the whole repertoire.

For each ordered pair (A, B) of hypervisors, a synthetic VM's state
travels A -> UISR -> B -> UISR -> A and must come back field-for-field
identical — vCPU architectural state, MTRR, PIT and XSAVE
exactly; the IOAPIC up to the smaller pin count (pins above it are dropped
by the documented compat fixup).  This pins down §3.1's lossless-translation
claim for the whole repertoire, not just the Xen/KVM pair the focused tests
cover, and exercises the restore-side target verification.
"""

import dataclasses

import pytest

from repro.errors import UISRError
from repro.guest.drivers import NetworkDriver
from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, Machine
from repro.hypervisors import HYPERVISOR_CLASSES, make_hypervisor
from repro.hypervisors.base import HypervisorKind
from repro.core.convert import from_uisr, to_uisr
from repro.core.uisr.format import UISR_VERSION, UISRDeviceState

GIB = 1024 ** 3

def make_host(kind, name, vcpus=2, memory_gib=1.0, seed=7):
    """One booted hypervisor of ``kind`` with a single seeded guest."""
    machine = Machine(M1_SPEC, name=name)
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(machine)
    domain = hypervisor.create_vm(VMConfig(
        name=f"{name}-vm0", vcpus=vcpus,
        memory_bytes=int(memory_gib * GIB), seed=seed,
    ))
    return hypervisor, domain


def ordered_pairs():
    kinds = sorted(HypervisorKind, key=lambda kind: kind.value)
    return [(a, b) for a in kinds for b in kinds if a is not b]


def vm_view(domain):
    """Everything the round-trip must preserve, minus the IOAPIC."""
    platform = domain.vm.platform
    return (
        [v.architectural_view() for v in domain.vm.vcpus],
        [l.registers_view() for l in platform.lapics],
        platform.pit.view(),
        platform.mtrr.view(),
        [x.view() for x in platform.xsave],
    )


@pytest.mark.parametrize(
    "source_kind,via_kind", ordered_pairs(),
    ids=[f"{a.value}-{b.value}" for a, b in ordered_pairs()],
)
class TestEveryPairRoundTrips:
    def test_state_survives_round_trip(self, source_kind, via_kind):
        source, source_domain = make_host(source_kind, "src")
        original = vm_view(source_domain)
        original_pins = (source_domain.vm.platform.ioapic
                         .redirection_view())

        uisr_out = to_uisr(source, source_domain)
        via, via_domain = make_host(via_kind, "via")
        from_uisr(via, via_domain, uisr_out)

        uisr_back = to_uisr(via, via_domain)
        dest, dest_domain = make_host(source_kind, "dst")
        from_uisr(dest, dest_domain, uisr_back)

        assert vm_view(dest_domain) == original
        surviving = min(HYPERVISOR_CLASSES[source_kind].ioapic_pins,
                        HYPERVISOR_CLASSES[via_kind].ioapic_pins)
        final_pins = dest_domain.vm.platform.ioapic.redirection_view()
        assert final_pins[:surviving] == original_pins[:surviving]

    def test_provenance_recorded_on_restore(self, source_kind, via_kind):
        source, source_domain = make_host(source_kind, "src")
        assert source_domain.provenance is None  # native creation

        uisr = to_uisr(source, source_domain)
        via, via_domain = make_host(via_kind, "via")
        from_uisr(via, via_domain, uisr)
        assert via_domain.provenance == (source_kind.value, UISR_VERSION)

        uisr_back = to_uisr(via, via_domain)
        dest, dest_domain = make_host(source_kind, "dst")
        from_uisr(dest, dest_domain, uisr_back)
        assert dest_domain.provenance == (via_kind.value, UISR_VERSION)


class TestRestoreTargetVerification:
    def test_memory_size_mismatch_rejected(self):
        source, source_domain = make_host(HypervisorKind.XEN, "src",
                                          memory_gib=1.0)
        uisr = to_uisr(source, source_domain)
        dest, dest_domain = make_host(HypervisorKind.KVM, "dst",
                                      memory_gib=2.0)
        with pytest.raises(UISRError, match="memory size"):
            from_uisr(dest, dest_domain, uisr)

    def test_unknown_device_strategy_rejected(self):
        source, source_domain = make_host(HypervisorKind.XEN, "src")
        uisr = to_uisr(source, source_domain)
        bad = dataclasses.replace(
            uisr,
            devices=[UISRDeviceState(name="net0", device_class="net",
                                     strategy="teleport")],
        )
        dest, dest_domain = make_host(HypervisorKind.KVM, "dst")
        with pytest.raises(UISRError, match="unknown transplant strategy"):
            from_uisr(dest, dest_domain, bad)

    def test_device_without_attached_driver_rejected(self):
        source, source_domain = make_host(HypervisorKind.XEN, "src")
        source_domain.vm.attach_device(NetworkDriver("net0"))
        uisr = to_uisr(source, source_domain)
        assert [d.name for d in uisr.devices] == ["net0"]
        # The destination VM never had net0 attached.
        dest, dest_domain = make_host(HypervisorKind.KVM, "dst")
        with pytest.raises(UISRError, match="no [\\s\\S]*attached driver"):
            from_uisr(dest, dest_domain, uisr)

    def test_device_records_travel_and_verify(self):
        source, source_domain = make_host(HypervisorKind.XEN, "src")
        driver = NetworkDriver("net0")
        source_domain.vm.attach_device(driver)
        uisr = to_uisr(source, source_domain)
        assert uisr.devices[0].strategy == "unplug-rescan"

        dest, dest_domain = make_host(HypervisorKind.KVM, "dst")
        dest_domain.vm.attach_device(NetworkDriver("net0"))
        restored = from_uisr(dest, dest_domain, uisr)
        assert restored is dest_domain
        assert restored.provenance == ("xen", UISR_VERSION)
