"""UISR -> KVM restoration (the ``from_uisr_*`` side for KVM).

On restore, the kvmtool process translates each platform device's UISR state
into KVM's internal formats and issues the corresponding ioctls (§4.2.1).
The IOAPIC compat fixup happens here — KVM's 24-pin model cannot accept
Xen's 48-pin table.

Restoration returns the domain the state landed in, after re-pointing the
guest memory: for an InPlaceTP (by-reference map) the frames are looked up
in the PRAM filesystem and mmap'd into the VMM; for MigrationTP (by-value
map) the destination already owns freshly-copied pages and the map is used
for verification only.
"""

from repro.errors import UISRError
from repro.hypervisors.base import Domain, HypervisorKind
from repro.hypervisors.kvm import formats
from repro.hypervisors.kvm.hypervisor import KVMHypervisor
from repro.core.convert.compat import apply_platform_fixups
from repro.core.convert.verify import verify_restore_target
from repro.core.uisr.format import UISRVMState


def from_uisr_kvm(hypervisor: KVMHypervisor, domain: Domain,
                  state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into a KVM domain via kvmtool ioctls."""
    if hypervisor.kind is not HypervisorKind.KVM:
        raise UISRError(f"from_uisr_kvm called on {hypervisor.kind.value}")
    verify_restore_target(
        domain,
        vm_name=state.vm_name,
        vcpu_count=state.vcpu_count,
        memory_bytes=state.memory_bytes,
        devices=state.devices,
    )
    domain.provenance = (state.source_hypervisor, state.version)

    vmm = hypervisor.vmm_for(domain.domid)

    # Memory first: KVM needs the guest memory address before vCPU state.
    if state.memory_map.by_reference:
        if pram_fs is None:
            raise UISRError(
                f"UISR {state.vm_name} references PRAM file "
                f"{state.memory_map.pram_file!r} but no PRAM fs was provided"
            )
        gfn_to_mfn = pram_fs.layout_of(state.memory_map.pram_file)
        vmm.mmap_guest_memory(gfn_to_mfn)

    platform = apply_platform_fixups(
        state.platform.platform, target_ioapic_pins=hypervisor.ioapic_pins
    )
    bundle = formats.encode_bundle(
        [record.vcpu for record in state.vcpus], platform
    )
    vmm.apply_state_bundle(bundle)
    # The EPT must reflect the (possibly adopted) memory layout.
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain
