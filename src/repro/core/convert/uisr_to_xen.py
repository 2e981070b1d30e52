"""UISR -> Xen restoration (the ``from_uisr_*`` side for Xen).

The reverse direction of the paper's focus chapter: KVM -> Xen.  Encodes the
UISR content as a Xen HVM-context blob and loads it through
``xc_domain_hvm_setcontext``.  Xen's 48-pin IOAPIC means a 24-pin table from
KVM is grown with disconnected pins.  For InPlaceTP, guest memory is adopted
through the PRAM filesystem API the paper added to Xen (§4.2.2).
"""

from repro.errors import UISRError
from repro.hypervisors.base import Domain, HypervisorKind
from repro.hypervisors.xen import formats
from repro.hypervisors.xen.hypervisor import XenHypervisor
from repro.core.convert.compat import apply_platform_fixups
from repro.core.convert.verify import verify_restore_target
from repro.core.uisr.format import UISRVMState


def from_uisr_xen(hypervisor: XenHypervisor, domain: Domain,
                  state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into a Xen domain via the toolstack."""
    if hypervisor.kind is not HypervisorKind.XEN:
        raise UISRError(f"from_uisr_xen called on {hypervisor.kind.value}")
    verify_restore_target(
        domain,
        vm_name=state.vm_name,
        vcpu_count=state.vcpu_count,
        memory_bytes=state.memory_bytes,
        devices=state.devices,
    )
    domain.provenance = (state.source_hypervisor, state.version)

    if state.memory_map.by_reference:
        if pram_fs is None:
            raise UISRError(
                f"UISR {state.vm_name} references PRAM file "
                f"{state.memory_map.pram_file!r} but no PRAM fs was provided"
            )
        gfn_to_mfn = pram_fs.layout_of(state.memory_map.pram_file)
        domain.vm.image.adopt_mapping(gfn_to_mfn)

    platform = apply_platform_fixups(
        state.platform.platform, target_ioapic_pins=hypervisor.ioapic_pins
    )
    blob = formats.encode_hvm_context(
        [record.vcpu for record in state.vcpus], platform
    )
    hypervisor.toolstack.xc_domain_hvm_setcontext(domain.domid, blob)
    # The p2m must reflect the (possibly adopted) memory layout.
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain
