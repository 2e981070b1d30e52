"""NOVA <-> UISR converters.

The entirety of what "adding a hypervisor to the repertoire" costs under
the UISR design (§3.1): this one module, registered once.  Neither the Xen
nor the KVM code knows NOVA exists, yet all six transplant directions work.
"""

from typing import Optional

from repro.errors import UISRError
from repro.hypervisors.base import Domain, HypervisorKind
from repro.hypervisors.nova import formats
from repro.hypervisors.nova.hypervisor import NOVAHypervisor
from repro.core.convert.compat import apply_platform_fixups
from repro.core.convert.verify import verify_restore_target
from repro.core.convert.xen_to_uisr import _device_states, _memory_map_for
from repro.core.uisr.format import (
    UISR_VERSION,
    UISRPlatform,
    UISRVCpu,
    UISRVMState,
)


def to_uisr_nova(hypervisor: NOVAHypervisor, domain: Domain,
                 pram_file: Optional[str] = None) -> UISRVMState:
    """Translate a NOVA domain's VM_i State into UISR."""
    if hypervisor.kind is not HypervisorKind.NOVA:
        raise UISRError(f"to_uisr_nova called on {hypervisor.kind.value}")
    blob = hypervisor.save_platform_state(domain)
    vcpus, platform = formats.decode_snapshot(blob)
    return UISRVMState(
        version=UISR_VERSION,
        vm_name=domain.vm.name,
        vcpu_count=domain.vm.config.vcpus,
        memory_bytes=domain.vm.image.size_bytes,
        source_hypervisor=HypervisorKind.NOVA.value,
        vcpus=[UISRVCpu(v) for v in vcpus],
        platform=UISRPlatform(platform),
        memory_map=_memory_map_for(domain, pram_file),
        devices=_device_states(domain),
    )


def from_uisr_nova(hypervisor: NOVAHypervisor, domain: Domain,
                   state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into a NOVA domain."""
    if hypervisor.kind is not HypervisorKind.NOVA:
        raise UISRError(f"from_uisr_nova called on {hypervisor.kind.value}")
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
    blob = formats.encode_snapshot(
        [record.vcpu for record in state.vcpus], platform
    )
    hypervisor.load_platform_state(domain, blob)
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain
