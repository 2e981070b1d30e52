"""The UISR converter pair and the cross-hypervisor fixups.

``to_uisr``/``from_uisr`` are written once for the whole repertoire: they
reach a hypervisor's VM_i State only through its own state methods
(``read_vm_state``, ``write_vm_state``, ``map_guest_memory``), so each
hypervisor's expert handles only their native format — the paper's
division of labour (§3.1) — and adding a hypervisor needs no converter.

* :mod:`compat` — the cross-hypervisor fixups (IOAPIC 48->24 pins, etc.).
* :mod:`verify` — the restore-side checks of a document against its
  target domain.
"""

from typing import List, Optional

from repro.errors import UISRError
from repro.devices.model import transplant_strategy_for
from repro.hypervisors.base import Domain, Hypervisor
from repro.core.convert.compat import (
    ioapic_shrink_to,
    ioapic_grow_to,
    apply_platform_fixups,
)
from repro.core.convert.verify import verify_restore_target
from repro.core.uisr.format import (
    UISR_VERSION,
    UISRDeviceState,
    UISRMemoryChunk,
    UISRMemoryMap,
    UISRPlatform,
    UISRVCpu,
    UISRVMState,
)


def _memory_map_for(domain: Domain, pram_file: Optional[str]) -> UISRMemoryMap:
    image = domain.vm.image
    if pram_file is not None:
        return UISRMemoryMap(
            page_size=image.page_size,
            total_bytes=image.size_bytes,
            pram_file=pram_file,
        )
    order = (image.page_size // 4096).bit_length() - 1
    chunks = [
        UISRMemoryChunk(gfn=gfn, mfn=mfn, order=order)
        for gfn, mfn in image.mappings()
    ]
    return UISRMemoryMap(
        page_size=image.page_size,
        total_bytes=image.size_bytes,
        chunks=chunks,
    )


def _device_states(domain: Domain) -> List[UISRDeviceState]:
    states = []
    for driver in domain.vm.devices:
        strategy, payload = transplant_strategy_for(driver)
        states.append(UISRDeviceState(
            name=driver.name,
            device_class=type(driver).__name__,
            strategy=strategy,
            payload=payload,
        ))
    return states


def to_uisr(hypervisor: Hypervisor, domain: Domain,
            pram_file: Optional[str] = None) -> UISRVMState:
    """Translate ``domain``'s VM_i State into UISR.

    The memory map is attached by PRAM reference when ``pram_file`` is
    given (InPlaceTP) and as an explicit chunk list otherwise
    (MigrationTP).
    """
    vcpus, platform = hypervisor.read_vm_state(domain)
    return UISRVMState(
        version=UISR_VERSION,
        vm_name=domain.vm.name,
        vcpu_count=domain.vm.config.vcpus,
        memory_bytes=domain.vm.image.size_bytes,
        source_hypervisor=hypervisor.kind.value,
        vcpus=[UISRVCpu(v) for v in vcpus],
        platform=UISRPlatform(platform),
        memory_map=_memory_map_for(domain, pram_file),
        devices=_device_states(domain),
    )


def from_uisr(hypervisor: Hypervisor, domain: Domain,
              state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into ``domain`` on ``hypervisor``.

    Guest memory comes first: a by-reference map (InPlaceTP) is looked up
    in the PRAM filesystem and mapped into the domain; a by-value map
    (MigrationTP) describes pages the destination already owns.  The
    platform is then fixed up to the hypervisor's IOAPIC size and loaded
    through its native restore path.
    """
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
        hypervisor.map_guest_memory(domain, gfn_to_mfn)

    platform = apply_platform_fixups(
        state.platform.platform, target_ioapic_pins=hypervisor.ioapic_pins
    )
    hypervisor.write_vm_state(
        domain, [record.vcpu for record in state.vcpus], platform
    )
    # The NPT must reflect the (possibly adopted) memory layout.
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain


__all__ = [
    "to_uisr",
    "from_uisr",
    "ioapic_shrink_to",
    "ioapic_grow_to",
    "apply_platform_fixups",
]
