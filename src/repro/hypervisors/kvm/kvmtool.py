"""kvmtool — the lightweight user-space VMM.

The paper picked kvmtool over QEMU on the KVM side and extended it to
understand UISR (§4.2.1): on restore, the kvmtool process translates each
platform device's UISR state into KVM's internal formats and issues the
corresponding ioctl.  kvmtool's small size is also why MigrationTP's
stop-and-copy downtime (4.96 ms) undercuts Xen's (133 ms, Table 4).

Here the VMM is the object that owns a domain's ioctl traffic: it applies
state bundles ioctl-by-ioctl and maps guest memory into its address space
(``mmap``-style) from a PRAM-provided layout.
"""

from typing import Dict, Optional

from repro.errors import HypervisorError
from repro.hypervisors.base import Domain
from repro.hypervisors.kvm import formats


class KvmtoolVMM:
    """One kvmtool process, bound to one domain on a KVM host."""

    def __init__(self, hypervisor, domain: Domain):
        self._hv = hypervisor
        self.domain = domain
        self.mapped_guest_base: Optional[int] = None
        self.ioctls_issued = 0

    def mmap_guest_memory(self, gfn_to_mfn: Dict[int, int]) -> None:
        """Map the guest's (preserved) memory into the VMM address space.

        For InPlaceTP Xen→KVM the paper simply mmaps the PRAM-described
        memory and hands the address to KVM (§4.2.2); here we adopt the
        GFN->MFN layout into the guest image and remember the mapping base.
        """
        self.domain.vm.image.adopt_mapping(gfn_to_mfn)
        self.mapped_guest_base = min(gfn_to_mfn.values(), default=0)

    def apply_state_bundle(self, bundle: formats.KVMStateBundle) -> int:
        """Issue one ioctl per bundle entry; returns the ioctl count."""
        vcpus, platform = formats.decode_bundle(bundle)
        vm = self.domain.vm
        if len(vcpus) != vm.config.vcpus:
            raise HypervisorError(
                f"bundle has {len(vcpus)} vCPUs, domain expects "
                f"{vm.config.vcpus}"
            )
        vm.vcpus = vcpus
        vm.platform = platform
        self.ioctls_issued += len(bundle)
        self.domain.native_state_blob = formats.pack_bundle(bundle)
        return len(bundle)

    def read_state_bundle(self) -> formats.KVMStateBundle:
        """Collect the domain's current state via GET ioctls."""
        vm = self.domain.vm
        bundle = formats.encode_bundle(vm.vcpus, vm.platform)
        self.ioctls_issued += len(bundle)
        return bundle
