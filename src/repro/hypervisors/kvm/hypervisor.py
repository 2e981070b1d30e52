"""The KVM-like type-II hypervisor (host Linux + kvm module + kvmtool).

A single kernel boots on micro-reboot (versus Xen's hypervisor + dom0 pair),
which is the structural reason InPlaceTP *into* KVM is the fast direction
(Fig. 6 vs Fig. 10).  Per-domain user-space VMMs (:class:`KvmtoolVMM`) own the
ioctl traffic.
"""

from typing import Dict, List, Tuple

from repro.errors import HypervisorError
from repro.guest.devices import PlatformState
from repro.guest.vcpu import VCPUState
from repro.hypervisors.base import (
    Domain,
    Hypervisor,
    HypervisorKind,
    HypervisorType,
)
from repro.hypervisors.kvm import formats
from repro.hypervisors.kvm.kvmtool import KvmtoolVMM


class KVMHypervisor(Hypervisor):
    """Linux 5.3 + kvm module, with kvmtool as the per-VM VMM."""

    kind = HypervisorKind.KVM
    hv_type = HypervisorType.TYPE_2
    ioapic_pins = formats.KVM_IOAPIC_PINS
    # KVM's EPT keeps an 8 B entry and an 8 B host-side rmap slot per
    # mapped page, lighter than Xen's p2m.
    npt_policy = "kvm-ept"
    npt_bytes_per_page = 16
    npt_root_pages = 2
    # vCPUs are host threads on CFS runqueues.
    scheduler_name = "cfs"
    vcpu_placement = (7, 1)
    # Host Linux working set + kvm module (HV State).
    hv_state_bytes = 80 << 20

    def __init__(self):
        super().__init__()
        self.vmms: Dict[int, KvmtoolVMM] = {}

    # -- platform state (via kvmtool) -----------------------------------------

    def vmm_for(self, domid: int) -> KvmtoolVMM:
        try:
            return self.vmms[domid]
        except KeyError:
            raise HypervisorError(f"no kvmtool VMM for domain {domid}") from None

    def save_platform_state(self, domain: Domain) -> bytes:
        bundle = self.vmm_for(domain.domid).read_state_bundle()
        blob = formats.pack_bundle(bundle)
        domain.native_state_blob = blob
        return blob

    def load_platform_state(self, domain: Domain, blob: bytes) -> None:
        bundle = formats.unpack_bundle(blob)
        self.vmm_for(domain.domid).apply_state_bundle(bundle)

    # UISR goes through kvmtool's GET/SET ioctls (§4.2.1).
    def read_vm_state(self, domain: Domain
                      ) -> Tuple[List[VCPUState], PlatformState]:
        bundle = self.vmm_for(domain.domid).read_state_bundle()
        return formats.decode_bundle(bundle)

    def write_vm_state(self, domain: Domain, vcpus: List[VCPUState],
                       platform: PlatformState) -> None:
        bundle = formats.encode_bundle(vcpus, platform)
        self.vmm_for(domain.domid).apply_state_bundle(bundle)

    def map_guest_memory(self, domain: Domain,
                         gfn_to_mfn: Dict[int, int]) -> None:
        # kvmtool mmaps the PRAM-described memory and hands it to KVM.
        self.vmm_for(domain.domid).mmap_guest_memory(gfn_to_mfn)

    # -- one kvmtool VMM per domain ---------------------------------------------

    def _on_domain_added(self, domain: Domain) -> None:
        self.vmms[domain.domid] = KvmtoolVMM(self, domain)

    def _on_domain_removed(self, domain: Domain) -> None:
        self.vmms.pop(domain.domid, None)
