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
from repro.guest.vm import VirtualMachine
from repro.hypervisors.base import (
    Domain,
    Hypervisor,
    HypervisorKind,
    HypervisorType,
    NestedPageTable,
)
from repro.hypervisors.kvm import formats
from repro.hypervisors.kvm.kvmtool import KvmtoolVMM
from repro.hypervisors.kvm.npt import build_ept
from repro.hypervisors.kvm.scheduler import CFSScheduler


class KVMHypervisor(Hypervisor):
    """Linux 5.3 + kvm module, with kvmtool as the per-VM VMM."""

    kind = HypervisorKind.KVM
    hv_type = HypervisorType.TYPE_2
    ioapic_pins = formats.KVM_IOAPIC_PINS
    # Host Linux working set + kvm module (HV State).
    hv_state_bytes = 80 << 20

    #: number of kernels the micro-reboot path must start (just Linux)
    boot_kernel_count = 1

    def __init__(self):
        super().__init__()
        self.scheduler = CFSScheduler(cpus=1)
        self.vmms: Dict[int, KvmtoolVMM] = {}

    # -- lifecycle ---------------------------------------------------------

    def boot(self, machine) -> None:
        super().boot(machine)
        self.scheduler = CFSScheduler(cpus=machine.spec.threads)

    # -- NPT -----------------------------------------------------------------

    def build_npt(self, vm: VirtualMachine) -> NestedPageTable:
        return build_ept(vm)

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

    # -- VM management state ----------------------------------------------------

    def _on_domain_added(self, domain: Domain) -> None:
        self.scheduler.add_domain(domain.domid, domain.vm.config.vcpus)
        self.vmms[domain.domid] = KvmtoolVMM(self, domain)

    def _on_domain_removed(self, domain: Domain) -> None:
        self.scheduler.remove_domain(domain.domid)
        self.vmms.pop(domain.domid, None)

    def rebuild_management_state(self) -> None:
        """Reconstruct CFS runqueues from VM_i states (post-transplant)."""
        self.scheduler.rebuild(self.domains.values())

    def scheduler_report(self) -> Dict[str, object]:
        return self.scheduler.report()
