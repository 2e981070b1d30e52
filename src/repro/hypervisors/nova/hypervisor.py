"""The NOVA-like microhypervisor: kernel, NPT policy and scheduler.

A microhypervisor keeps almost everything out of the kernel: per-guest
user-level VMMs own device emulation, and the kernel only multiplexes CPUs
and memory.  Consequences modeled here: the smallest HV State of the three
hypervisors, the fastest boot (one tiny kernel), and a lean NPT with no
extra policy metadata beyond the hardware entries.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.guest.devices import PlatformState
from repro.guest.vcpu import VCPUState
from repro.guest.vm import VirtualMachine
from repro.hw.memory import PAGE_4K
from repro.hypervisors.base import (
    Domain,
    Hypervisor,
    HypervisorKind,
    HypervisorType,
    NestedPageTable,
)
from repro.hypervisors.nova import formats

NOVA_NPT_POLICY = "nova-npt"

# 8 B hardware entry + 4 B capability-range tag per mapping.
_NOVA_BYTES_PER_ENTRY = 12
_NOVA_ROOT_OVERHEAD = PAGE_4K


class NovaNPT(NestedPageTable):
    """NPT with NOVA's capability-range policy."""

    def __init__(self, gfn_to_mfn: Dict[int, int], page_size: int):
        metadata = _NOVA_ROOT_OVERHEAD + _NOVA_BYTES_PER_ENTRY * len(gfn_to_mfn)
        super().__init__(
            gfn_to_mfn=gfn_to_mfn,
            page_size=page_size,
            policy_tag=NOVA_NPT_POLICY,
            metadata_bytes=metadata,
        )


@dataclass
class RRQueueEntry:
    """One scheduling context in the round-robin queue."""

    domid: int
    vcpu_index: int
    priority: int = 1


class PriorityRoundRobin:
    """NOVA's fixed-priority round-robin scheduler (VM Management State)."""

    def __init__(self, cpus: int):
        self.cpus = max(1, cpus)
        self.queues: List[List[RRQueueEntry]] = [[] for _ in range(self.cpus)]
        self._priorities: Dict[int, int] = {}

    def add_domain(self, domid: int, vcpus: int, priority: int = 1) -> None:
        self._priorities[domid] = priority
        for index in range(vcpus):
            queue = self.queues[(domid + 3 * index) % self.cpus]
            queue.append(RRQueueEntry(domid=domid, vcpu_index=index,
                                      priority=priority))

    def remove_domain(self, domid: int) -> None:
        self._priorities.pop(domid, None)
        for i, queue in enumerate(self.queues):
            self.queues[i] = [e for e in queue if e.domid != domid]

    def rebuild(self, domains) -> None:
        priorities = dict(self._priorities)
        self.queues = [[] for _ in range(self.cpus)]
        self._priorities = {}
        for domain in domains:
            self.add_domain(domain.domid, domain.vm.config.vcpus,
                            priority=priorities.get(domain.domid, 1))

    def queued_vcpus(self) -> int:
        return sum(len(q) for q in self.queues)

    def report(self) -> Dict[str, object]:
        return {
            "scheduler": "priority-rr",
            "cpus": self.cpus,
            "queued_vcpus": self.queued_vcpus(),
            "domains": sorted(self._priorities),
        }


class NOVAHypervisor(Hypervisor):
    """Microhypervisor kernel + per-guest user-level VMMs."""

    kind = HypervisorKind.NOVA
    hv_type = HypervisorType.TYPE_1
    ioapic_pins = formats.NOVA_IOAPIC_PINS
    # A microhypervisor kernel is tiny; most state lives in per-guest VMMs
    # (accounted as VM_i overhead), so HV State is the smallest of the three.
    hv_state_bytes = 24 << 20

    #: the micro-reboot starts one small kernel (VMMs launch per guest)
    boot_kernel_count = 1

    def __init__(self):
        super().__init__()
        self.scheduler = PriorityRoundRobin(cpus=1)

    def boot(self, machine) -> None:
        super().boot(machine)
        self.scheduler = PriorityRoundRobin(cpus=machine.spec.threads)

    def build_npt(self, vm: VirtualMachine) -> NestedPageTable:
        return NovaNPT(dict(vm.image.mappings()), vm.image.page_size)

    def save_platform_state(self, domain: Domain) -> bytes:
        blob = formats.encode_snapshot(domain.vm.vcpus, domain.vm.platform)
        domain.native_state_blob = blob
        return blob

    def load_platform_state(self, domain: Domain, blob: bytes) -> None:
        vcpus, platform = formats.decode_snapshot(blob)
        domain.vm.vcpus = vcpus
        domain.vm.platform = platform
        domain.native_state_blob = blob

    # UISR goes through the VMM's snapshot blob.
    def read_vm_state(self, domain: Domain
                      ) -> Tuple[List[VCPUState], PlatformState]:
        return formats.decode_snapshot(self.save_platform_state(domain))

    def write_vm_state(self, domain: Domain, vcpus: List[VCPUState],
                       platform: PlatformState) -> None:
        self.load_platform_state(domain,
                                 formats.encode_snapshot(vcpus, platform))

    def _on_domain_added(self, domain: Domain) -> None:
        self.scheduler.add_domain(domain.domid, domain.vm.config.vcpus)

    def _on_domain_removed(self, domain: Domain) -> None:
        self.scheduler.remove_domain(domain.domid)

    def rebuild_management_state(self) -> None:
        self.scheduler.rebuild(self.domains.values())

    def scheduler_report(self) -> Dict[str, object]:
        return self.scheduler.report()

    def _vmi_fixed_overhead(self) -> int:
        # The per-guest user-level VMM working set rides in VM_i State.
        return 48 << 10
