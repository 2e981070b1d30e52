"""The NOVA-like microhypervisor.

A microhypervisor keeps almost everything out of the kernel: per-guest
user-level VMMs own device emulation, and the kernel only multiplexes CPUs
and memory.  Consequences modeled here: the smallest HV State of the three
hypervisors, the fastest boot (one tiny kernel), the leanest NPT metadata,
and the largest per-guest VMM overhead.
"""

from typing import List, Tuple

from repro.guest.devices import PlatformState
from repro.guest.vcpu import VCPUState
from repro.hypervisors.base import (
    Domain,
    Hypervisor,
    HypervisorKind,
    HypervisorType,
)
from repro.hypervisors.nova import formats


class NOVAHypervisor(Hypervisor):
    """Microhypervisor kernel + per-guest user-level VMMs."""

    kind = HypervisorKind.NOVA
    hv_type = HypervisorType.TYPE_1
    ioapic_pins = formats.NOVA_IOAPIC_PINS
    # An 8 B hardware entry + a 4 B capability-range tag per mapping.
    npt_policy = "nova-npt"
    npt_bytes_per_page = 12
    npt_root_pages = 1
    # Fixed-priority round robin over scheduling contexts.
    scheduler_name = "priority-rr"
    vcpu_placement = (1, 3)
    # A microhypervisor kernel is tiny; most state lives in per-guest VMMs
    # (accounted as VM_i overhead), so HV State is the smallest of the three.
    hv_state_bytes = 24 << 20
    # The per-guest user-level VMM working set rides in VM_i State.
    vmm_overhead_bytes = 48 << 10

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
