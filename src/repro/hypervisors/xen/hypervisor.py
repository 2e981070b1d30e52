"""The Xen-like type-I hypervisor.

Xen is a standalone hypervisor kernel that boots an administration VM (dom0)
on top of itself — which is why InPlaceTP *into* Xen is slower than into KVM:
the micro-reboot must bring up two kernels (§5.2.2, Fig. 10).  Boot-path
timing lives in the cost model (:mod:`repro.core.timings`); this class models
structure and state.
"""

from typing import Dict, List, Tuple

from repro.guest.devices import XEN_IOAPIC_PINS, PlatformState
from repro.guest.vcpu import VCPUState
from repro.hypervisors.base import (
    Domain,
    Hypervisor,
    HypervisorKind,
    HypervisorType,
)
from repro.hypervisors.xen import formats
from repro.hypervisors.xen.events import EventChannelTable, GrantTable
from repro.hypervisors.xen.toolstack import XenToolstack

# Standard VIRQ numbers (subset).
VIRQ_TIMER = 0
VIRQ_DEBUG = 1


class XenHypervisor(Hypervisor):
    """Xen 4.12-like HVM hypervisor with dom0 and a credit scheduler."""

    kind = HypervisorKind.XEN
    hv_type = HypervisorType.TYPE_1
    ioapic_pins = XEN_IOAPIC_PINS
    # Xen's p2m keeps, per mapped page, an 8 B PTE, an 8 B m2p reverse
    # entry and type/accounting tags (its PV heritage).
    npt_policy = "xen-p2m"
    npt_bytes_per_page = 24
    npt_root_pages = 4
    scheduler_name = "credit"
    vcpu_placement = (1, 1)
    # Xen hypervisor heap + dom0 kernel working set (HV State).
    hv_state_bytes = 96 << 20

    def __init__(self):
        super().__init__()
        self.toolstack = XenToolstack(self)
        self.dom0_online = False
        # PV plumbing: event channels (host-wide) and per-domain grant
        # tables.  HVM guests use these through their PV drivers; both are
        # Xen-only VM_i State, torn down (not translated) at transplant.
        self.event_channels = EventChannelTable()
        self.grant_tables: Dict[int, GrantTable] = {}

    # -- lifecycle ---------------------------------------------------------

    def boot(self, machine) -> None:
        super().boot(machine)
        self.dom0_online = True

    def shutdown(self) -> None:
        self.dom0_online = False
        super().shutdown()

    # -- platform state --------------------------------------------------------

    def save_platform_state(self, domain: Domain) -> bytes:
        blob = formats.encode_hvm_context(domain.vm.vcpus, domain.vm.platform)
        domain.native_state_blob = blob
        return blob

    def load_platform_state(self, domain: Domain, blob: bytes) -> None:
        vcpus, platform = formats.decode_hvm_context(blob)
        domain.vm.vcpus = vcpus
        domain.vm.platform = platform
        domain.native_state_blob = blob

    # UISR goes through the toolstack's HVM-context entry points, exactly
    # what the paper's prototype reuses (§4.2.1).
    def read_vm_state(self, domain: Domain
                      ) -> Tuple[List[VCPUState], PlatformState]:
        blob = self.toolstack.xc_domain_hvm_getcontext(domain.domid)
        return self.toolstack.decode_context(blob)

    def write_vm_state(self, domain: Domain, vcpus: List[VCPUState],
                       platform: PlatformState) -> None:
        blob = formats.encode_hvm_context(vcpus, platform)
        self.toolstack.xc_domain_hvm_setcontext(domain.domid, blob)

    # -- PV plumbing -------------------------------------------------------------

    def _on_domain_added(self, domain: Domain) -> None:
        # Every HVM guest gets the standard PV plumbing: a xenstore and a
        # console channel toward dom0 (domid 0), a timer VIRQ, and a grant
        # table its PV drivers will populate.
        self.event_channels.alloc_unbound(domain.domid, remote_domid=0)
        self.event_channels.alloc_unbound(domain.domid, remote_domid=0)
        self.event_channels.bind_virq(domain.domid, VIRQ_TIMER)
        self.grant_tables[domain.domid] = GrantTable(domain.domid)

    def _on_domain_removed(self, domain: Domain) -> None:
        # PV teardown: backends unmap whatever they still hold, grants are
        # revoked, channels closed.  The guest's PV frontends re-create
        # their transport on the target hypervisor (unplug/rescan, §4.2.3).
        table = self.grant_tables.pop(domain.domid, None)
        if table is not None:
            table.force_unmap_all()
            table.revoke_all()
        self.event_channels.close_domain(domain.domid)
