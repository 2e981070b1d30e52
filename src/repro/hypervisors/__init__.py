"""Simulated hypervisor substrates.

Two heterogeneous hypervisors, mirroring the paper's testbed:

* :mod:`repro.hypervisors.xen` — a type-I hypervisor (hypervisor kernel +
  dom0 administration VM) with HVM-save-record state formats, a p2m nested
  page table, a credit scheduler, and a libxenctrl-style toolstack.
* :mod:`repro.hypervisors.kvm` — a type-II hypervisor (host Linux + kvm
  module + kvmtool VMM) with ioctl-style state structs, an EPT-style MMU and
  CFS runqueues.

Their VM-state byte formats are intentionally different so that the UISR
converter pair in :mod:`repro.core.convert` does real translation work.
"""

from repro.hypervisors.base import Domain, Hypervisor, HypervisorKind
from repro.hypervisors.xen import XenHypervisor
from repro.hypervisors.kvm import KVMHypervisor
from repro.hypervisors.nova import NOVAHypervisor

HYPERVISOR_CLASSES = {
    HypervisorKind.XEN: XenHypervisor,
    HypervisorKind.KVM: KVMHypervisor,
    HypervisorKind.NOVA: NOVAHypervisor,
}


def make_hypervisor(kind: HypervisorKind) -> Hypervisor:
    """Instantiate an (unbooted) hypervisor of the given kind."""
    return HYPERVISOR_CLASSES[kind]()


__all__ = [
    "Domain",
    "Hypervisor",
    "HypervisorKind",
    "XenHypervisor",
    "KVMHypervisor",
    "NOVAHypervisor",
    "HYPERVISOR_CLASSES",
    "make_hypervisor",
]
