"""Simulated hypervisor substrates.

Three heterogeneous hypervisors: the paper's testbed pair and a third
repertoire member:

* :mod:`repro.hypervisors.xen` — a type-I hypervisor (hypervisor kernel +
  dom0 administration VM) with HVM-save-record state formats, PV plumbing
  and a libxenctrl-style toolstack.
* :mod:`repro.hypervisors.kvm` — a type-II hypervisor (host Linux + kvm
  module + kvmtool VMM) with ioctl-style state structs.
* :mod:`repro.hypervisors.nova` — a microhypervisor with a tagged-section
  snapshot format.

:class:`~repro.hypervisors.base.Hypervisor` builds every nested page table
and run queue; each subclass only declares its policy (p2m, EPT or NOVA NPT
metadata; credit, CFS or priority-RR vCPU placement).  Their VM-state byte
formats are intentionally different so that the UISR converter pair in
:mod:`repro.core.convert` does real translation work.
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
