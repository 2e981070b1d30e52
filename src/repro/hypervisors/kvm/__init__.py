"""KVM-like type-II hypervisor substrate.

Components mirror the real stack the paper used (Linux 5.3 + kvm module +
kvmtool):

* :mod:`formats` — per-ioctl state structs (``KVM_GET_REGS``, ``KVM_GET_SREGS``,
  ``KVM_GET_MSRS``, ``KVM_GET_LAPIC``, ``KVM_GET_IRQCHIP``, ``KVM_GET_PIT2``,
  ``KVM_GET_XSAVE``, ``KVM_GET_XCRS``).
* :mod:`kvmtool` — the lightweight user-space VMM the paper extended to speak
  UISR.
* :mod:`hypervisor` — host kernel + kvm module, declaring its EPT policy
  and CFS placement (vCPUs are host threads), which the base class builds.
"""

from repro.hypervisors.kvm.hypervisor import KVMHypervisor
from repro.hypervisors.kvm.kvmtool import KvmtoolVMM

__all__ = ["KVMHypervisor", "KvmtoolVMM"]
