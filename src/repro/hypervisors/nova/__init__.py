"""NOVA-like microhypervisor substrate.

A third member of the datacenter's hypervisor repertoire, modeled after
microhypervisor architectures (NOVA [48] in the paper's related work):

* a tiny type-I kernel plus a user-level VMM per guest — the fastest
  micro-reboot target of the three;
* its own VM-state format (:mod:`formats`): a capability-space *snapshot*
  of tagged sections, unlike Xen's typed-record blob and KVM's per-ioctl
  bundle;
* a 32-pin IOAPIC model (between KVM's 24 and Xen's 48), so conversions in
  *both* directions need the compat fixups;
* a priority round-robin scheduler and a lean NPT policy, both declared
  as class attributes and built by the base class.

Its existence validates the UISR design claim: implementing its own state
methods (``read_vm_state``/``write_vm_state``) makes every transplant
direction involving NOVA work, with no converter of its own and no
changes to the other hypervisors.
"""

from repro.hypervisors.nova.hypervisor import NOVAHypervisor

__all__ = ["NOVAHypervisor"]
