"""Common hypervisor abstractions.

A :class:`Hypervisor` is installed on a :class:`~repro.hw.machine.Machine`,
owns *HV State* (its own heap, per the paper's memory separation) and wraps
each guest VM in a :class:`Domain` that carries the hypervisor-*dependent*
VM_i State: the nested page table and the platform state serialized in the
hypervisor's own byte format.

The memory-separation accounting (``memory_report``) classifies every byte
the hypervisor touches into the four categories of Fig. 2, which the HyperTP
core uses to decide what to translate, rebuild, or leave in place.
"""

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import HypervisorError
from repro.guest.vm import VirtualMachine, VMConfig
from repro.hw.machine import Machine


class HypervisorKind(enum.Enum):
    """Identity of a hypervisor implementation.

    XEN and KVM are the paper's pair; NOVA is a third, microhypervisor-style
    member of the repertoire demonstrating that UISR makes adding
    hypervisors cheap (§3.1): one converter pair, no changes elsewhere.
    """

    XEN = "xen"
    KVM = "kvm"
    NOVA = "nova"


class HypervisorType(enum.Enum):
    """Type-I runs on bare metal; type-II runs inside a host OS kernel."""

    TYPE_1 = 1
    TYPE_2 = 2


@dataclass
class NestedPageTable:
    """Abstract NPT: maps GFN->MFN plus hypervisor-specific policy bits.

    Each hypervisor subclass builds its own concrete layout; what they share
    is the mapping itself (dictated by hardware) and a size estimate used in
    the memory-separation accounting.
    """

    gfn_to_mfn: Dict[int, int]
    page_size: int
    policy_tag: str  # hypervisor-specific management policy marker
    metadata_bytes: int

    def lookup(self, gfn: int) -> int:
        try:
            return self.gfn_to_mfn[gfn]
        except KeyError:
            raise HypervisorError(f"NPT miss for gfn {gfn}") from None


class Domain:
    """A hypervisor's wrapper around one VM (VM_i State container)."""

    def __init__(self, domid: int, vm: VirtualMachine, npt: NestedPageTable):
        self.domid = domid
        self.vm = vm
        self.npt = npt
        # Serialized platform state in the owner hypervisor's native format;
        # (re)built lazily by the toolstack.
        self.native_state_blob: Optional[bytes] = None
        # (source hypervisor kind value, UISR version) when this domain was
        # restored from a UISR document; None for domains created natively.
        self.provenance: Optional[Tuple[str, int]] = None

    @property
    def name(self) -> str:
        return self.vm.name

    def __repr__(self) -> str:
        return f"Domain(id={self.domid}, vm={self.vm.name})"


@dataclass
class MemoryReport:
    """Bytes in each memory-separation category (Fig. 2)."""

    guest_state: int
    vmi_state: int
    management_state: int
    hv_state: int

    @property
    def total(self) -> int:
        return (
            self.guest_state + self.vmi_state
            + self.management_state + self.hv_state
        )


class Hypervisor(abc.ABC):
    """Abstract hypervisor installed on a machine."""

    kind: HypervisorKind
    hv_type: HypervisorType
    #: bytes of hypervisor heap/text (HV State), reinitialised on micro-reboot
    hv_state_bytes: int = 64 << 20

    def __init__(self):
        self.machine: Optional[Machine] = None
        self.domains: Dict[int, Domain] = {}
        self._next_domid = 1
        self.booted = False

    # -- lifecycle -----------------------------------------------------------

    def boot(self, machine: Machine) -> None:
        """Install this hypervisor on ``machine``."""
        if machine.hypervisor is not None:
            raise HypervisorError(
                f"{machine.name} already runs {machine.hypervisor}"
            )
        self.machine = machine
        machine.hypervisor = self
        self.booted = True

    def shutdown(self) -> None:
        """Tear this hypervisor down (its domains must be gone already)."""
        if self.domains:
            raise HypervisorError("cannot shut down with live domains")
        if self.machine is not None:
            self.machine.hypervisor = None
        self.machine = None
        self.booted = False

    def _require_booted(self) -> None:
        if not self.booted or self.machine is None:
            raise HypervisorError(f"{type(self).__name__} is not booted")

    # -- domains ---------------------------------------------------------------

    def create_vm(self, config: VMConfig) -> Domain:
        """Create and start a fresh VM from ``config``."""
        self._require_booted()
        from repro.guest.image import GuestImage  # local: avoids cycle at import

        image = GuestImage(
            self.machine.memory, config.memory_bytes,
            page_size=config.page_size, seed=config.seed,
        )
        vm = VirtualMachine(config, image)
        return self.adopt_vm(vm)

    def adopt_vm(self, vm: VirtualMachine) -> Domain:
        """Wrap an existing VM (used by restoration paths) in a new domain."""
        self._require_booted()
        domid = self._next_domid
        self._next_domid += 1
        npt = self.build_npt(vm)
        domain = Domain(domid, vm, npt)
        self.domains[domid] = domain
        self._on_domain_added(domain)
        return domain

    def destroy_domain(self, domid: int, release_vm: bool = True) -> None:
        domain = self._domain(domid)
        self._on_domain_removed(domain)
        del self.domains[domid]
        if release_vm:
            domain.vm.destroy()

    def detach_domain(self, domid: int) -> VirtualMachine:
        """Remove a domain but keep the VM alive (transplant hand-off)."""
        domain = self._domain(domid)
        self._on_domain_removed(domain)
        del self.domains[domid]
        return domain.vm

    def _domain(self, domid: int) -> Domain:
        try:
            return self.domains[domid]
        except KeyError:
            raise HypervisorError(f"no domain with id {domid}") from None

    def domain_of(self, vm: VirtualMachine) -> Domain:
        for domain in self.domains.values():
            if domain.vm is vm:
                return domain
        raise HypervisorError(f"VM {vm.name} is not hosted here")

    def pause_domain(self, domid: int, now: float) -> None:
        self._domain(domid).vm.pause(now)

    def resume_domain(self, domid: int, now: float) -> None:
        self._domain(domid).vm.resume(now)

    # -- hypervisor-specific hooks ------------------------------------------

    @abc.abstractmethod
    def build_npt(self, vm: VirtualMachine) -> NestedPageTable:
        """Construct this hypervisor's nested page table for ``vm``."""

    @abc.abstractmethod
    def save_platform_state(self, domain: Domain) -> bytes:
        """Serialize VM_i platform state in the native byte format."""

    @abc.abstractmethod
    def load_platform_state(self, domain: Domain, blob: bytes) -> None:
        """Deserialize native-format platform state into ``domain``'s VM."""

    @abc.abstractmethod
    def scheduler_report(self) -> Dict[str, object]:
        """Describe the VM Management State (scheduler queues etc.)."""

    def _on_domain_added(self, domain: Domain) -> None:
        """Hook: update VM Management State structures."""

    def _on_domain_removed(self, domain: Domain) -> None:
        """Hook: update VM Management State structures."""

    # -- memory separation ------------------------------------------------------

    def memory_report(self) -> MemoryReport:
        """Classify resident bytes into the four categories of Fig. 2."""
        guest = sum(d.vm.image.size_bytes for d in self.domains.values())
        vmi = sum(
            d.npt.metadata_bytes + len(d.native_state_blob or b"")
            + self._vmi_fixed_overhead()
            for d in self.domains.values()
        )
        mgmt = self._management_state_bytes()
        return MemoryReport(
            guest_state=guest,
            vmi_state=vmi,
            management_state=mgmt,
            hv_state=self.hv_state_bytes,
        )

    def _vmi_fixed_overhead(self) -> int:
        """Per-domain bookkeeping not covered by NPT + platform blob."""
        return 16 << 10

    def _management_state_bytes(self) -> int:
        """Scheduler queues and similar rebuild-able structures."""
        return 4096 + 512 * len(self.domains)

    def __repr__(self) -> str:
        where = self.machine.name if self.machine else "unbooted"
        return f"{type(self).__name__}({where}, {len(self.domains)} domains)"
