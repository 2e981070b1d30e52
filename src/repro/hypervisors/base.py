"""Common hypervisor abstractions.

A :class:`Hypervisor` is installed on a :class:`~repro.hw.machine.Machine`,
owns *HV State* (its own heap, per the paper's memory separation) and wraps
each guest VM in a :class:`Domain` that carries the hypervisor-*dependent*
VM_i State: the nested page table and the platform state serialized in the
hypervisor's own byte format.  It also owns the *VM Management State*, the
:class:`RunQueues` it rebuilds from the domains after a transplant.

What differs between hypervisors around the page table and the run
queues is policy, not structure (§3.1): each subclass declares its NPT
metadata and its vCPU placement as class attributes, and the base class
builds both.

The memory-separation accounting (``memory_report``) classifies every byte
the hypervisor touches into the four categories of Fig. 2, which the HyperTP
core uses to decide what to translate, rebuild, or leave in place.
"""

import abc
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import HypervisorError
from repro.guest.devices import PlatformState, make_default_platform
from repro.guest.vcpu import VCPUState
from repro.guest.vm import VirtualMachine, VMConfig
from repro.hw.machine import Machine
from repro.hw.memory import PAGE_4K


class HypervisorKind(enum.Enum):
    """Identity of a hypervisor implementation.

    XEN and KVM are the paper's pair; NOVA is a third, microhypervisor-style
    member of the repertoire demonstrating that UISR makes adding
    hypervisors cheap (§3.1): it implements its own state methods and
    needs no converter and no changes elsewhere.
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
    """A VM's NPT: the GFN->MFN mapping plus its owner's policy metadata.

    The mapping is dictated by hardware; what differs between hypervisors
    is the policy tag and how many bytes of metadata they keep around it,
    the size used in the memory-separation accounting.
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


class RunQueues:
    """Per-CPU run queues of ``(domid, vcpu)`` entries.

    VM Management State (Fig. 2): never translated at transplant, because
    :meth:`rebuild` derives it again from the domains.  Schedulers differ
    only in their name and where they place a vCPU: ``placement`` is
    ``(a, b)`` for queue ``(a * domid + b * vcpu) % cpus``.
    """

    def __init__(self, name: str, cpus: int, placement: Tuple[int, int]):
        self.name = name
        self.cpus = max(1, cpus)
        self.placement = placement
        self.queues: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.cpus)
        ]

    def add_domain(self, domid: int, vcpus: int) -> None:
        a, b = self.placement
        for vcpu in range(vcpus):
            self.queues[(a * domid + b * vcpu) % self.cpus].append(
                (domid, vcpu))

    def remove_domain(self, domid: int) -> None:
        self.queues = [[entry for entry in queue if entry[0] != domid]
                       for queue in self.queues]

    def rebuild(self, domains: Iterable[Domain]) -> None:
        """Reconstruct every queue from the domain list (post-transplant)."""
        self.queues = [[] for _ in range(self.cpus)]
        for domain in domains:
            self.add_domain(domain.domid, domain.vm.config.vcpus)

    def queued_vcpus(self) -> int:
        return sum(len(queue) for queue in self.queues)

    def report(self) -> Dict[str, object]:
        return {
            "scheduler": self.name,
            "cpus": self.cpus,
            "queued_vcpus": self.queued_vcpus(),
            # Every domain has at least one vCPU (VMConfig), so it is queued.
            "domains": sorted({domid for queue in self.queues
                               for domid, _ in queue}),
        }


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
    """Abstract hypervisor installed on a machine.

    A subclass declares every annotated attribute below that has no
    default; one that omits any cannot be instantiated.
    """

    kind: HypervisorKind
    hv_type: HypervisorType
    #: IOAPIC size of this hypervisor's virtual platform: every VM it
    #: creates gets one, and a UISR restore fixes the table up to it
    ioapic_pins: int
    #: NPT policy: its tag, the metadata bytes kept per mapped guest page
    #: and the 4 KiB pages of root structures per VM
    npt_policy: str
    npt_bytes_per_page: int
    npt_root_pages: int
    #: scheduler name and vCPU placement ``(a, b)``: vCPU ``v`` of domain
    #: ``d`` queues on CPU ``(a * d + b * v) % cpus``
    scheduler_name: str
    vcpu_placement: Tuple[int, int]
    #: bytes of hypervisor heap/text (HV State), reinitialised on micro-reboot
    hv_state_bytes: int = 64 << 20
    #: per-domain VMM bookkeeping beyond the NPT and the platform blob
    vmm_overhead_bytes: int = 16 << 10

    def __init__(self):
        missing = [name for name in Hypervisor.__annotations__
                   if not hasattr(self, name)]
        if missing:
            raise TypeError(
                f"Can't instantiate hypervisor class {type(self).__name__} "
                f"without declaring {', '.join(missing)}"
            )
        self.machine: Optional[Machine] = None
        self.domains: Dict[int, Domain] = {}
        self._next_domid = 1
        self.booted = False
        self.scheduler = RunQueues(self.scheduler_name, 1, self.vcpu_placement)

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
        self.scheduler = RunQueues(self.scheduler_name, machine.spec.threads,
                                   self.vcpu_placement)

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
        """Create and start a fresh VM from ``config`` on this
        hypervisor's own platform (``ioapic_pins``-pin IOAPIC)."""
        self._require_booted()
        from repro.guest.image import GuestImage  # local: avoids cycle at import

        image = GuestImage(
            self.machine.memory, config.memory_bytes,
            page_size=config.page_size, seed=config.seed,
        )
        platform = make_default_platform(
            config.vcpus, ioapic_pins=self.ioapic_pins, seed=config.seed,
        )
        return self.adopt_vm(VirtualMachine(config, image, platform))

    def adopt_vm(self, vm: VirtualMachine) -> Domain:
        """Wrap an existing VM (used by restoration paths) in a new domain."""
        self._require_booted()
        domid = self._next_domid
        self._next_domid += 1
        domain = Domain(domid, vm, self.build_npt(vm))
        self.domains[domid] = domain
        self.scheduler.add_domain(domid, vm.config.vcpus)
        self._on_domain_added(domain)
        return domain

    def destroy_domain(self, domid: int, release_vm: bool = True) -> None:
        vm = self.detach_domain(domid)
        if release_vm:
            vm.destroy()

    def detach_domain(self, domid: int) -> VirtualMachine:
        """Remove a domain but keep the VM alive (transplant hand-off)."""
        domain = self._domain(domid)
        self.scheduler.remove_domain(domid)
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

    def build_npt(self, vm: VirtualMachine) -> NestedPageTable:
        """``vm``'s nested page table under this hypervisor's policy."""
        gfn_to_mfn = dict(vm.image.mappings())
        return NestedPageTable(
            gfn_to_mfn=gfn_to_mfn,
            page_size=vm.image.page_size,
            policy_tag=self.npt_policy,
            metadata_bytes=(self.npt_root_pages * PAGE_4K
                            + self.npt_bytes_per_page * len(gfn_to_mfn)),
        )

    # -- VM Management State ---------------------------------------------------

    def rebuild_management_state(self) -> None:
        """Rebuild the run queues from the domains (post-transplant)."""
        self.scheduler.rebuild(self.domains.values())

    def scheduler_report(self) -> Dict[str, object]:
        """Describe the VM Management State (the run queues)."""
        return self.scheduler.report()

    # -- hypervisor-specific hooks ------------------------------------------

    @abc.abstractmethod
    def save_platform_state(self, domain: Domain) -> bytes:
        """Serialize VM_i platform state in the native byte format."""

    @abc.abstractmethod
    def load_platform_state(self, domain: Domain, blob: bytes) -> None:
        """Deserialize native-format platform state into ``domain``'s VM."""

    @abc.abstractmethod
    def read_vm_state(self, domain: Domain
                      ) -> Tuple[List[VCPUState], PlatformState]:
        """Read ``domain``'s vCPUs and platform through this hypervisor's
        native save path, decoded into the shared model (UISR export)."""

    @abc.abstractmethod
    def write_vm_state(self, domain: Domain, vcpus: List[VCPUState],
                       platform: PlatformState) -> None:
        """Load vCPUs and a platform already fixed up to ``ioapic_pins``
        into ``domain`` through this hypervisor's native restore path."""

    def map_guest_memory(self, domain: Domain,
                         gfn_to_mfn: Dict[int, int]) -> None:
        """Point ``domain``'s guest memory at preserved frames (PRAM)."""
        domain.vm.image.adopt_mapping(gfn_to_mfn)

    def _on_domain_added(self, domain: Domain) -> None:
        """Hook: set up per-domain structures of this hypervisor."""

    def _on_domain_removed(self, domain: Domain) -> None:
        """Hook: tear down per-domain structures of this hypervisor."""

    # -- memory separation ------------------------------------------------------

    def memory_report(self) -> MemoryReport:
        """Classify resident bytes into the four categories of Fig. 2."""
        guest = sum(d.vm.image.size_bytes for d in self.domains.values())
        vmi = sum(
            d.npt.metadata_bytes + len(d.native_state_blob or b"")
            + self.vmm_overhead_bytes
            for d in self.domains.values()
        )
        mgmt = self._management_state_bytes()
        return MemoryReport(
            guest_state=guest,
            vmi_state=vmi,
            management_state=mgmt,
            hv_state=self.hv_state_bytes,
        )

    def _management_state_bytes(self) -> int:
        """Scheduler queues and similar rebuild-able structures."""
        return 4096 + 512 * len(self.domains)

    def __repr__(self) -> str:
        where = self.machine.name if self.machine else "unbooted"
        return f"{type(self).__name__}({where}, {len(self.domains)} domains)"
