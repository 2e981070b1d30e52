"""The virtual machine object and its lifecycle.

A :class:`VirtualMachine` bundles the guest-visible state (image, vCPUs,
platform, devices) with a lifecycle state machine.  Hypervisors wrap VMs in
their own domain structures; HyperTP moves the VM between hypervisors while
preserving the guest-visible state.
"""

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import VMLifecycleError
from repro.guest.devices import PlatformState
from repro.guest.drivers import GuestDriver
from repro.guest.image import GuestImage
from repro.guest.vcpu import VCPUState, make_boot_vcpu
from repro.hw.memory import PAGE_2M

GIB = 1024 ** 3


@dataclass(frozen=True)
class VMConfig:
    """Sizing and identity of a VM (the paper's default is 1 vCPU, 1 GB)."""

    name: str
    vcpus: int = 1
    memory_bytes: int = GIB
    page_size: int = PAGE_2M
    seed: int = 0
    # Whether the owner tolerates InPlaceTP's seconds of downtime; VMs that
    # do not are migrated away before a host transplant (§4.5.2, §5.4).
    inplace_compatible: bool = True

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise VMLifecycleError(f"VM {self.name}: need >= 1 vCPU")
        if self.memory_bytes <= 0 or self.memory_bytes % self.page_size:
            raise VMLifecycleError(
                f"VM {self.name}: memory must be a positive multiple of the "
                f"page size"
            )

    @property
    def memory_gib(self) -> float:
        return self.memory_bytes / GIB


class VMState(enum.Enum):
    """Lifecycle states; transitions are enforced by :class:`VirtualMachine`."""

    RUNNING = "running"
    PAUSED = "paused"
    SUSPENDED = "suspended"  # paused + state externalized (UISR built)
    DESTROYED = "destroyed"


_ALLOWED_TRANSITIONS = {
    VMState.RUNNING: {VMState.PAUSED, VMState.DESTROYED},
    VMState.PAUSED: {VMState.RUNNING, VMState.SUSPENDED, VMState.DESTROYED},
    VMState.SUSPENDED: {VMState.RUNNING, VMState.PAUSED, VMState.DESTROYED},
    VMState.DESTROYED: set(),
}


class VirtualMachine:
    """A running guest: image + vCPUs + platform + devices + lifecycle."""

    def __init__(self, config: VMConfig, image: GuestImage,
                 platform: PlatformState,
                 vcpu_states: Optional[List[VCPUState]] = None):
        self.config = config
        self.image = image
        # The owning hypervisor's platform: its IOAPIC size is part of
        # VM_i State, so the hypervisor that creates the VM supplies it.
        self.platform = platform
        self.vcpus = vcpu_states or [
            make_boot_vcpu(i, seed=config.seed) for i in range(config.vcpus)
        ]
        if len(self.vcpus) != config.vcpus:
            raise VMLifecycleError(
                f"VM {config.name}: got {len(self.vcpus)} vCPU states for "
                f"{config.vcpus} vCPUs"
            )
        self.devices: List[GuestDriver] = []
        self.state = VMState.RUNNING
        # Timeline bookkeeping for downtime accounting.
        self.paused_at: Optional[float] = None
        self.total_downtime_s = 0.0
        self.pause_intervals: List[tuple] = []

    @property
    def name(self) -> str:
        return self.config.name

    # -- lifecycle ---------------------------------------------------------

    def _transition(self, new_state: VMState) -> None:
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise VMLifecycleError(
                f"VM {self.name}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def pause(self, now: float) -> None:
        self._transition(VMState.PAUSED)
        self.paused_at = now

    def mark_suspended(self) -> None:
        self._transition(VMState.SUSPENDED)

    def resume(self, now: float) -> None:
        if self.state not in (VMState.PAUSED, VMState.SUSPENDED):
            raise VMLifecycleError(
                f"VM {self.name}: cannot resume from {self.state.value}"
            )
        self.state = VMState.RUNNING
        if self.paused_at is not None:
            interval = (self.paused_at, now)
            self.pause_intervals.append(interval)
            self.total_downtime_s += max(0.0, now - self.paused_at)
            self.paused_at = None

    def destroy(self) -> None:
        self._transition(VMState.DESTROYED)
        self.image.release()

    # -- devices -----------------------------------------------------------

    def attach_device(self, device: GuestDriver) -> None:
        self.devices.append(device)

    def __repr__(self) -> str:
        return (
            f"VirtualMachine({self.name}, {self.config.vcpus} vCPU, "
            f"{self.config.memory_gib:g} GiB, {self.state.value})"
        )
