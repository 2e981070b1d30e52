"""Machine models matching the paper's testbed (Table 3).

* **M1** — Intel i5-8400H, 4 cores / 8 threads @ 2.5 GHz, 16 GB RAM, 1 Gbps.
* **M2** — 2x Xeon E5-2650L v4, 14 cores / 28 threads @ 1.7 GHz, 64 GB RAM,
  1 Gbps.
* **Cluster node** — 2x Xeon E5-2630 v3, 96 GB RAM, 10 Gbps (§5.1).

A :class:`Machine` owns physical memory and a NIC, and is where a hypervisor
is installed.  Two host CPUs are reserved for the administration OS (dom0 /
host Linux) as in §5.1.
"""

from dataclasses import dataclass
from typing import Optional

from repro.errors import HardwareError
from repro.hw.memory import PhysicalMemory
from repro.hw.nic import NIC
from repro.sim.resources import gigabits

GIB = 1024 ** 3


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a physical machine."""

    name: str
    cores: int
    threads: int
    frequency_ghz: float
    ram_bytes: int
    nic_gbps: float
    nic_init_s: float
    # Relative per-byte / per-record host work speed; M2's lower clock makes
    # host-side state processing slower per thread (visible in Fig. 6).
    cpu_speed_factor: float = 1.0
    # Kernel boot-time scale: a 2-socket server initializes more devices and
    # cores than a desktop, so its (micro-)reboot is slower (Fig. 6 vs 7d-f).
    boot_factor: float = 1.0
    # PRAM construction is memory-bandwidth bound rather than clock bound;
    # servers with more channels offset their lower clocks.
    pram_factor: float = 1.0
    reserved_admin_cpus: int = 2

    def __post_init__(self) -> None:
        if self.cores < 1 or self.threads < self.cores:
            raise HardwareError(f"bad core/thread counts in spec {self.name}")
        if self.ram_bytes <= 0:
            raise HardwareError(f"bad RAM size in spec {self.name}")

    @property
    def worker_threads(self) -> int:
        """Threads usable for transplant work after the admin reservation."""
        return max(1, self.threads - self.reserved_admin_cpus)

    def host_work_time(self, single_thread_seconds: float) -> float:
        """Scale nominal single-thread work by this machine's CPU speed."""
        if single_thread_seconds < 0:
            raise HardwareError("work time must be non-negative")
        return single_thread_seconds * self.cpu_speed_factor


# The paper's machines.  ``nic_init_s`` reproduces the measured link
# re-establishment waits: 6.6 s on M1's desktop NIC, 2.3 s on M2's server NIC
# (§5.2.1).  ``cpu_speed_factor`` scales single-thread host work by clock
# ratio (2.5 GHz vs 1.7 GHz).
M1_SPEC = MachineSpec(
    name="M1",
    cores=4,
    threads=8,
    frequency_ghz=2.5,
    ram_bytes=16 * GIB,
    nic_gbps=1.0,
    nic_init_s=6.6,
    cpu_speed_factor=1.0,
    boot_factor=1.0,
    pram_factor=1.0,
)

M2_SPEC = MachineSpec(
    name="M2",
    cores=28,
    threads=28,
    frequency_ghz=1.7,
    ram_bytes=64 * GIB,
    nic_gbps=1.0,
    nic_init_s=2.3,
    cpu_speed_factor=2.5 / 1.7,
    boot_factor=1.35,
    pram_factor=1.1,
)

CLUSTER_NODE_SPEC = MachineSpec(
    name="cluster-node",
    cores=16,
    threads=32,
    frequency_ghz=2.4,
    ram_bytes=96 * GIB,
    nic_gbps=10.0,
    nic_init_s=2.3,
    cpu_speed_factor=1.0,
    boot_factor=1.2,
    pram_factor=1.0,
)


class Machine:
    """A physical machine instance: RAM, NIC, installed hypervisor.

    ``hypervisor`` is set by :meth:`repro.hypervisors.base.Hypervisor.boot`;
    the machine itself stays hypervisor-agnostic.
    """

    _ids = 0

    def __init__(self, spec: MachineSpec, name: Optional[str] = None):
        Machine._ids += 1
        self.machine_id = Machine._ids
        self.spec = spec
        self.name = name or f"{spec.name}-{self.machine_id}"
        self.memory = PhysicalMemory(spec.ram_bytes)
        self.nic = NIC(rate_bytes_per_s=gigabits(spec.nic_gbps), init_s=spec.nic_init_s)
        self.hypervisor = None  # type: Optional[object]
        # Staged kexec image (hypervisor kind loaded ahead of time, step 1 of
        # the InPlaceTP workflow, Fig. 3).
        self.staged_kernel = None  # type: Optional[object]

    def stage_kernel(self, kernel) -> None:
        """Load a target hypervisor image into RAM ahead of the micro-reboot."""
        self.staged_kernel = kernel

    def __repr__(self) -> str:
        hv = type(self.hypervisor).__name__ if self.hypervisor else "none"
        return f"Machine({self.name}, hv={hv})"
