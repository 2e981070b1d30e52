"""Shared experiment-construction helpers for the benchmark harness.

The per-figure benchmark files all need the same moves: build a host with N
VMs on a given machine spec, run an InPlaceTP or a migration, sweep a
parameter.  Centralizing them keeps each bench file a readable description
of its experiment.  Every sweep here runs serially in the calling process;
only the fleet-window and sentinel-window sweeps map their cells over
:class:`repro.par.ParallelRunner`.
"""

from typing import Dict, List, Optional, Tuple

from repro.guest.vm import VMConfig
from repro.hw.machine import Machine, MachineSpec
from repro.hw.network import Fabric
from repro.hypervisors import make_hypervisor
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.inplace import InPlaceReport
from repro.core.migration import LiveMigration, MigrationReport, MigrationTP, migrate_group
from repro.core.optimizations import OptimizationConfig
from repro.core.transplant import HyperTP

GIB = 1024 ** 3


def make_host(spec: MachineSpec, kind: HypervisorKind, vm_count: int = 0,
              vcpus: int = 1, memory_gib: float = 1.0,
              name: Optional[str] = None, seed: int = 0) -> Machine:
    """A machine running ``kind`` with ``vm_count`` identical guests."""
    machine = Machine(spec, name=name)
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(machine)
    for i in range(vm_count):
        hypervisor.create_vm(VMConfig(
            name=f"{machine.name}-vm{i}",
            vcpus=vcpus,
            memory_bytes=int(memory_gib * GIB),
            seed=seed + i,
        ))
    return machine


def make_host_pair(spec: MachineSpec, dest_kind: HypervisorKind,
                   vm_count: int = 1, vcpus: int = 1,
                   memory_gib: float = 1.0) -> Tuple[Machine, Machine, Fabric]:
    """A Xen source with guests and an empty ``dest_kind`` destination,
    joined by a fabric."""
    source = make_host(spec, HypervisorKind.XEN, vm_count=vm_count,
                       vcpus=vcpus, memory_gib=memory_gib, name="bench-src")
    destination = make_host(spec, dest_kind, name="bench-dst")
    fabric = Fabric()
    fabric.connect(source, destination)
    return source, destination, fabric


def inplace_breakdown(spec: MachineSpec, target: HypervisorKind,
                      vm_count: int = 1, vcpus: int = 1,
                      memory_gib: float = 1.0,
                      optimizations: Optional[OptimizationConfig] = None
                      ) -> InPlaceReport:
    """One InPlaceTP run; returns the per-phase report (Fig. 6/7/10)."""
    source = (HypervisorKind.XEN if target is HypervisorKind.KVM
              else HypervisorKind.KVM)
    machine = make_host(spec, source, vm_count=vm_count, vcpus=vcpus,
                        memory_gib=memory_gib)
    hypertp = HyperTP() if optimizations is None else HyperTP(
        optimizations=optimizations
    )
    return hypertp.inplace(machine, target, SimClock())


def inplace_sweep(spec: MachineSpec, target: HypervisorKind,
                  vcpu_points: List[int], memory_points: List[float],
                  vm_count_points: List[int]) -> Dict[str, List[InPlaceReport]]:
    """The three Fig. 7/10 sweeps for one machine spec."""
    return {
        "vcpus": [
            inplace_breakdown(spec, target, vcpus=v) for v in vcpu_points
        ],
        "memory_gib": [
            inplace_breakdown(spec, target, memory_gib=m)
            for m in memory_points
        ],
        "vm_count": [
            inplace_breakdown(spec, target, vm_count=n)
            for n in vm_count_points
        ],
    }


def migration_sweep(spec: MachineSpec, dest_kind: HypervisorKind,
                    vcpu_points: List[int], memory_points: List[float],
                    vm_count_points: List[int],
                    dirty_rate_bytes_s: float = 1 << 20
                    ) -> Dict[str, List[List[MigrationReport]]]:
    """The Fig. 8/9 sweeps: each point returns the group's reports."""
    rate = dirty_rate_bytes_s
    return {
        "vcpus": [
            migrate_once(spec, dest_kind, vcpus=v, dirty_rate_bytes_s=rate)
            for v in vcpu_points
        ],
        "memory_gib": [
            migrate_once(spec, dest_kind, memory_gib=m,
                         dirty_rate_bytes_s=rate)
            for m in memory_points
        ],
        "vm_count": [
            migrate_once(spec, dest_kind, vm_count=n, dirty_rate_bytes_s=rate)
            for n in vm_count_points
        ],
    }


def migrate_once(spec: MachineSpec, dest_kind: HypervisorKind,
                 vm_count: int = 1, vcpus: int = 1, memory_gib: float = 1.0,
                 dirty_rate_bytes_s: float = 1 << 20) -> List[MigrationReport]:
    """Migrate every guest of a fresh :func:`make_host_pair` at once.

    A same-kind pair runs the :class:`LiveMigration` baseline; any other
    pair runs :class:`MigrationTP`.  Returns the group's reports.
    """
    source, destination, fabric = make_host_pair(
        spec, dest_kind, vm_count=vm_count, vcpus=vcpus,
        memory_gib=memory_gib,
    )
    domains = sorted(source.hypervisor.domains.values(), key=lambda d: d.domid)
    migrator = (LiveMigration if destination.hypervisor.kind
                is source.hypervisor.kind else MigrationTP)
    return migrate_group(migrator(fabric, source, destination), domains,
                         dirty_rate_bytes_s=dirty_rate_bytes_s)
