"""Shared experiment-construction helpers for the benchmark harness.

The per-figure benchmark files all need the same moves: build a host with N
VMs on a given machine spec, run an InPlaceTP or a migration, sweep a
parameter.  Centralizing them keeps each bench file a readable description
of its experiment.  Every sweep here runs serially in the calling process;
only the fleet-window and sentinel-window sweeps map their cells over
:class:`repro.par.ParallelRunner`.
"""

from typing import Dict, List, Optional, Tuple

from repro.guest.devices import KVM_IOAPIC_PINS, make_default_platform
from repro.guest.vm import VMConfig
from repro.hw.machine import Machine, MachineSpec
from repro.hw.network import Fabric
from repro.hypervisors import KVMHypervisor, XenHypervisor
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.inplace import InPlaceReport
from repro.core.migration import LiveMigration, MigrationReport, MigrationTP, migrate_group
from repro.core.optimizations import OptimizationConfig
from repro.core.transplant import HyperTP

GIB = 1024 ** 3


def make_xen_host(spec: MachineSpec, vm_count: int = 1, vcpus: int = 1,
                  memory_gib: float = 1.0, name: Optional[str] = None,
                  seed: int = 0) -> Machine:
    """A machine running Xen with ``vm_count`` identical HVM guests."""
    machine = Machine(spec, name=name)
    xen = XenHypervisor()
    xen.boot(machine)
    for i in range(vm_count):
        xen.create_vm(VMConfig(
            name=f"{machine.name}-vm{i}",
            vcpus=vcpus,
            memory_bytes=int(memory_gib * GIB),
            seed=seed + i,
        ))
    return machine


def make_kvm_host(spec: MachineSpec, vm_count: int = 0, vcpus: int = 1,
                  memory_gib: float = 1.0, name: Optional[str] = None,
                  seed: int = 0) -> Machine:
    """A machine running KVM, optionally with guests (24-pin IOAPICs)."""
    machine = Machine(spec, name=name)
    kvm = KVMHypervisor()
    kvm.boot(machine)
    for i in range(vm_count):
        domain = kvm.create_vm(VMConfig(
            name=f"{machine.name}-vm{i}",
            vcpus=vcpus,
            memory_bytes=int(memory_gib * GIB),
            seed=seed + i,
        ))
        domain.vm.platform = make_default_platform(
            vcpus, ioapic_pins=KVM_IOAPIC_PINS, seed=seed + i,
        )
    return machine


def make_host_pair(spec: MachineSpec, dest_kind: HypervisorKind,
                   vm_count: int = 1, vcpus: int = 1,
                   memory_gib: float = 1.0) -> Tuple[Machine, Machine, Fabric]:
    """A Xen source and a (Xen or KVM) destination joined by a fabric."""
    source = make_xen_host(spec, vm_count=vm_count, vcpus=vcpus,
                           memory_gib=memory_gib, name="bench-src")
    if dest_kind is HypervisorKind.KVM:
        destination = make_kvm_host(spec, name="bench-dst")
    else:
        destination = Machine(spec, name="bench-dst")
        XenHypervisor().boot(destination)
    fabric = Fabric()
    fabric.connect(source, destination)
    return source, destination, fabric


def inplace_breakdown(spec: MachineSpec, target: HypervisorKind,
                      vm_count: int = 1, vcpus: int = 1,
                      memory_gib: float = 1.0,
                      optimizations: Optional[OptimizationConfig] = None
                      ) -> InPlaceReport:
    """One InPlaceTP run; returns the per-phase report (Fig. 6/7/10)."""
    if target is HypervisorKind.KVM:
        machine = make_xen_host(spec, vm_count=vm_count, vcpus=vcpus,
                                memory_gib=memory_gib)
    else:
        machine = make_kvm_host(spec, vm_count=vm_count, vcpus=vcpus,
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
    results: Dict[str, List[List[MigrationReport]]] = {
        "vcpus": [], "memory_gib": [], "vm_count": [],
    }
    for vcpus in vcpu_points:
        results["vcpus"].append(
            _migrate_once(spec, dest_kind, 1, vcpus, 1.0, dirty_rate_bytes_s)
        )
    for memory in memory_points:
        results["memory_gib"].append(
            _migrate_once(spec, dest_kind, 1, 1, memory, dirty_rate_bytes_s)
        )
    for count in vm_count_points:
        results["vm_count"].append(
            _migrate_once(spec, dest_kind, count, 1, 1.0, dirty_rate_bytes_s)
        )
    return results


def _migrate_once(spec: MachineSpec, dest_kind: HypervisorKind,
                  vm_count: int, vcpus: int, memory_gib: float,
                  dirty_rate_bytes_s: float) -> List[MigrationReport]:
    source, destination, fabric = make_host_pair(
        spec, dest_kind, vm_count=vm_count, vcpus=vcpus,
        memory_gib=memory_gib,
    )
    domains = sorted(source.hypervisor.domains.values(), key=lambda d: d.domid)
    if dest_kind is HypervisorKind.KVM:
        migrator = MigrationTP(fabric, source, destination)
    else:
        migrator = LiveMigration(fabric, source, destination)
    return migrate_group(migrator, domains,
                         dirty_rate_bytes_s=dirty_rate_bytes_s)
