"""Shared experiment-construction helpers for the benchmark harness.

The per-figure benchmark files all need the same moves: build a host with N
VMs on a given machine spec, run an InPlaceTP or a migration, sweep a
parameter.  Centralizing them keeps each bench file a readable description
of its experiment.
"""

from typing import Dict, List, Optional, Tuple

from repro.guest.devices import KVM_IOAPIC_PINS, make_default_platform
from repro.guest.vm import VMConfig
from repro.hw.machine import (
    CLUSTER_NODE_SPEC,
    M1_SPEC,
    M2_SPEC,
    Machine,
    MachineSpec,
)
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


# -- worker-pool cell entrypoints ---------------------------------------------
#
# Module-level, plain-data-in / plain-data-out functions that the figure
# benchmarks map over :class:`repro.par.ParallelRunner`.  Each cell is one
# independent sweep axis (or sweep point) built entirely from its payload —
# a worker constructs its own machines, clocks and hypervisors from the
# named spec, and returns rows of plain numbers, never report objects.

SPEC_BY_NAME = {"M1": M1_SPEC, "M2": M2_SPEC, "cluster": CLUSTER_NODE_SPEC}


def _named_spec(name: str) -> MachineSpec:
    try:
        return SPEC_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown machine spec {name!r}; "
                         f"pick from {sorted(SPEC_BY_NAME)}") from None


def inplace_axis_cell(payload: Dict) -> List[List]:
    """One Fig. 7/10 sweep axis on one machine.

    Payload: ``{"spec": "M1", "target": "kvm", "axis": "vcpus",
    "points": [...]}``.  Returns table rows
    ``[axis, point, pram_s, translation_s, reboot_s, restoration_s,
    downtime_s]``.
    """
    spec = _named_spec(payload["spec"])
    target = HypervisorKind(payload["target"])
    axis = payload["axis"]
    kwargs_of = {"vcpus": "vcpus", "memory_gib": "memory_gib",
                 "vm_count": "vm_count"}
    if axis not in kwargs_of:
        raise ValueError(f"unknown inplace sweep axis {axis!r}")
    rows = []
    for point in payload["points"]:
        report = inplace_breakdown(spec, target, **{kwargs_of[axis]: point})
        rows.append([axis, point, report.pram_s, report.translation_s,
                     report.reboot_s, report.restoration_s,
                     report.downtime_s])
    return rows


def migration_axis_cell(payload: Dict) -> List[Dict]:
    """One Fig. 8/9 sweep axis, both destinations per point.

    Payload: ``{"spec": "M1", "axis": "memory_gib", "points": [...],
    "dests": ["xen", "kvm"], "dirty_rate_bytes_s": ...}``.  Returns one
    dict per point mapping each destination to its group's total times.
    """
    spec = _named_spec(payload["spec"])
    axis = payload["axis"]
    dests = [HypervisorKind(d) for d in payload.get("dests", ["xen", "kvm"])]
    dirty = payload.get("dirty_rate_bytes_s", 1 << 20)
    shapes = {
        "vcpus": lambda p: (1, p, 1.0),
        "memory_gib": lambda p: (1, 1, p),
        "vm_count": lambda p: (p, 1, 1.0),
    }
    if axis not in shapes:
        raise ValueError(f"unknown migration sweep axis {axis!r}")
    results = []
    for point in payload["points"]:
        vm_count, vcpus, memory_gib = shapes[axis](point)
        entry: Dict[str, object] = {"axis": axis, "point": point}
        for dest in dests:
            reports = _migrate_once(spec, dest, vm_count, vcpus,
                                    memory_gib, dirty)
            entry[dest.value] = [r.total_s for r in reports]
        results.append(entry)
    return results


def cluster_fraction_cell(payload: Dict) -> Dict:
    """One Fig. 13 sweep point: a cluster upgrade at one InPlaceTP share.

    Payload: ``{"fraction": 0.2, "hosts": 10, "vms_per_host": 10}``.
    Time *gains* are relative to the all-migration baseline, so the
    parent recomputes them across cells; the cell returns absolutes only.
    """
    from repro.cluster.upgrade import UpgradeCampaign

    campaign = UpgradeCampaign(
        hosts=payload.get("hosts", 10),
        vms_per_host=payload.get("vms_per_host", 10),
    )
    result = campaign.sweep([payload["fraction"]])[0]
    return {
        "fraction": result.inplace_fraction,
        "migration_count": result.migration_count,
        "total_s": result.total_s,
        "total_minutes": result.total_minutes,
    }
