"""Cluster model for the §5.4 experiment.

The paper's testbed: 10 physical hosts, each with 2x Xeon E5-2630 v3 and
96 GB RAM on a 10 Gbps network, each running 10 VMs (1 vCPU, 4 GB).  The VM
mix: 30 % video-streaming servers, 30 % CPU+memory-intensive, 40 % idle.

This module models placement abstractly (names and sizes) so the planner
can reason about thousands of VMs; the executor maps plan actions onto the
full simulated machinery when timing is needed.
"""

import enum
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, List, Optional

from repro.errors import ClusterError

GIB = 1024 ** 3

#: VM slots per host: 96 GB / 4 GB VMs, minus the host reservation
NODE_CAPACITY_VMS = 22

#: every §5.4 VM: 1 vCPU, 4 GB
VM_VCPUS = 1
VM_MEMORY_BYTES = 4 * GIB


class WorkloadKind(enum.Enum):
    """The §5.4 VM mix; dirty rates drive per-migration times."""

    IDLE = "idle"
    CPU_MEMORY = "cpu-memory"
    STREAMING = "streaming"

    @property
    def dirty_rate_bytes_s(self) -> float:
        """Page-dirtying rate during pre-copy (drives migration length)."""
        return _DIRTY_RATE_BYTES_S[self]


_DIRTY_RATE_BYTES_S = {
    WorkloadKind.IDLE: 1 << 20,            # ~1 MB/s
    WorkloadKind.CPU_MEMORY: 48 << 20,     # ~48 MB/s
    WorkloadKind.STREAMING: 96 << 20,      # ~96 MB/s
}


@dataclass(slots=True)
class ClusterVM:
    """One VM in the cluster plan."""

    name: str
    vcpus: int = VM_VCPUS
    memory_bytes: int = VM_MEMORY_BYTES
    workload: WorkloadKind = WorkloadKind.IDLE
    inplace_compatible: bool = False
    node: Optional[str] = None  # current placement


@dataclass(slots=True)
class ClusterNode:
    """One physical host in the cluster plan."""

    name: str
    capacity_vms: int = NODE_CAPACITY_VMS
    hypervisor: str = "xen"
    upgraded: bool = False
    vms: List[str] = field(default_factory=list)

    @property
    def free_slots(self) -> int:
        return self.capacity_vms - len(self.vms)


class Cluster:
    """Placement state: nodes, VMs, and the mutation surface planners use."""

    def __init__(self):
        self.nodes: Dict[str, ClusterNode] = {}
        self.vms: Dict[str, ClusterVM] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node: ClusterNode) -> None:
        if node.name in self.nodes:
            raise ClusterError(f"duplicate node {node.name}")
        self.nodes[node.name] = node

    def add_vm(self, vm: ClusterVM, node_name: str) -> None:
        if vm.name in self.vms:
            raise ClusterError(f"duplicate VM {vm.name}")
        node = self._node(node_name)
        if node.free_slots <= 0:
            raise ClusterError(f"node {node_name} is full")
        vm.node = node_name
        node.vms.append(vm.name)
        self.vms[vm.name] = vm

    # -- queries ---------------------------------------------------------------

    def _node(self, name: str) -> ClusterNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}") from None

    def _vm(self, name: str) -> ClusterVM:
        try:
            return self.vms[name]
        except KeyError:
            raise ClusterError(f"unknown VM {name!r}") from None

    def vms_on(self, node_name: str) -> List[ClusterVM]:
        names = self._node(node_name).vms
        try:
            return list(map(self.vms.__getitem__, names))
        except KeyError as missing:
            raise ClusterError(f"unknown VM {missing.args[0]!r}") from None

    def total_vms(self) -> int:
        return len(self.vms)

    # -- mutations (used by plan execution) -----------------------------------------

    def move_vm(self, vm_name: str, dest_node: str) -> None:
        vm = self._vm(vm_name)
        dest = self._node(dest_node)
        if dest.free_slots <= 0:
            raise ClusterError(
                f"cannot move {vm_name} to {dest_node}: node full"
            )
        if vm.node is not None:
            self._node(vm.node).vms.remove(vm_name)
        dest.vms.append(vm_name)
        vm.node = dest_node

    def mark_upgraded(self, node_name: str, new_hypervisor: str) -> None:
        node = self._node(node_name)
        node.upgraded = True
        node.hypervisor = new_hypervisor


def build_paper_cluster(hosts: int = 10, vms_per_host: int = 10,
                        inplace_fraction: float = 0.0,
                        seed: int = 42) -> Cluster:
    """The §5.4 testbed with a chosen share of InPlaceTP-compatible VMs.

    Compatibility is assigned round-robin across the workload mix so every
    class participates proportionally (the paper varies the share without
    stating a skew).

    The cluster is built in one bulk pass rather than through
    :meth:`Cluster.add_vm`: VM names are unique and every node's VMs fit
    its capacity by construction, once ``vms_per_host`` is in range.
    """
    import random

    if hosts < 1:
        raise ClusterError(f"need >= 1 host, got {hosts}")
    if not 0 <= vms_per_host <= NODE_CAPACITY_VMS:
        raise ClusterError(
            f"need 0..{NODE_CAPACITY_VMS} VMs per host, got {vms_per_host}"
        )
    if not 0.0 <= inplace_fraction <= 1.0:
        raise ClusterError(f"bad inplace fraction {inplace_fraction}")
    rng = random.Random(seed)

    # 30% streaming / 30% cpu+memory / 40% idle, deterministic per seed.
    kinds = []
    total = hosts * vms_per_host
    kinds.extend([WorkloadKind.STREAMING] * round(total * 0.3))
    kinds.extend([WorkloadKind.CPU_MEMORY] * round(total * 0.3))
    kinds.extend([WorkloadKind.IDLE] * (total - len(kinds)))
    rng.shuffle(kinds)

    compatible_count = round(total * inplace_fraction)
    flags = [True] * compatible_count + [False] * (total - compatible_count)
    rng.shuffle(flags)

    # VM ``index`` is ``vm{index:03d}`` on node ``index // vms_per_host``.
    cluster = Cluster()
    vm_names = list(map("vm{:03d}".format, range(total)))
    node_names = list(map("node{:02d}".format, range(hosts)))
    placement = chain.from_iterable(map(repeat, node_names,
                                        repeat(vms_per_host)))
    # ClusterVM's fields in declaration order: name, vcpus, memory_bytes,
    # workload, inplace_compatible, node.
    cluster.vms.update(zip(vm_names, map(
        ClusterVM, vm_names, repeat(VM_VCPUS), repeat(VM_MEMORY_BYTES),
        kinds, flags, placement,
    )))
    for h, name in enumerate(node_names):
        cluster.nodes[name] = ClusterNode(
            name, vms=vm_names[h * vms_per_host:(h + 1) * vms_per_host])
    return cluster
