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
from typing import Dict, List, Optional

from repro.errors import ClusterError

GIB = 1024 ** 3

#: VM slots per host: 96 GB / 4 GB VMs, minus the host reservation
NODE_CAPACITY_VMS = 22


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


@dataclass
class ClusterVM:
    """One VM in the cluster plan."""

    name: str
    vcpus: int = 1
    memory_bytes: int = 4 * GIB
    workload: WorkloadKind = WorkloadKind.IDLE
    inplace_compatible: bool = False
    node: Optional[str] = None  # current placement


@dataclass
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
        return [self._vm(v) for v in self._node(node_name).vms]

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
    """
    import random

    if hosts < 1:
        raise ClusterError(f"need >= 1 host, got {hosts}")
    if not 0.0 <= inplace_fraction <= 1.0:
        raise ClusterError(f"bad inplace fraction {inplace_fraction}")
    rng = random.Random(seed)
    cluster = Cluster()
    for h in range(hosts):
        cluster.add_node(ClusterNode(name=f"node{h:02d}"))

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

    index = 0
    for h in range(hosts):
        for _ in range(vms_per_host):
            cluster.add_vm(
                ClusterVM(
                    name=f"vm{index:03d}",
                    workload=kinds[index],
                    inplace_compatible=flags[index],
                ),
                node_name=f"node{h:02d}",
            )
            index += 1
    return cluster
