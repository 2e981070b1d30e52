"""CFS runqueues — KVM's VM Management State.

Under KVM each vCPU is an ordinary host thread scheduled by CFS; the per-CPU
runqueues referencing those threads are *VM Management State* (rebuildable
from the VM_i states, never translated during transplant).
"""

from dataclasses import dataclass, field
from typing import Dict, List

DEFAULT_NICE = 0


@dataclass
class CFSTask:
    """One vCPU thread's runqueue entry."""

    domid: int
    vcpu_index: int
    vruntime: float = 0.0
    nice: int = DEFAULT_NICE


@dataclass
class CFSRunqueue:
    """One host CPU's CFS runqueue (sorted by vruntime on demand)."""

    cpu: int
    tasks: List[CFSTask] = field(default_factory=list)


class CFSScheduler:
    """CFS runqueues over the host's CPUs."""

    def __init__(self, cpus: int):
        self.cpus = max(1, cpus)
        self.runqueues: List[CFSRunqueue] = [CFSRunqueue(c) for c in range(self.cpus)]
        self._nice: Dict[int, int] = {}

    def add_domain(self, domid: int, vcpus: int, nice: int = DEFAULT_NICE) -> None:
        self._nice[domid] = nice
        for index in range(vcpus):
            queue = self.runqueues[(domid * 7 + index) % self.cpus]
            queue.tasks.append(CFSTask(domid=domid, vcpu_index=index, nice=nice))

    def remove_domain(self, domid: int) -> None:
        self._nice.pop(domid, None)
        for queue in self.runqueues:
            queue.tasks = [t for t in queue.tasks if t.domid != domid]

    def rebuild(self, domains) -> None:
        """Reconstruct all runqueues from the domain list (post-transplant)."""
        nice = dict(self._nice)
        self.runqueues = [CFSRunqueue(c) for c in range(self.cpus)]
        self._nice = {}
        for domain in domains:
            self.add_domain(
                domain.domid,
                domain.vm.config.vcpus,
                nice=nice.get(domain.domid, DEFAULT_NICE),
            )

    def queued_vcpus(self) -> int:
        return sum(len(q.tasks) for q in self.runqueues)

    def report(self) -> Dict[str, object]:
        return {
            "scheduler": "cfs",
            "cpus": self.cpus,
            "queued_vcpus": self.queued_vcpus(),
            "domains": sorted(self._nice),
        }
