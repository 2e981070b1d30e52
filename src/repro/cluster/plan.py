"""Reconfiguration plans: ordered migration and host-upgrade actions.

A plan is what the BtrPlace-style planner emits and the executor consumes.
Actions carry enough information (VM size, workload, endpoints) for the
executor to time them against the migration cost model.  A campaign makes
one action per migration and per host, so actions are named tuples:
immutable values built as one tuple, without the ``object.__setattr__``
call per field that a frozen dataclass makes.
"""

from dataclasses import dataclass, field
from typing import List, NamedTuple

from repro.cluster.model import WorkloadKind


class MigrationAction(NamedTuple):
    """Live-migrate one VM between nodes (MigrationTP in a mixed cluster)."""

    vm_name: str
    source: str
    destination: str
    memory_bytes: int
    workload: WorkloadKind


class InPlaceAction(NamedTuple):
    """Micro-reboot one host into the target hypervisor with its VMs."""

    node_name: str
    vm_count: int
    total_memory_bytes: int


@dataclass
class GroupPlan:
    """Actions for one offline group (executed as a unit)."""

    group_index: int
    nodes: List[str]
    migrations: List[MigrationAction] = field(default_factory=list)
    upgrades: List[InPlaceAction] = field(default_factory=list)


@dataclass
class ReconfigurationPlan:
    """The whole campaign: one GroupPlan per offline round."""

    groups: List[GroupPlan] = field(default_factory=list)

    @property
    def migration_count(self) -> int:
        return sum(len(g.migrations) for g in self.groups)

    @property
    def upgrade_count(self) -> int:
        return sum(len(g.upgrades) for g in self.groups)

    def migrations(self) -> List[MigrationAction]:
        return [m for g in self.groups for m in g.migrations]
