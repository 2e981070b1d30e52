"""BtrPlace-style reconfiguration planner.

Reproduces the paper's §5.4 methodology: divide the cluster into groups,
sequentially put each group offline (BtrPlace's ``offline`` constraint), and
record the migration plans.  VMs on an offlined host must be placed on live
hosts; InPlaceTP-compatible VMs are exempt — they ride the host's
micro-reboot instead of migrating.

Placement follows BtrPlace's default load-balancing behaviour: evacuated
VMs spread across the least-loaded live nodes (upgraded or not), which is
why VMs can migrate more than once during a campaign — the source of the
154 > 100 migration count at 0 % compatibility.
"""

from operator import attrgetter
from typing import List

from repro.errors import PlanningError
from repro.cluster.model import Cluster
from repro.cluster.plan import (
    GroupPlan,
    InPlaceAction,
    MigrationAction,
    ReconfigurationPlan,
)

_MEMORY_BYTES = attrgetter("memory_bytes")


class BtrPlacePlanner:
    """Plans a rolling-upgrade campaign over a cluster."""

    def __init__(self, cluster: Cluster, group_size: int = 2, rides=None):
        if group_size < 1:
            raise PlanningError(f"group size must be >= 1, got {group_size}")
        self.cluster = cluster
        self.group_size = group_size
        # Predicate deciding which VMs ride the micro-reboot instead of
        # migrating.  The default is the paper's §4.5.2 split (evacuate
        # exactly the InPlaceTP-incompatible VMs); a MechanismPolicy
        # passes its own per-VM verdict here.
        self.rides = rides if rides is not None else (
            lambda vm: vm.inplace_compatible)
        self._rr_cursor = 0  # spread placement rotates over live nodes
        # The node set is fixed for the life of a plan.  Offline groups are
        # contiguous slices of the sorted names, so the live list never
        # needs building: see _pick_destination.
        self._sorted_names = sorted(self.cluster.nodes)
        self._index = {name: i for i, name in enumerate(self._sorted_names)}

    def _offline_groups(self) -> List[List[str]]:
        names = self._sorted_names
        return [names[i:i + self.group_size]
                for i in range(0, len(names), self.group_size)]

    def plan(self, apply: bool = True) -> ReconfigurationPlan:
        """Produce (and by default apply placement changes for) the campaign.

        ``apply=True`` mutates the cluster placement group by group so later
        groups see earlier evacuees — required for realistic re-migration
        counts.  Use ``apply=False`` for a single-group dry run.
        """
        plan = ReconfigurationPlan()
        cluster, rides = self.cluster, self.rides
        for index, group in enumerate(self._offline_groups()):
            group_plan = GroupPlan(group_index=index, nodes=list(group))
            migrations = group_plan.migrations
            for node_name in group:
                staying = []
                # vms_on returns a fresh list: moving VMs off the node
                # while iterating it is safe.
                for vm in cluster.vms_on(node_name):
                    if rides(vm):
                        staying.append(vm)
                        continue
                    dest = self._pick_destination(group, vm.name)
                    migrations.append(MigrationAction(
                        vm_name=vm.name,
                        source=node_name,
                        destination=dest,
                        memory_bytes=vm.memory_bytes,
                        workload=vm.workload,
                    ))
                    if apply:
                        cluster.move_vm(vm.name, dest)
                group_plan.upgrades.append(InPlaceAction(
                    node_name=node_name,
                    vm_count=len(staying),
                    total_memory_bytes=sum(map(_MEMORY_BYTES, staying)),
                ))
                if apply:
                    cluster.mark_upgraded(node_name, "kvm")
            plan.groups.append(group_plan)
        return plan

    def _pick_destination(self, offline_group: List[str],
                          vm_name: str) -> str:
        """Spread placement: rotate over all live nodes with capacity.

        BtrPlace balances each reconfiguration step in isolation, without
        knowledge of *future* offline groups, so evacuees land on
        not-yet-upgraded hosts too and may migrate again later — the reason
        the paper's 100-VM cluster needs 154 migrations at 0 % compatibility.

        The live nodes are the sorted names minus the offline group, a
        contiguous slice ``names[start:start + width]``; live position
        ``k`` is ``names[k]`` below ``start`` and ``names[k + width]``
        from it on, so each pick is O(1) per candidate tried.
        """
        names = self._sorted_names
        start = self._index[offline_group[0]]
        width = len(offline_group)
        live = len(names) - width
        if not live:
            raise PlanningError("no live nodes to receive evacuated VMs")
        for _ in range(live):
            k = self._rr_cursor % live
            candidate = names[k] if k < start else names[k + width]
            self._rr_cursor += 1
            if self.cluster.nodes[candidate].free_slots > 0:
                return candidate
        raise PlanningError(
            f"no destination with capacity for {vm_name} while "
            f"{offline_group} is offline"
        )
