"""Reference implementations of the fleet-scale hot paths.

Each is the straightforward version the optimized code in ``src/`` must
agree with, kept verbatim for differential tests:

* :class:`FullScanInventory` — exposure counted by scanning every host
  on every accrual, O(open CVEs x hosts);
* :func:`decide_fleet_rescan` — the spare-slot budget re-summed for every
  host and drained from the first provider each time, O(hosts^2);
* :class:`LiveListPlanner` — the live-node list rebuilt for every
  evacuated VM, O(hosts) per migration;
* :func:`plan_host_rebuild` / :func:`plan_vm_rebuild` — a stage plan
  built afresh on every call, never cached by shape.

Test-only: nothing outside ``tests/`` imports this module.
"""

from typing import Dict, List, Mapping, Sequence

from repro.cluster.btrplace import BtrPlacePlanner
from repro.core.mechanisms import HostDecision, MechanismPolicy, VMProfile
from repro.core.migration import plan_precopy
from repro.core.pipeline import (
    InPlacePipeline,
    MigrationPipeline,
    Stage,
    StageCost,
    StagePlan,
    _fold,
)
from repro.errors import PlanningError, SentinelError
from repro.hw.memory import PAGE_2M
from repro.sentinel.inventory import FleetInventory


class FullScanInventory(FleetInventory):
    """Counts exposure by scanning the hosts, never the per-kind ledger."""

    def exposure_count(self, cve_id: str) -> int:
        return len(self.exposed_hosts(cve_id))

    def advance(self, now_s: float) -> None:
        """Integrate exposure for every open CVE up to ``now_s``."""
        if now_s < self._accrued_to_s:
            raise SentinelError(
                f"inventory time moved backwards: {now_s} < "
                f"{self._accrued_to_s}"
            )
        elapsed = now_s - self._accrued_to_s
        if elapsed > 0:
            for cve_id in self._open:
                count = self.exposure_count(cve_id)
                if count:
                    self.exposure_s[cve_id] = (
                        self.exposure_s.get(cve_id, 0.0) + count * elapsed
                    )
        self._accrued_to_s = now_s


def decide_fleet_rescan(policy: MechanismPolicy,
                        host_vms: Mapping[str, Sequence[VMProfile]],
                        free_slots: Mapping[str, int], *,
                        inplace: InPlacePipeline,
                        migration: MigrationPipeline,
                        ) -> Dict[str, HostDecision]:
    """Decide every host, spending a shared spare-capacity budget."""
    remaining = {name: free_slots[name] for name in sorted(free_slots)}
    decisions: Dict[str, HostDecision] = {}
    for host in sorted(host_vms):
        spare = sum(slots for name, slots in remaining.items()
                    if name != host)
        decision = policy.decide_host(
            host, host_vms[host], inplace=inplace, migration=migration,
            spare_slots=spare,
        )
        decisions[host] = decision
        need = len(decision.evacuate)
        for name in remaining:
            if need == 0:
                break
            if name == host:
                continue
            taken = min(remaining[name], need)
            remaining[name] -= taken
            need -= taken
    return decisions


class LiveListPlanner(BtrPlacePlanner):
    """Builds the list of live nodes afresh for every destination pick."""

    def _pick_destination(self, offline_group: List[str],
                          vm_name: str) -> str:
        offline = set(offline_group)
        live = [name for name in self._sorted_names if name not in offline]
        if not live:
            raise PlanningError("no live nodes to receive evacuated VMs")
        for _ in range(len(live)):
            candidate = live[self._rr_cursor % len(live)]
            self._rr_cursor += 1
            if self.cluster.nodes[candidate].free_slots > 0:
                return candidate
        raise PlanningError(
            f"no destination with capacity for {vm_name} while "
            f"{offline_group} is offline"
        )


def plan_host_rebuild(pipeline: InPlacePipeline, vm_count: int,
                      total_memory_bytes: int) -> StagePlan:
    """``pipeline.plan_host``, built from scratch on every call."""
    entries_per_vm = (
        pipeline.cost.entries_for(
            total_memory_bytes // max(1, vm_count), PAGE_2M,
            huge_pages=True,
        )
        if vm_count else 0
    )
    entry_counts = [entries_per_vm] * vm_count
    vm_shapes = [(1, entries_per_vm)] * vm_count
    capture = (pipeline.cost.pram_phase_s(pipeline.machine, entry_counts)
               if vm_count else 0.0)
    total_entries = sum(entry_counts)
    translate = pipeline.cost.translate_phase_s(pipeline.machine, vm_shapes)
    transfer = pipeline.cost.reboot_phase_s(pipeline.machine, pipeline.target_kind,
                                        total_entries)
    restore = pipeline.cost.restore_phase_s(pipeline.machine, vm_shapes)
    verify = pipeline.verify.duration_s(vm_count) if pipeline.verify else 0.0
    stages = (
        StageCost(Stage.QUIESCE, 0.0, downtime=False,
                  detail="pause guests (kexec image staged ahead)"),
        StageCost(Stage.CAPTURE, capture, downtime=False,
                  detail="PRAM construction, prepare-ahead"),
        StageCost(Stage.TRANSLATE, translate, downtime=True,
                  detail="VM_i State -> UISR"),
        StageCost(Stage.TRANSFER, transfer, downtime=True,
                  detail=f"kexec micro-reboot into "
                         f"{pipeline.target_kind.value}"),
        StageCost(Stage.RESTORE, restore, downtime=True,
                  detail="UISR -> target domains + PRAM relink"),
        StageCost(Stage.VERIFY, verify, downtime=False,
                  detail="post-transplant host verification"),
    )
    execute = _fold([s.duration_s for s in stages[:-1]])
    total = _fold([s.duration_s for s in stages])
    downtime = _fold([s.duration_s for s in stages if s.downtime])
    return StagePlan(mechanism=pipeline.mechanism, stages=stages,
                     total_s=total, execute_s=execute, downtime_s=downtime)


def plan_vm_rebuild(pipeline: MigrationPipeline, memory_bytes: int,
                    dirty_rate_bytes_s: float, vcpus: int = 1) -> StagePlan:
    """``pipeline.plan_vm``, built from scratch on every call."""
    rounds = plan_precopy(memory_bytes, pipeline.link_rate,
                          dirty_rate_bytes_s, pipeline.cost)
    capture = sum(r.duration_s for r in rounds)
    residual = rounds[-1].dirty_after_bytes
    transfer = residual / pipeline.link_rate
    restore = pipeline.cost.stopcopy_overhead_s(pipeline.target_kind, vcpus)
    translate = (2 * pipeline.cost.proxy_translate_s
                 if pipeline.charge_proxy else 0.0)
    stages = (
        StageCost(Stage.QUIESCE, pipeline.cost.migration_setup_s,
                  downtime=False,
                  detail="connection + negotiation + first scan"),
        StageCost(Stage.CAPTURE, capture, downtime=False,
                  detail=f"{len(rounds)} pre-copy round(s)"),
        StageCost(Stage.TRANSLATE, translate, downtime=True,
                  detail="UISR proxy encode/decode"),
        StageCost(Stage.TRANSFER, transfer, downtime=True,
                  detail=f"stop-and-copy residual "
                         f"({residual} bytes)"),
        StageCost(Stage.RESTORE, restore, downtime=True,
                  detail=f"{pipeline.target_kind.value} destination "
                         f"activation"),
        StageCost(Stage.VERIFY, 0.0, downtime=False,
                  detail="resume on destination"),
    )
    busy = _fold([s.duration_s for s in stages if not s.downtime])
    downtime = _fold([s.duration_s for s in stages if s.downtime])
    total = busy + downtime
    return StagePlan(mechanism=pipeline.mechanism, stages=stages,
                     total_s=total, execute_s=total, downtime_s=downtime)
