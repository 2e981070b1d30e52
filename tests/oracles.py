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
  built afresh on every call, never cached by shape;
* :class:`HeapEngine` — a heap of event objects ordered by the
  Python-level ``HeapEvent.__lt__``;
* :func:`state_digest_rescan` — the checkpoint digest and DONE count
  computed by re-sorting every host record and fault stream and reading
  each state through ``HostState.value``.

Test-only: nothing outside ``tests/`` imports this module.
"""

import hashlib
import heapq
import itertools
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
from repro.errors import PlanningError, SentinelError, SimulationError
from repro.fleet.state import HostState
from repro.hw.memory import PAGE_2M
from repro.sentinel.inventory import FleetInventory
from repro.sim.clock import SimClock
from repro.sim.engine import Process


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


class HeapEvent:
    """A scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "HeapEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class HeapEngine:
    """Discrete-event loop over a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._queue: List[HeapEvent] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        return self.clock.now

    def call_at(self, timestamp: float, fn: Callable[[], None]) -> HeapEvent:
        """Schedule ``fn`` to run at absolute simulated ``timestamp``."""
        if timestamp < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past ({timestamp} < {self.clock.now})"
            )
        event = HeapEvent(timestamp, next(self._seq), fn)
        heapq.heappush(self._queue, event)
        return event

    def call_after(self, delay: float, fn: Callable[[], None]) -> HeapEvent:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.clock.now + delay, fn)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator process immediately (its first step runs now)."""
        process = Process(self, gen, name=name)
        self.call_after(0.0, process._step)
        return process

    def spawn_at(self, timestamp: float, gen: Generator, name: str = "") -> Process:
        """Start a generator process at an absolute timestamp."""
        process = Process(self, gen, name=name)
        self.call_at(timestamp, process._step)
        return process

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Returns the clock value when the loop stops.
        """
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            self.clock.advance_to(event.time)
            event.fn()
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)
        return self.clock.now

    def run_process(self, gen: Generator, name: str = ""):
        """Spawn ``gen``, run the loop until it completes, return its result."""
        process = self.spawn(gen, name=name)
        while not process.done and self._queue:
            self.run_one()
        if not process.done:
            raise SimulationError(f"process {process.name!r} starved (empty queue)")
        if process.error is not None:
            raise process.error
        return process.result

    def run_one(self) -> bool:
        """Run a single pending event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.fn()
            return True
        return False

    def run_all(self, processes: Iterable[Process]) -> Tuple:
        """Run until every process in ``processes`` has completed."""
        pending = list(processes)
        while any(not p.done for p in pending):
            if not self.run_one():
                starved = [p.name for p in pending if not p.done]
                raise SimulationError(f"processes starved: {starved}")
        return tuple(p.result for p in pending)


def state_digest_rescan(controller) -> Tuple[bytes, int]:
    """A running controller's checkpoint digest and DONE-host count,
    re-read from every host record and fault stream and re-sorted."""
    states = [record.state.value
              for _, record in sorted(controller.records.items())]
    draws = [stream.draws
             for _, stream in sorted(controller._streams.items())]
    state = (sorted(controller._aborted), states,
             controller._migrations_executed, controller._placement_sig,
             draws)
    digest = hashlib.sha256(repr(state).encode("utf-8")).digest()
    done_hosts = sum(1 for r in controller.records.values()
                     if r.state is HostState.DONE)
    return digest, done_hosts
