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
* :func:`former_inplace_timings` / :func:`former_migration_timings` —
  InPlaceTP's four phases and downtime, and a migration's pre-copy time
  and downtime, as the runs priced them inline (four ``CostModel`` calls
  and the run's own downtime sum) before each charged its own stage plan;
* :class:`HeapEngine` — a heap of event objects ordered by the
  Python-level ``HeapEvent.__lt__``;
* :class:`FleetProcess` with :class:`Gate`, :class:`Latch` and
  :class:`FifoSemaphore` — the fleet's former second process driver and
  its wait conditions, which ``Engine.spawn`` and the primitives in
  ``repro.sim.engine`` must schedule identically;
* :func:`state_digest_rescan` — the checkpoint digest and DONE count
  computed by re-sorting every host record and fault stream and reading
  each state through ``HostState.value``;
* :func:`build_paper_cluster_per_vm`, :class:`FrozenVMProfile`,
  :class:`FrozenMigrationAction`, :class:`FrozenInPlaceAction`,
  :class:`TwoPassPolicy`, :class:`FrozenRecordPlanner` and
  :func:`build_host_plans_per_vm` — campaign setup one validated object
  at a time: the cluster built through ``Cluster.add_vm``, one frozen
  dataclass per profile and plan record, and each VM's workload facts
  looked up again for every VM;
* :class:`FormerLiveMigration`, :class:`FormerMigrationTP` and
  :func:`migrate_group_former` — the two migrators with their own copies
  of the pre-copy workflow, and the group driver that passed the receive
  queue position to ``LiveMigration`` alone;
* :data:`FORMER_CONVERTERS` — the three per-hypervisor UISR converter
  pairs (``to_uisr_xen``/``from_uisr_xen``, ``to_uisr_kvm``/
  ``from_uisr_kvm``, ``to_uisr_nova``/``from_uisr_nova``), each calling
  its hypervisor's native entry points by hand, which the one
  ``repro.core.convert`` pair must translate identically;
* :class:`PlanExecutor` and :class:`ExecutionResult` — the former
  arithmetic Fig. 13 engine: a plan timed as the sum over waves of the
  wave's migration times plus its slowest host upgrade, which the fleet
  controller's degenerate campaign
  (:class:`repro.fleet.upgrade.UpgradeCampaign`) must reproduce;
* :data:`FORMER_SKELETONS` — each hypervisor's former hand-written NPT
  class (:class:`XenP2M`, :class:`KVMEpt`, :class:`NovaNPT`), scheduler
  class (:class:`CreditScheduler`, :class:`CFSScheduler`,
  :class:`PriorityRoundRobin`) and per-domain ``_vmi_fixed_overhead``,
  and :func:`memory_report_former`, which the NPTs, run queues and
  memory report the ``Hypervisor`` base class builds from each
  hypervisor's declared policy must equal.

Test-only: nothing outside ``tests/`` imports this module.
"""

import hashlib
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.model import Cluster, ClusterNode, ClusterVM, WorkloadKind
from repro.cluster.plan import (
    GroupPlan,
    InPlaceAction,
    MigrationAction,
    ReconfigurationPlan,
)
from repro.core.mechanisms import (
    DEFAULT_SLO_S,
    WORKLOAD_SLO_S,
    HostDecision,
    MechanismKind,
    MechanismPolicy,
    VMProfile,
    decide_fleet,
)
from repro.core import wire
from repro.core.migration import LiveMigration, MigrationReport, MigrationTP
from repro.core.pipeline import (
    InPlacePipeline,
    MigrationPipeline,
    Stage,
    StageCost,
    StagePlan,
    TransplantPipelines,
    _fold,
)
from repro.core.timings import DEFAULT_COST_MODEL, entries_for, plan_precopy
from repro.core.convert.compat import apply_platform_fixups
from repro.core.convert.verify import verify_restore_target
from repro.core.uisr.codec import encode_uisr
from repro.core.uisr.format import (
    UISR_VERSION,
    UISRDeviceState,
    UISRMemoryChunk,
    UISRMemoryMap,
    UISRPlatform,
    UISRVCpu,
    UISRVMState,
)
from repro.errors import (
    ClusterError,
    FleetError,
    MigrationError,
    PlanningError,
    SentinelError,
    SimulationError,
    UISRError,
)
from repro.fleet.controller import _HostPlan
from repro.fleet.state import HostState
from repro.guest.vm import VirtualMachine
from repro.hw.machine import CLUSTER_NODE_SPEC, MachineSpec
from repro.hw.memory import PAGE_2M, PAGE_4K
from repro.hypervisors.base import (
    Domain,
    Hypervisor,
    HypervisorKind,
    MemoryReport,
    NestedPageTable,
)
from repro.hypervisors.kvm import formats as kvm_formats
from repro.hypervisors.kvm.hypervisor import KVMHypervisor
from repro.hypervisors.nova import formats as nova_formats
from repro.hypervisors.nova.hypervisor import NOVAHypervisor
from repro.hypervisors.xen import formats as xen_formats
from repro.hypervisors.xen.hypervisor import XenHypervisor
from repro.sentinel.inventory import FleetInventory
from repro.sim.clock import SimClock
from repro.sim.engine import Engine


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
    cost = DEFAULT_COST_MODEL
    entries_per_vm = (
        entries_for(
            total_memory_bytes // max(1, vm_count), PAGE_2M,
            huge_pages=True,
        )
        if vm_count else 0
    )
    entry_counts = [entries_per_vm] * vm_count
    vm_shapes = [(1, entries_per_vm)] * vm_count
    capture = (cost.pram_phase_s(pipeline.spec, entry_counts)
               if vm_count else 0.0)
    total_entries = sum(entry_counts)
    translate = cost.translate_phase_s(pipeline.spec, vm_shapes)
    transfer = cost.reboot_phase_s(pipeline.spec, pipeline.target_kind,
                                   total_entries)
    restore = cost.restore_phase_s(pipeline.spec, vm_shapes)
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
    cost = DEFAULT_COST_MODEL
    rounds = plan_precopy(memory_bytes, pipeline.link_rate,
                          dirty_rate_bytes_s)
    capture = sum(r.duration_s for r in rounds)
    residual = rounds[-1].dirty_after_bytes
    transfer = residual / pipeline.link_rate
    restore = cost.stopcopy_overhead_s(pipeline.target_kind, vcpus)
    translate = (2 * cost.proxy_translate_s
                 if pipeline.charge_proxy else 0.0)
    stages = (
        StageCost(Stage.QUIESCE, cost.migration_setup_s,
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
    downtime = transfer + restore + translate
    total = busy + downtime
    return StagePlan(mechanism=pipeline.mechanism, stages=stages,
                     total_s=total, execute_s=total, downtime_s=downtime)


def former_inplace_timings(transplant) -> Tuple[float, float, float, float,
                                                float]:
    """``(pram, translation, reboot, restoration, downtime)`` of an
    :class:`~repro.core.inplace.InPlaceTP` about to run, priced the way
    its run priced each phase inline before it charged its stage plan."""
    cost = DEFAULT_COST_MODEL
    spec = transplant.machine.spec
    opts = transplant.opts
    domains = sorted(transplant.source.domains.values(),
                     key=lambda d: d.domid)
    entry_counts = []
    for domain in domains:
        image = domain.vm.image
        entry_counts.append(entries_for(image.size_bytes, image.page_size,
                                        opts.huge_pages))
    pram = cost.pram_phase_s(spec, entry_counts, parallel=opts.parallel)
    vm_shapes = [(domain.vm.config.vcpus, entries) for domain, entries
                 in zip(domains, entry_counts, strict=True)]
    translation = cost.translate_phase_s(spec, vm_shapes,
                                         parallel=opts.parallel)
    total_entries = sum(e for _, e in vm_shapes)
    reboot = cost.reboot_phase_s(spec, transplant.target_kind, total_entries)
    restoration = cost.restore_phase_s(
        spec, vm_shapes, parallel=opts.parallel,
        early_restoration=opts.early_restoration,
    )
    downtime = (translation + reboot + restoration
                + (0.0 if opts.prepare_ahead else pram))
    return pram, translation, reboot, restoration, downtime


def former_migration_timings(migrator, domain: Domain,
                             dirty_rate_bytes_s: float, concurrent: int,
                             receive_queue_position: int
                             ) -> Tuple[float, float]:
    """``(precopy, downtime)`` of a migration about to run, priced the way
    :class:`FormerLiveMigration` and :class:`FormerMigrationTP` priced it
    inline."""
    cost = DEFAULT_COST_MODEL
    vm = domain.vm
    rate = migrator._flow_rate(concurrent)
    rounds = plan_precopy(vm.image.size_bytes, rate, dirty_rate_bytes_s)
    precopy = cost.migration_setup_s + sum(r.duration_s for r in rounds)
    final_copy_s = rounds[-1].dirty_after_bytes / rate
    activation_s = cost.stopcopy_overhead_s(
        migrator.destination.hypervisor.kind, vm.config.vcpus)
    if migrator.heterogeneous:
        tail_s = 2 * cost.proxy_translate_s
    else:
        tail_s = receive_queue_position * activation_s
    return precopy, final_copy_s + activation_s + tail_s


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


# -- the former repro.fleet.simsync, verbatim ------------------------------------
#
# Its own process driver (FleetProcess) and primitives, kept as the
# reference that repro.sim.engine's one driver must schedule identically.


class Waitable:
    """Base class: something a :class:`FleetProcess` can yield on."""

    __slots__ = ()

    def subscribe(self, fn: Callable[[], None]) -> None:
        raise NotImplementedError


class Gate(Waitable):
    """A one-shot event: waiters park until :meth:`fire` is called."""

    __slots__ = ("_engine", "_waiters")

    def __init__(self, engine: Engine):
        self._engine = engine
        #: parked callbacks; None once the gate has fired
        self._waiters: Optional[List[Callable[[], None]]] = []

    @property
    def fired(self) -> bool:
        return self._waiters is None

    def fire(self) -> None:
        waiters, self._waiters = self._waiters, None
        for fn in waiters or ():
            self._engine.call_after(0.0, fn)

    def subscribe(self, fn: Callable[[], None]) -> None:
        if self._waiters is None:
            self._engine.call_after(0.0, fn)
        else:
            self._waiters.append(fn)


def fired_gate(engine: Engine) -> Gate:
    """A gate that is already open: subscribers wake at the current instant."""
    gate = Gate(engine)
    gate.fire()
    return gate


class Latch(Waitable):
    """A countdown barrier: fires its gate when ``count`` reaches zero."""

    def __init__(self, engine: Engine, count: int):
        if count < 0:
            raise FleetError(f"latch count must be >= 0, got {count}")
        self._gate = Gate(engine)
        self._count = count
        if count == 0:
            self._gate.fire()

    def count_down(self) -> None:
        if self._gate.fired:
            raise FleetError("latch already open")
        self._count -= 1
        if self._count == 0:
            self._gate.fire()

    def subscribe(self, fn: Callable[[], None]) -> None:
        self._gate.subscribe(fn)


class FifoSemaphore:
    """A counting semaphore whose grants are strict FIFO.

    ``acquire()`` returns a :class:`Gate` that fires when the permit is
    granted; ``release()`` hands the permit to the longest waiter.  A
    ``permits`` of ``None`` means unbounded (every acquire granted at once).
    An immediate grant returns the semaphore's one pre-fired gate: a fired
    gate holds no waiters, so every holder can share it.
    """

    __slots__ = ("_engine", "_capacity", "_free", "_queue", "_granted")

    def __init__(self, engine: Engine, permits: Optional[int]):
        if permits is not None and permits < 1:
            raise FleetError(f"semaphore needs >= 1 permit, got {permits}")
        self._engine = engine
        self._capacity = permits
        self._free = permits
        self._queue: Deque[Gate] = deque()
        self._granted = fired_gate(engine)

    def acquire(self) -> Gate:
        if self._free is None:
            return self._granted
        if self._free > 0:
            self._free -= 1
            return self._granted
        gate = Gate(self._engine)
        self._queue.append(gate)
        return gate

    def release(self) -> None:
        if self._free is None:
            return
        if self._queue:
            self._queue.popleft().fire()
        elif self._free >= self._capacity:
            # A double-release would silently raise the admission cap above
            # its configured permit count; fail loudly instead.
            raise FleetError(
                f"semaphore over-released: all {self._capacity} permits "
                f"are already free"
            )
        else:
            self._free += 1

    def held(self) -> "SemaphoreHold":
        """Scope a permit to a ``with`` block.

        ::

            with sem.held() as granted:
                yield granted       # park until the permit is ours
                ...                 # critical section

        The permit is returned (or the pending request withdrawn) when the
        block exits — on normal fall-through, ``return``, and exception
        unwinds alike, which is what makes release-on-exception structural
        rather than a per-call-site obligation.
        """
        return SemaphoreHold(self)

    def _settle(self, gate: Optional[Gate]) -> None:
        """End a ``held()`` region: give the permit back, or withdraw a
        request that was never granted (the process unwound while queued)."""
        if gate is not None and not gate.fired:
            self._queue.remove(gate)
            return
        self.release()


class SemaphoreHold:
    """Context manager tying one semaphore permit to a ``with`` scope."""

    def __init__(self, sem: FifoSemaphore):
        self._sem = sem
        self._gate: Optional[Gate] = None
        self._active = False

    def __enter__(self) -> Gate:
        if self._active:
            raise FleetError("held() scope re-entered")
        self._active = True
        self._gate = self._sem.acquire()
        return self._gate

    def __exit__(self, exc_type, exc, tb) -> bool:
        gate, self._gate = self._gate, None
        self._active = False
        self._sem._settle(gate)
        return False


class FleetProcess:
    """Drives a generator that yields floats (sleep) or waitables (park).

    The fleet analogue of :class:`repro.sim.engine.Process`; the extra
    yield type is what lets host state machines express admission control
    and barriers without busy-waiting.
    """

    def __init__(self, engine: Engine, gen: Generator, name: str = ""):
        self._engine = engine
        self._gen = gen
        self.name = name or repr(gen)
        self.done = False
        self.result = None
        self.error: Optional[BaseException] = None

    def start(self) -> "FleetProcess":
        self._engine.call_after(0.0, self._step)
        return self

    def close(self) -> None:
        """Abandon the process: drop its suspended frame without running it.

        Crash teardown calls this so host generators are closed in a
        deterministic order instead of by the garbage collector, whose
        arbitrary close order of ``yield from`` chains spills
        "generator already executing" noise onto stderr.
        """
        self.done = True
        self._gen.close()

    def _step(self) -> None:
        if self.done:
            return
        try:
            item = next(self._gen)
        except StopIteration as stop:
            self.done = True
            self.result = getattr(stop, "value", None)
            return
        except BaseException as exc:  # surfaced when the engine runs
            self.done = True
            self.error = exc
            raise
        if (isinstance(item, (int, float)) and not isinstance(item, bool)
                and item >= 0):
            self._engine.call_after(float(item), self._step)
        elif isinstance(item, Waitable):
            item.subscribe(self._step)
        else:
            # bool is an int subclass: without the explicit rejection a
            # buggy ``yield done_flag`` becomes a silent 1-second sleep.
            raise SimulationError(
                f"fleet process {self.name!r} yielded {item!r}; expected a "
                f"non-negative delay or a Waitable"
            )


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


# -- campaign setup, one object at a time --------------------------------------
#
# The builders campaign setup used before it went bulk, verbatim but for
# the names of the reference types they build: the paper cluster built
# VM by VM through Cluster.add_vm, one frozen-dataclass profile per VM,
# frozen-dataclass plan records, a two-pass hybrid split, and the
# controller's host-plan builder as a free function over all of them.


def build_paper_cluster_per_vm(hosts: int = 10, vms_per_host: int = 10,
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


@dataclass(frozen=True)
class FrozenVMProfile:
    """The per-VM facts a mechanism decision consumes."""

    name: str
    memory_bytes: int
    dirty_rate_bytes_s: float
    downtime_slo_s: float
    #: False forbids riding the micro-reboot (the legacy
    #: ``inplace_compatible`` flag): the VM must evacuate if it can
    inplace_capable: bool = True
    #: False forbids MigrationTP (pass-through device, §4.2.3)
    migratable: bool = True

    @classmethod
    def from_cluster_vm(cls, vm) -> "FrozenVMProfile":
        """Adapt a duck-typed cluster VM (``name``, ``memory_bytes``,
        ``workload`` with ``value``/``dirty_rate_bytes_s``,
        ``inplace_compatible``)."""
        return cls(
            name=vm.name,
            memory_bytes=vm.memory_bytes,
            dirty_rate_bytes_s=vm.workload.dirty_rate_bytes_s,
            downtime_slo_s=WORKLOAD_SLO_S.get(vm.workload.value,
                                              DEFAULT_SLO_S),
            inplace_capable=vm.inplace_compatible,
        )


@dataclass(frozen=True)
class FrozenMigrationAction:
    """Live-migrate one VM between nodes (MigrationTP in a mixed cluster)."""

    vm_name: str
    source: str
    destination: str
    memory_bytes: int
    workload: WorkloadKind


@dataclass(frozen=True)
class FrozenInPlaceAction:
    """Micro-reboot one host into the target hypervisor with its VMs."""

    node_name: str
    vm_count: int
    total_memory_bytes: int


class TwoPassPolicy(MechanismPolicy):
    """``decide_host`` splitting hybrid hosts in two passes, with every
    name tuple and memory sum built by a generator."""

    def decide_host(self, host: str, vms: Sequence[VMProfile], *,
                    inplace: InPlacePipeline,
                    migration: MigrationPipeline,
                    spare_slots: int) -> HostDecision:
        if self.kind is MechanismKind.INPLACE:
            evacuate: List[VMProfile] = []
            riders = list(vms)
            reason = "operator pinned inplace: all VMs ride the reboot"
        elif self.kind is MechanismKind.MIGRATION:
            movable = [vm for vm in vms if vm.migratable]
            # Strictest SLOs first when capacity runs short.
            movable.sort(key=lambda vm: (vm.downtime_slo_s, vm.name))
            evacuate = movable[:max(0, spare_slots)]
            gone = {vm.name for vm in evacuate}
            riders = [vm for vm in vms if vm.name not in gone]
            reason = "operator pinned migration: evacuate everything movable"
        elif self.kind is MechanismKind.HYBRID:
            evacuate = [vm for vm in vms
                        if not vm.inplace_capable and vm.migratable]
            gone = {vm.name for vm in evacuate}
            riders = [vm for vm in vms if vm.name not in gone]
            reason = "paper default: evacuate InPlaceTP-incompatible VMs"
        else:
            evacuate, riders, reason = self._decide_auto(
                vms, inplace=inplace, migration=migration,
                spare_slots=spare_slots)

        predicted = self._predicted_downtime_s(riders, inplace)
        violations = tuple(
            vm.name for vm in riders
            if not vm.inplace_capable or vm.downtime_slo_s < predicted
        )
        if not evacuate:
            resolved = "inplace"
        elif not riders:
            resolved = "migration"
        else:
            resolved = "hybrid"
        return HostDecision(
            host=host,
            resolved=resolved,
            evacuate=tuple(vm.name for vm in evacuate),
            rides=tuple(vm.name for vm in riders),
            slo_violations=violations,
            predicted_downtime_s=predicted,
            reason=reason,
        )

    @staticmethod
    def _predicted_downtime_s(riders: Sequence[VMProfile],
                              inplace: InPlacePipeline) -> float:
        plan = inplace.plan_host(
            len(riders), sum(vm.memory_bytes for vm in riders))
        return plan.downtime_s


class FrozenRecordPlanner(BtrPlacePlanner):
    """``plan`` emitting frozen-dataclass records and copying each node's
    VM list before walking it."""

    def plan(self, apply: bool = True) -> ReconfigurationPlan:
        plan = ReconfigurationPlan()
        for index, group in enumerate(self._offline_groups()):
            group_plan = GroupPlan(group_index=index, nodes=list(group))
            for node_name in group:
                staying = []
                for vm in list(self.cluster.vms_on(node_name)):
                    if self.rides(vm):
                        staying.append(vm)
                        continue
                    dest = self._pick_destination(group, vm.name)
                    group_plan.migrations.append(FrozenMigrationAction(
                        vm_name=vm.name,
                        source=node_name,
                        destination=dest,
                        memory_bytes=vm.memory_bytes,
                        workload=vm.workload,
                    ))
                    if apply:
                        self.cluster.move_vm(vm.name, dest)
                group_plan.upgrades.append(FrozenInPlaceAction(
                    node_name=node_name,
                    vm_count=len(staying),
                    total_memory_bytes=sum(v.memory_bytes for v in staying),
                ))
                if apply:
                    self.cluster.mark_upgraded(node_name, "kvm")
            plan.groups.append(group_plan)
        return plan


def build_host_plans_per_vm(self, cluster: Cluster,
                            initial_vms: Dict[str, List[str]],
                            initial_free: Dict[str, int],
                            ) -> List[_HostPlan]:
    """``FleetController._build_host_plans`` over the reference types;
    ``self`` is a controller, whose ``decisions``, ``_waves`` and
    ``_chain_counts`` it sets."""
    # The §4.5.2 decision, per host, on the pristine placement: which
    # VMs evacuate and which ride.  A VM keeps its evacuate/ride class
    # for the whole campaign (re-migrations included), exactly like the
    # legacy inplace_compatible flag the hybrid policy reproduces.
    profiles = {
        name: [FrozenVMProfile.from_cluster_vm(cluster.vms[vm])
               for vm in vms]
        for name, vms in initial_vms.items()
    }
    self.decisions = decide_fleet(
        TwoPassPolicy(self.policy.kind), profiles, initial_free,
        inplace=self._pipelines.inplace(self.target_kind),
        migration=self._pipelines.migration(self.target_kind),
    )
    evacuate_class = {
        vm for decision in self.decisions.values()
        for vm in decision.evacuate
    }
    planner = FrozenRecordPlanner(
        cluster, group_size=self.config.group_size,
        rides=lambda vm: vm.name not in evacuate_class,
    )
    plan = planner.plan(apply=True)
    self._waves = len(plan.groups)
    migration_pipeline = self._pipelines.migration(self.target_kind)
    inplace_pipeline = self._pipelines.inplace(self.target_kind)
    chain_counts: Dict[str, int] = {}
    host_plans: Dict[str, _HostPlan] = {}
    for group in plan.groups:
        for upgrade in group.upgrades:
            host_plans[upgrade.node_name] = _HostPlan(
                name=upgrade.node_name,
                wave=group.group_index,
                upgrade=upgrade,
                initial_vms=list(initial_vms[upgrade.node_name]),
                plan=inplace_pipeline.plan_host(
                    upgrade.vm_count, upgrade.total_memory_bytes,
                ),
            )
        for action in group.migrations:
            position = chain_counts.get(action.vm_name, 0)
            chain_counts[action.vm_name] = position + 1
            host_plans[action.source].evacuations.append((
                action, position,
                migration_pipeline.plan_vm(
                    action.memory_bytes,
                    action.workload.dirty_rate_bytes_s,
                ),
            ))
    self._chain_counts = chain_counts
    return [host_plans[name] for name in sorted(host_plans)]


class FormerLiveMigration(LiveMigration):
    """``LiveMigration`` with its own pre-copy body, as it was before the
    two migrators shared ``_MigrationBase.migrate``."""

    def migrate(self, domain: Domain, clock: Optional[SimClock] = None,
                dirty_rate_bytes_s: float = 1 << 20,
                concurrent: int = 1,
                receive_queue_position: int = 0,
                guest_writes_rng: Optional[random.Random] = None
                ) -> MigrationReport:
        """Migrate one domain; ``receive_queue_position`` models Xen's
        serialized receive side (position 0 = first in the queue).

        Pass ``guest_writes_rng`` to actually mutate guest pages during
        pre-copy (the dirtied pages are re-sent and the destination must
        still match the source's state at pause time).
        """
        clock = clock or SimClock()
        src_hv: Hypervisor = self.source.hypervisor
        dst_hv: Hypervisor = self.destination.hypervisor
        vm = domain.vm
        self._check_migratable(vm)
        start = clock.now

        report = MigrationReport(
            vm_name=vm.name,
            source=f"{self.source.name}/{src_hv.kind.value}",
            destination=f"{self.destination.name}/{dst_hv.kind.value}",
            heterogeneous=False,
        )

        rate = self._flow_rate(concurrent)
        rounds = plan_precopy(vm.image.size_bytes, rate, dirty_rate_bytes_s)
        report.rounds = rounds
        report.precopy_s = (DEFAULT_COST_MODEL.migration_setup_s
                            + sum(r.duration_s for r in rounds))
        report.bytes_transferred = sum(r.bytes_sent for r in rounds)

        # The pre-copy rounds travel the wire protocol.
        stream = wire.MigrationStream()
        residual_gfns = self._stream_precopy(vm, rounds, stream,
                                             guest_writes_rng)
        clock.advance(report.precopy_s)

        # Stop-and-copy: pause, ship the residual dirty set + platform
        # state, activate at the destination.  Xen's receive side
        # serializes activations.
        pause_time = clock.now
        vm.pause(pause_time)
        residual = rounds[-1].dirty_after_bytes
        final_copy_s = residual / rate
        activation_s = DEFAULT_COST_MODEL.stopcopy_overhead_s(
            dst_hv.kind, vm.config.vcpus
        )
        queue_wait_s = receive_queue_position * activation_s
        report.downtime_s = final_copy_s + activation_s + queue_wait_s
        report.bytes_transferred += residual
        clock.advance(report.downtime_s)

        state_blob = src_hv.save_platform_state(domain)
        self._stream_stopcopy(vm, residual_gfns, state_blob, stream)
        final_digest = vm.image.content_digest()
        report.wire_messages = stream.messages_sent
        report.wire_bytes = stream.bytes_sent
        stats = stream.page_stats
        report.wire_unique_pages = stats.unique_digests
        report.wire_dedup_hits = stats.dedup_hits
        report.wire_dedup_ratio = stats.ratio
        report.pages_resent = sum(
            min(vm.image.page_count, r.dirty_after_bytes // vm.image.page_size)
            for r in rounds[:-1]
        ) + len(residual_gfns)

        # Destination proxy: rebuild the image, load the native state.  A
        # destination-side failure (e.g. out of memory) aborts the
        # migration; the source still owns the VM and simply resumes it.
        try:
            dst_image = self._receive_guest(vm, stream)
        except Exception as exc:
            vm.resume(clock.now)
            raise MigrationError(
                f"VM {vm.name}: destination failed during stop-and-copy; "
                f"resumed on the source: {exc}"
            ) from exc
        src_hv.detach_domain(domain.domid)
        vm.image.release()
        vm.image = dst_image
        new_domain = dst_hv.adopt_vm(vm)
        dst_hv.load_platform_state(new_domain, self._received_state_blob)
        vm.resume(clock.now)

        report.total_s = clock.now - start
        report.guest_digest_preserved = (
            vm.image.content_digest() == final_digest
        )
        if not report.guest_digest_preserved:
            raise MigrationError(
                f"VM {vm.name}: guest memory corrupted during migration"
            )
        return report


class FormerMigrationTP(MigrationTP):
    """``MigrationTP`` with its own pre-copy body, as it was before the
    two migrators shared ``_MigrationBase.migrate``."""

    def migrate(self, domain: Domain, clock: Optional[SimClock] = None,
                dirty_rate_bytes_s: float = 1 << 20,
                concurrent: int = 1,
                guest_writes_rng: Optional[random.Random] = None
                ) -> MigrationReport:
        """Migrate one domain across hypervisors."""
        clock = clock or SimClock()
        src_hv: Hypervisor = self.source.hypervisor
        dst_hv: Hypervisor = self.destination.hypervisor
        vm = domain.vm
        self._check_migratable(vm)
        start = clock.now

        report = MigrationReport(
            vm_name=vm.name,
            source=f"{self.source.name}/{src_hv.kind.value}",
            destination=f"{self.destination.name}/{dst_hv.kind.value}",
            heterogeneous=True,
        )

        rate = self._flow_rate(concurrent)
        rounds = plan_precopy(vm.image.size_bytes, rate, dirty_rate_bytes_s)
        report.rounds = rounds
        report.precopy_s = (DEFAULT_COST_MODEL.migration_setup_s
                            + sum(r.duration_s for r in rounds))
        report.bytes_transferred = sum(r.bytes_sent for r in rounds)

        # The pre-copy rounds travel the wire protocol; guest pages are
        # hypervisor-independent and never translated (§3.3).
        stream = wire.MigrationStream()
        residual_gfns = self._stream_precopy(vm, rounds, stream,
                                             guest_writes_rng)
        clock.advance(report.precopy_s)

        # Stop-and-copy with proxy translation.  The source proxy builds the
        # UISR; the destination proxy restores into the target's format.  No
        # queueing: kvmtool (and our Xen restore path) activate in parallel.
        pause_time = clock.now
        vm.pause(pause_time)
        residual = rounds[-1].dirty_after_bytes
        final_copy_s = residual / rate
        activation_s = DEFAULT_COST_MODEL.stopcopy_overhead_s(
            dst_hv.kind, vm.config.vcpus
        )
        report.downtime_s = (final_copy_s + activation_s
                             + 2 * DEFAULT_COST_MODEL.proxy_translate_s)
        report.bytes_transferred += residual
        clock.advance(report.downtime_s)

        # Source proxy: VM_i State -> UISR, encoded onto the wire.
        to_uisr = FORMER_CONVERTERS[src_hv.kind][0]
        uisr_state = to_uisr(src_hv, domain, pram_file=None)
        self._stream_stopcopy(vm, residual_gfns, encode_uisr(uisr_state),
                              stream)
        final_digest = vm.image.content_digest()
        report.wire_messages = stream.messages_sent
        report.wire_bytes = stream.bytes_sent
        stats = stream.page_stats
        report.wire_unique_pages = stats.unique_digests
        report.wire_dedup_hits = stats.dedup_hits
        report.wire_dedup_ratio = stats.ratio
        report.pages_resent = sum(
            min(vm.image.page_count, r.dirty_after_bytes // vm.image.page_size)
            for r in rounds[:-1]
        ) + len(residual_gfns)

        # Destination proxy: rebuild the image from the stream, decode the
        # UISR that arrived on the wire, restore into the target's format.
        # Destination-side failures abort: the source resumes the VM.
        from repro.core.uisr.codec import decode_uisr

        try:
            dst_image = self._receive_guest(vm, stream)
            arrived_state = decode_uisr(self._received_state_blob)
        except Exception as exc:
            vm.resume(clock.now)
            raise MigrationError(
                f"VM {vm.name}: destination failed during stop-and-copy; "
                f"resumed on the source: {exc}"
            ) from exc
        src_hv.detach_domain(domain.domid)
        vm.image.release()
        vm.image = dst_image

        from_uisr = FORMER_CONVERTERS[dst_hv.kind][1]
        new_domain = dst_hv.adopt_vm(vm)
        from_uisr(dst_hv, new_domain, arrived_state, pram_fs=None)
        vm.resume(clock.now)

        report.total_s = clock.now - start
        report.guest_digest_preserved = (
            vm.image.content_digest() == final_digest
        )
        if not report.guest_digest_preserved:
            raise MigrationError(
                f"VM {vm.name}: guest memory corrupted during MigrationTP"
            )
        return report


def migrate_group_former(migrator, domains: List[Domain],
                  clock: Optional[SimClock] = None,
                  dirty_rate_bytes_s: float = 1 << 20) -> List[MigrationReport]:
    """Migrate several VMs concurrently over one link.

    All flows share the link fairly (pre-copy slows down N-fold).  For the
    Xen baseline, stop-and-copy activations additionally queue at the
    receiver, reproducing Fig. 8's growing downtime variance; MigrationTP
    activates in parallel and keeps downtime flat.
    """
    clock = clock or SimClock()
    reports = []
    concurrent = len(domains)
    for position, domain in enumerate(domains):
        vm_clock = SimClock(clock.now)
        if isinstance(migrator, LiveMigration):
            report = migrator.migrate(
                domain, vm_clock, dirty_rate_bytes_s=dirty_rate_bytes_s,
                concurrent=concurrent, receive_queue_position=position,
            )
        else:
            report = migrator.migrate(
                domain, vm_clock, dirty_rate_bytes_s=dirty_rate_bytes_s,
                concurrent=concurrent,
            )
        reports.append(report)
    if reports:
        clock.advance(max(r.total_s for r in reports))
    return reports


# -- the former per-hypervisor UISR converter pairs ------------------------


def _memory_map_for(domain: Domain, pram_file: Optional[str]) -> UISRMemoryMap:
    image = domain.vm.image
    if pram_file is not None:
        return UISRMemoryMap(
            page_size=image.page_size,
            total_bytes=image.size_bytes,
            pram_file=pram_file,
        )
    order = (image.page_size // 4096).bit_length() - 1
    chunks = [
        UISRMemoryChunk(gfn=gfn, mfn=mfn, order=order)
        for gfn, mfn in image.mappings()
    ]
    return UISRMemoryMap(
        page_size=image.page_size,
        total_bytes=image.size_bytes,
        chunks=chunks,
    )


def _device_states(domain: Domain) -> List[UISRDeviceState]:
    from repro.devices.model import transplant_strategy_for

    states = []
    for driver in domain.vm.devices:
        strategy, payload = transplant_strategy_for(driver)
        states.append(UISRDeviceState(
            name=driver.name,
            device_class=type(driver).__name__,
            strategy=strategy,
            payload=payload,
        ))
    return states


def to_uisr_xen(hypervisor: XenHypervisor, domain: Domain,
                pram_file: Optional[str] = None) -> UISRVMState:
    """Translate a Xen domain's VM_i State into UISR."""
    if hypervisor.kind is not HypervisorKind.XEN:
        raise UISRError(f"to_uisr_xen called on {hypervisor.kind.value}")
    blob = hypervisor.toolstack.xc_domain_hvm_getcontext(domain.domid)
    vcpus, platform = hypervisor.toolstack.decode_context(blob)
    return UISRVMState(
        version=UISR_VERSION,
        vm_name=domain.vm.name,
        vcpu_count=domain.vm.config.vcpus,
        memory_bytes=domain.vm.image.size_bytes,
        source_hypervisor=HypervisorKind.XEN.value,
        vcpus=[UISRVCpu(v) for v in vcpus],
        platform=UISRPlatform(platform),
        memory_map=_memory_map_for(domain, pram_file),
        devices=_device_states(domain),
    )


def from_uisr_xen(hypervisor: XenHypervisor, domain: Domain,
                  state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into a Xen domain via the toolstack."""
    if hypervisor.kind is not HypervisorKind.XEN:
        raise UISRError(f"from_uisr_xen called on {hypervisor.kind.value}")
    verify_restore_target(
        domain,
        vm_name=state.vm_name,
        vcpu_count=state.vcpu_count,
        memory_bytes=state.memory_bytes,
        devices=state.devices,
    )
    domain.provenance = (state.source_hypervisor, state.version)

    if state.memory_map.by_reference:
        if pram_fs is None:
            raise UISRError(
                f"UISR {state.vm_name} references PRAM file "
                f"{state.memory_map.pram_file!r} but no PRAM fs was provided"
            )
        gfn_to_mfn = pram_fs.layout_of(state.memory_map.pram_file)
        domain.vm.image.adopt_mapping(gfn_to_mfn)

    platform = apply_platform_fixups(
        state.platform.platform, target_ioapic_pins=hypervisor.ioapic_pins
    )
    blob = xen_formats.encode_hvm_context(
        [record.vcpu for record in state.vcpus], platform
    )
    hypervisor.toolstack.xc_domain_hvm_setcontext(domain.domid, blob)
    # The p2m must reflect the (possibly adopted) memory layout.
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain


def to_uisr_kvm(hypervisor: KVMHypervisor, domain: Domain,
                pram_file: Optional[str] = None) -> UISRVMState:
    """Translate a KVM domain's VM_i State into UISR."""
    if hypervisor.kind is not HypervisorKind.KVM:
        raise UISRError(f"to_uisr_kvm called on {hypervisor.kind.value}")
    bundle = hypervisor.vmm_for(domain.domid).read_state_bundle()
    vcpus, platform = kvm_formats.decode_bundle(bundle)
    return UISRVMState(
        version=UISR_VERSION,
        vm_name=domain.vm.name,
        vcpu_count=domain.vm.config.vcpus,
        memory_bytes=domain.vm.image.size_bytes,
        source_hypervisor=HypervisorKind.KVM.value,
        vcpus=[UISRVCpu(v) for v in vcpus],
        platform=UISRPlatform(platform),
        memory_map=_memory_map_for(domain, pram_file),
        devices=_device_states(domain),
    )


def from_uisr_kvm(hypervisor: KVMHypervisor, domain: Domain,
                  state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into a KVM domain via kvmtool ioctls."""
    if hypervisor.kind is not HypervisorKind.KVM:
        raise UISRError(f"from_uisr_kvm called on {hypervisor.kind.value}")
    verify_restore_target(
        domain,
        vm_name=state.vm_name,
        vcpu_count=state.vcpu_count,
        memory_bytes=state.memory_bytes,
        devices=state.devices,
    )
    domain.provenance = (state.source_hypervisor, state.version)

    vmm = hypervisor.vmm_for(domain.domid)

    # Memory first: KVM needs the guest memory address before vCPU state.
    if state.memory_map.by_reference:
        if pram_fs is None:
            raise UISRError(
                f"UISR {state.vm_name} references PRAM file "
                f"{state.memory_map.pram_file!r} but no PRAM fs was provided"
            )
        gfn_to_mfn = pram_fs.layout_of(state.memory_map.pram_file)
        vmm.mmap_guest_memory(gfn_to_mfn)

    platform = apply_platform_fixups(
        state.platform.platform, target_ioapic_pins=hypervisor.ioapic_pins
    )
    bundle = kvm_formats.encode_bundle(
        [record.vcpu for record in state.vcpus], platform
    )
    vmm.apply_state_bundle(bundle)
    # The EPT must reflect the (possibly adopted) memory layout.
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain


def to_uisr_nova(hypervisor: NOVAHypervisor, domain: Domain,
                 pram_file: Optional[str] = None) -> UISRVMState:
    """Translate a NOVA domain's VM_i State into UISR."""
    if hypervisor.kind is not HypervisorKind.NOVA:
        raise UISRError(f"to_uisr_nova called on {hypervisor.kind.value}")
    blob = hypervisor.save_platform_state(domain)
    vcpus, platform = nova_formats.decode_snapshot(blob)
    return UISRVMState(
        version=UISR_VERSION,
        vm_name=domain.vm.name,
        vcpu_count=domain.vm.config.vcpus,
        memory_bytes=domain.vm.image.size_bytes,
        source_hypervisor=HypervisorKind.NOVA.value,
        vcpus=[UISRVCpu(v) for v in vcpus],
        platform=UISRPlatform(platform),
        memory_map=_memory_map_for(domain, pram_file),
        devices=_device_states(domain),
    )


def from_uisr_nova(hypervisor: NOVAHypervisor, domain: Domain,
                   state: UISRVMState, pram_fs=None) -> Domain:
    """Restore a UISR document into a NOVA domain."""
    if hypervisor.kind is not HypervisorKind.NOVA:
        raise UISRError(f"from_uisr_nova called on {hypervisor.kind.value}")
    verify_restore_target(
        domain,
        vm_name=state.vm_name,
        vcpu_count=state.vcpu_count,
        memory_bytes=state.memory_bytes,
        devices=state.devices,
    )
    domain.provenance = (state.source_hypervisor, state.version)

    if state.memory_map.by_reference:
        if pram_fs is None:
            raise UISRError(
                f"UISR {state.vm_name} references PRAM file "
                f"{state.memory_map.pram_file!r} but no PRAM fs was provided"
            )
        gfn_to_mfn = pram_fs.layout_of(state.memory_map.pram_file)
        domain.vm.image.adopt_mapping(gfn_to_mfn)

    platform = apply_platform_fixups(
        state.platform.platform, target_ioapic_pins=hypervisor.ioapic_pins
    )
    blob = nova_formats.encode_snapshot(
        [record.vcpu for record in state.vcpus], platform
    )
    hypervisor.load_platform_state(domain, blob)
    domain.npt = hypervisor.build_npt(domain.vm)
    return domain


#: hypervisor kind -> its former (to_uisr, from_uisr) pair
FORMER_CONVERTERS = {
    HypervisorKind.XEN: (to_uisr_xen, from_uisr_xen),
    HypervisorKind.KVM: (to_uisr_kvm, from_uisr_kvm),
    HypervisorKind.NOVA: (to_uisr_nova, from_uisr_nova),
}


# -- the former repro.cluster.executor, verbatim -------------------------------


@dataclass
class ExecutionResult:
    """Timing outcome of one plan."""

    total_s: float
    migration_s: float
    upgrade_s: float
    migration_count: int
    upgrade_count: int
    per_group_s: List[float] = field(default_factory=list)
    # (vm_name, seconds) per action — a VM can migrate more than once.
    per_migration_s: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def total_minutes(self) -> float:
        return self.total_s / 60.0


class PlanExecutor:
    """Times a :class:`ReconfigurationPlan` against the staged pipeline."""

    def __init__(self, node_spec: MachineSpec = CLUSTER_NODE_SPEC,
                 target_kind: HypervisorKind = HypervisorKind.KVM):
        self.node_spec = node_spec
        self.target_kind = target_kind
        self.pipelines = TransplantPipelines(node_spec)

    # -- per-action stage plans ----------------------------------------------

    def migration_plan(self, action: MigrationAction) -> StagePlan:
        """MigrationTP stage plan for one evacuation over the fabric."""
        return self.pipelines.migration(self.target_kind).plan_vm(
            action.memory_bytes, action.workload.dirty_rate_bytes_s,
        )

    def upgrade_plan(self, action: InPlaceAction) -> StagePlan:
        """InPlaceTP stage plan for one host carrying ``vm_count`` VMs."""
        return self.pipelines.inplace(self.target_kind).plan_host(
            action.vm_count, action.total_memory_bytes,
        )

    def migration_time_s(self, action: MigrationAction) -> float:
        return self.migration_plan(action).total_s

    def upgrade_time_s(self, action: InPlaceAction) -> float:
        return self.upgrade_plan(action).total_s

    # -- whole plan -----------------------------------------------------------

    def execute(self, plan: ReconfigurationPlan) -> ExecutionResult:
        migration_s = 0.0
        upgrade_s = 0.0
        per_group = []
        per_migration: List[Tuple[str, float]] = []
        for group in plan.groups:
            group_migration = 0.0
            for action in group.migrations:
                t = self.migration_time_s(action)
                per_migration.append((action.vm_name, t))
                group_migration += t
            # Hosts in a group reboot in parallel.
            group_upgrade = max(
                (self.upgrade_time_s(a) for a in group.upgrades), default=0.0
            )
            migration_s += group_migration
            upgrade_s += group_upgrade
            per_group.append(group_migration + group_upgrade)
        return ExecutionResult(
            total_s=migration_s + upgrade_s,
            migration_s=migration_s,
            upgrade_s=upgrade_s,
            migration_count=plan.migration_count,
            upgrade_count=plan.upgrade_count,
            per_group_s=per_group,
            per_migration_s=per_migration,
        )


# -- the former per-hypervisor NPT and scheduler classes -------------------
#
# Verbatim from hypervisors/xen/npt.py, hypervisors/kvm/npt.py,
# hypervisors/xen/scheduler.py, hypervisors/kvm/scheduler.py and
# hypervisors/nova/hypervisor.py, before each hypervisor only declared
# its policy.

# Bytes of p2m/m2p metadata per mapped guest page (8 B PTE + 8 B m2p entry
# + type/accounting tags).
_P2M_BYTES_PER_ENTRY = 24
_P2M_ROOT_OVERHEAD = 4 * PAGE_4K

XEN_NPT_POLICY = "xen-p2m"


class XenP2M(NestedPageTable):
    """Concrete NPT with Xen's p2m policy and an m2p reverse map."""

    def __init__(self, gfn_to_mfn: Dict[int, int], page_size: int):
        metadata = _P2M_ROOT_OVERHEAD + _P2M_BYTES_PER_ENTRY * len(gfn_to_mfn)
        super().__init__(
            gfn_to_mfn=gfn_to_mfn,
            page_size=page_size,
            policy_tag=XEN_NPT_POLICY,
            metadata_bytes=metadata,
        )
        self.m2p = {mfn: gfn for gfn, mfn in gfn_to_mfn.items()}

    def reverse_lookup(self, mfn: int) -> int:
        return self.m2p[mfn]


def build_p2m(vm: VirtualMachine) -> XenP2M:
    """Construct the p2m for a VM from its guest image mapping."""
    return XenP2M(dict(vm.image.mappings()), vm.image.page_size)


# 8 B EPT entry + 8 B rmap slot per mapped guest page.
_EPT_BYTES_PER_ENTRY = 16
_EPT_ROOT_OVERHEAD = 2 * PAGE_4K

KVM_NPT_POLICY = "kvm-ept"


class KVMEpt(NestedPageTable):
    """Concrete NPT with KVM's EPT/shadow-MMU policy."""

    def __init__(self, gfn_to_mfn: Dict[int, int], page_size: int):
        metadata = _EPT_ROOT_OVERHEAD + _EPT_BYTES_PER_ENTRY * len(gfn_to_mfn)
        super().__init__(
            gfn_to_mfn=gfn_to_mfn,
            page_size=page_size,
            policy_tag=KVM_NPT_POLICY,
            metadata_bytes=metadata,
        )
        # Host-side reverse-map slots (rebuilt lazily on faults in real KVM).
        self.rmap_slots = len(gfn_to_mfn)


def build_ept(vm: VirtualMachine) -> KVMEpt:
    """Construct the EPT for a VM from its guest image mapping."""
    return KVMEpt(dict(vm.image.mappings()), vm.image.page_size)


NOVA_NPT_POLICY = "nova-npt"

# 8 B hardware entry + 4 B capability-range tag per mapping.
_NOVA_BYTES_PER_ENTRY = 12
_NOVA_ROOT_OVERHEAD = PAGE_4K


class NovaNPT(NestedPageTable):
    """NPT with NOVA's capability-range policy."""

    def __init__(self, gfn_to_mfn: Dict[int, int], page_size: int):
        metadata = _NOVA_ROOT_OVERHEAD + _NOVA_BYTES_PER_ENTRY * len(gfn_to_mfn)
        super().__init__(
            gfn_to_mfn=gfn_to_mfn,
            page_size=page_size,
            policy_tag=NOVA_NPT_POLICY,
            metadata_bytes=metadata,
        )


DEFAULT_WEIGHT = 256
DEFAULT_CAP = 0  # uncapped


@dataclass
class CreditVCPU:
    """Per-vCPU credit accounting entry."""

    domid: int
    vcpu_index: int
    credit: int = 300
    weight: int = DEFAULT_WEIGHT
    cap: int = DEFAULT_CAP


@dataclass
class CreditRunqueue:
    """One physical CPU's run queue."""

    pcpu: int
    entries: List[CreditVCPU] = field(default_factory=list)


class CreditScheduler:
    """Credit-scheduler queues over a machine's physical CPUs."""

    def __init__(self, pcpus: int):
        self.pcpus = max(1, pcpus)
        self.runqueues: List[CreditRunqueue] = [
            CreditRunqueue(p) for p in range(self.pcpus)
        ]
        self._weights: Dict[int, int] = {}

    def add_domain(self, domid: int, vcpus: int,
                   weight: int = DEFAULT_WEIGHT) -> None:
        self._weights[domid] = weight
        for index in range(vcpus):
            queue = self.runqueues[(domid + index) % self.pcpus]
            queue.entries.append(
                CreditVCPU(domid=domid, vcpu_index=index, weight=weight)
            )

    def remove_domain(self, domid: int) -> None:
        self._weights.pop(domid, None)
        for queue in self.runqueues:
            queue.entries = [e for e in queue.entries if e.domid != domid]

    def rebuild(self, domains) -> None:
        """Reconstruct all queues from scratch (post-transplant path)."""
        weights = dict(self._weights)
        self.runqueues = [CreditRunqueue(p) for p in range(self.pcpus)]
        self._weights = {}
        for domain in domains:
            self.add_domain(
                domain.domid,
                domain.vm.config.vcpus,
                weight=weights.get(domain.domid, DEFAULT_WEIGHT),
            )

    def queued_vcpus(self) -> int:
        return sum(len(q.entries) for q in self.runqueues)

    def report(self) -> Dict[str, object]:
        return {
            "scheduler": "credit",
            "pcpus": self.pcpus,
            "queued_vcpus": self.queued_vcpus(),
            "domains": sorted(self._weights),
        }


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


@dataclass
class RRQueueEntry:
    """One scheduling context in the round-robin queue."""

    domid: int
    vcpu_index: int
    priority: int = 1


class PriorityRoundRobin:
    """NOVA's fixed-priority round-robin scheduler (VM Management State)."""

    def __init__(self, cpus: int):
        self.cpus = max(1, cpus)
        self.queues: List[List[RRQueueEntry]] = [[] for _ in range(self.cpus)]
        self._priorities: Dict[int, int] = {}

    def add_domain(self, domid: int, vcpus: int, priority: int = 1) -> None:
        self._priorities[domid] = priority
        for index in range(vcpus):
            queue = self.queues[(domid + 3 * index) % self.cpus]
            queue.append(RRQueueEntry(domid=domid, vcpu_index=index,
                                      priority=priority))

    def remove_domain(self, domid: int) -> None:
        self._priorities.pop(domid, None)
        for i, queue in enumerate(self.queues):
            self.queues[i] = [e for e in queue if e.domid != domid]

    def rebuild(self, domains) -> None:
        priorities = dict(self._priorities)
        self.queues = [[] for _ in range(self.cpus)]
        self._priorities = {}
        for domain in domains:
            self.add_domain(domain.domid, domain.vm.config.vcpus,
                            priority=priorities.get(domain.domid, 1))

    def queued_vcpus(self) -> int:
        return sum(len(q) for q in self.queues)

    def report(self) -> Dict[str, object]:
        return {
            "scheduler": "priority-rr",
            "cpus": self.cpus,
            "queued_vcpus": self.queued_vcpus(),
            "domains": sorted(self._priorities),
        }


@dataclass(frozen=True)
class FormerSkeleton:
    """What one hypervisor class used to build by hand."""

    build_npt: Callable[[VirtualMachine], NestedPageTable]
    scheduler: Callable[[int], object]  # CPU count -> empty scheduler
    vmi_fixed_overhead: int  # the former ``_vmi_fixed_overhead()``


FORMER_SKELETONS = {
    HypervisorKind.XEN: FormerSkeleton(
        build_p2m, lambda cpus: CreditScheduler(pcpus=cpus), 16 << 10),
    HypervisorKind.KVM: FormerSkeleton(
        build_ept, lambda cpus: CFSScheduler(cpus=cpus), 16 << 10),
    HypervisorKind.NOVA: FormerSkeleton(
        lambda vm: NovaNPT(dict(vm.image.mappings()), vm.image.page_size),
        lambda cpus: PriorityRoundRobin(cpus=cpus), 48 << 10),
}


def former_queue_contents(scheduler) -> List[List[Tuple[int, int]]]:
    """A former scheduler's per-CPU queues as ``(domid, vcpu)`` lists."""
    if isinstance(scheduler, PriorityRoundRobin):
        return [[(e.domid, e.vcpu_index) for e in queue]
                for queue in scheduler.queues]
    if isinstance(scheduler, CreditScheduler):
        return [[(e.domid, e.vcpu_index) for e in queue.entries]
                for queue in scheduler.runqueues]
    return [[(t.domid, t.vcpu_index) for t in queue.tasks]
            for queue in scheduler.runqueues]


def memory_report_former(hypervisor: Hypervisor) -> MemoryReport:
    """The former ``Hypervisor.memory_report``, with each domain's NPT
    built by its hypervisor's former NPT class and the former per-domain
    ``_vmi_fixed_overhead()``."""
    former = FORMER_SKELETONS[hypervisor.kind]
    guest = sum(d.vm.image.size_bytes for d in hypervisor.domains.values())
    vmi = sum(
        former.build_npt(d.vm).metadata_bytes
        + len(d.native_state_blob or b"")
        + former.vmi_fixed_overhead
        for d in hypervisor.domains.values()
    )
    mgmt = 4096 + 512 * len(hypervisor.domains)
    return MemoryReport(
        guest_state=guest,
        vmi_state=vmi,
        management_state=mgmt,
        hv_state=hypervisor.hv_state_bytes,
    )
