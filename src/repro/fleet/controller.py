"""Event-driven emergency-response control plane.

Closes the paper's loop end to end: a critical CVE lands in the
:mod:`repro.vulndb` feed, the advisor picks the non-vulnerable target
hypervisor, the BtrPlace-style planner shards the fleet into waves, and a
per-host state machine drives every host ``PENDING -> EVACUATING ->
TRANSPLANTING -> VERIFYING -> DONE`` on the discrete-event engine — with
injectable per-phase failures, bounded exponential-backoff retries, and
rollback to the source hypervisor on exhaustion.  The output is the fleet
vulnerability window the paper's Fig. 13 argues about, measured rather
than summed.

Scalability notes: every host is one generator process; contended
resources (the shared migration fabric, per-node capacity slots, per-VM
move locks, the admission cap) are FIFO wait queues that wake exactly one
waiter per release, so a campaign schedules O(events log events) with no
per-host polling.  The degenerate configuration — no failures,
``sequential_groups=True``, unbounded concurrency — reproduces the
:class:`repro.cluster.upgrade.UpgradeCampaign` (Fig. 13) total because it
times the identical plan with the identical staged pipeline
(:mod:`repro.core.pipeline`) — fleet per-host durations are the same
floats ``HyperTP.upgrade_host`` composes, stage by stage.
"""

import gc
import hashlib
import zlib
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import FleetError
from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.model import Cluster, build_paper_cluster
from repro.cluster.plan import InPlaceAction, MigrationAction
from repro.core.mechanisms import (
    HostDecision,
    MechanismPolicy,
    VMProfile,
    decide_fleet,
    mechanism_mix,
)
from repro.core.pipeline import Stage, StagePlan, TransplantPipelines, VerifySpec
from repro.core.timings import DEFAULT_COST_MODEL, CostModel
from repro.fleet.failures import FailureInjector, FailurePhase, RetryPolicy
from repro.fleet.metrics import FleetMetrics, collect_metrics
from repro.fleet.simsync import (
    FifoSemaphore,
    FleetProcess,
    Gate,
    Latch,
    fired_gate,
)
from repro.fleet.state import FleetTrace, HostRecord, HostState
from repro.hw.machine import CLUSTER_NODE_SPEC, Machine, MachineSpec
from repro.hypervisors.base import HypervisorKind
from repro.obs import NULL_TRACER, MetricsRegistry, trace_fleet
from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.vulndb.advisor import TransplantAdvisor
from repro.vulndb.data import VulnerabilityDatabase, load_default_database

#: a host record's state value, read without the enum's ``value`` property
_STATE_VALUE = attrgetter("state._value_")


@dataclass(frozen=True)
class FleetConfig:
    """Campaign shape and control-plane knobs."""

    hosts: int = 10
    vms_per_host: int = 10
    inplace_fraction: float = 0.8
    group_size: int = 2
    seed: int = 42
    #: max hosts simultaneously in flight (None = unbounded)
    concurrency: Optional[int] = 8
    #: strict Fig. 13 semantics: wave n+1 waits for wave n, and a wave's
    #: micro-reboots wait for all of the wave's evacuations
    sequential_groups: bool = False
    #: parallel streams on the shared fabric (1 = paper's serialized model)
    migration_streams: int = 1
    stall_timeout_s: float = 60.0
    kexec_watchdog_s: float = 30.0
    verify_fixed_s: float = 0.01
    verify_per_vm_s: float = 0.002
    #: per-host mechanism selection (§4.5.2): inplace / migration /
    #: hybrid / auto — see :mod:`repro.core.mechanisms`
    mechanism: str = "hybrid"
    trigger_cve: str = "CVE-2016-6258"
    current_hypervisor: str = "xen"
    pool: Tuple[str, ...] = ("xen", "kvm")
    disclosure_at_s: float = 0.0
    #: pin the destination hypervisor instead of asking the advisor.  A
    #: control plane that already scored its target (repro.sentinel) — or
    #: a *return* transplant, where no flaw forces the move — sets this;
    #: None keeps the classic advise-then-transplant path byte-identical.
    target_override: Optional[str] = None

    def __post_init__(self):
        if self.hosts < 1:
            raise FleetError(f"need >= 1 host, got {self.hosts}")
        if self.group_size < 1:
            raise FleetError(f"group size must be >= 1, got {self.group_size}")
        if self.concurrency is not None and self.concurrency < 1:
            raise FleetError(
                f"concurrency must be >= 1 or None, got {self.concurrency}"
            )
        if self.migration_streams < 1:
            raise FleetError(
                f"migration streams must be >= 1, got {self.migration_streams}"
            )
        for name in ("stall_timeout_s", "kexec_watchdog_s",
                     "verify_fixed_s", "verify_per_vm_s", "disclosure_at_s"):
            if getattr(self, name) < 0:
                raise FleetError(f"{name} must be >= 0")
        valid = ("inplace", "migration", "hybrid", "auto")
        if self.mechanism not in valid:
            raise FleetError(
                f"unknown mechanism {self.mechanism!r}; pick from {valid}"
            )
        if self.target_override is not None \
                and self.target_override == self.current_hypervisor:
            raise FleetError(
                f"target override {self.target_override!r} is already the "
                f"current hypervisor"
            )


@dataclass
class _HostPlan:
    """The planner's actions for one host, grouped for its state machine."""

    name: str
    wave: int
    upgrade: InPlaceAction
    # (action, position in the VM's whole-campaign migration chain,
    #  MigrationTP stage plan)
    evacuations: List[Tuple[MigrationAction, int, StagePlan]] = (
        field(default_factory=list))
    initial_vms: List[str] = field(default_factory=list)
    #: InPlaceTP stage plan (verify stage included) for this host
    plan: Optional[StagePlan] = None


class _SlotLedger:
    """Spare-capacity admission control: free VM slots per node.

    A migration reserves a destination slot before touching the fabric and
    frees a source slot once the VM has left; reservations wait FIFO per
    node, so overlapping waves can never overcommit a host even though the
    planner validated capacity only for sequential execution.  An
    immediate grant returns the ledger's one pre-fired gate.
    """

    def __init__(self, engine: Engine, free: Dict[str, int]):
        self._engine = engine
        self._free = dict(free)
        self._waiters: Dict[str, Deque[Gate]] = {
            name: deque() for name in free
        }
        self._granted = fired_gate(engine)

    def reserve(self, node: str) -> Gate:
        if self._free[node] > 0:
            self._free[node] -= 1
            return self._granted
        gate = Gate(self._engine)
        self._waiters[node].append(gate)
        return gate

    def release(self, node: str) -> None:
        waiters = self._waiters[node]
        if waiters:
            waiters.popleft().fire()
        else:
            self._free[node] += 1


class FleetController:
    """Runs one disclosure-to-remediation campaign on the sim engine."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 db: Optional[VulnerabilityDatabase] = None,
                 injector: Optional[FailureInjector] = None,
                 retry: Optional[RetryPolicy] = None,
                 node_spec: MachineSpec = CLUSTER_NODE_SPEC,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 tracer=NULL_TRACER,
                 registry: Optional[MetricsRegistry] = None,
                 journal=None):
        self.config = config = config if config is not None else FleetConfig()
        self.db = db if db is not None else load_default_database()
        self.injector = injector if injector is not None else FailureInjector()
        self.retry = retry if retry is not None else RetryPolicy()
        self.cost = cost_model
        self.tracer = tracer
        self.registry = registry
        # Any object with transition/wave_barrier/checkpoint/commit methods,
        # normally a repro.journal.CampaignJournal.  Duck-typed so the fleet
        # layer never imports repro.journal (which imports fleet lazily).
        self.journal = journal
        self.source_kind = HypervisorKind(config.current_hypervisor)
        if config.target_override is not None:
            # The caller (a policy layer such as repro.sentinel) already
            # validated the destination against its full open-CVE view;
            # re-advising here could silently pick a different target.
            self.advice = None
            self.target_kind = HypervisorKind(config.target_override)
        else:
            advisor = TransplantAdvisor(self.db,
                                        hypervisor_pool=list(config.pool))
            self.advice = advisor.advise_or_raise(
                config.trigger_cve, config.current_hypervisor,
            )
            if not self.advice.transplant_needed:
                raise FleetError(
                    f"{config.trigger_cve} does not require a transplant off "
                    f"{config.current_hypervisor}"
                )
            self.target_kind = HypervisorKind(self.advice.recommended_target)
        self._machine = Machine(node_spec, name="fleet-reference")
        # The one cost path: per-host durations come from the same staged
        # pipeline HyperTP.upgrade_host composes, verify stage included.
        self._pipelines = TransplantPipelines(
            machine=self._machine, node_spec=node_spec, cost=cost_model,
            verify=VerifySpec(config.verify_fixed_s, config.verify_per_vm_s),
        )
        self.policy = MechanismPolicy(config.mechanism)
        #: per-host §4.5.2 decisions, populated by run()
        self.decisions: Dict[str, HostDecision] = {}
        # Populated by run():
        self.trace = FleetTrace(journal=journal)
        self.records: Dict[str, HostRecord] = {}
        self.placement: Dict[str, str] = {}
        #: the hypervisor each host actually runs after the campaign — a
        #: rolled-back host stays on the (vulnerable) source hypervisor
        self.host_hypervisor: Dict[str, str] = {}

    # -- campaign setup ------------------------------------------------------

    def _build_host_plans(self, cluster: Cluster,
                          initial_vms: Dict[str, List[str]],
                          initial_free: Dict[str, int],
                          ) -> List[_HostPlan]:
        # The §4.5.2 decision, per host, on the pristine placement: which
        # VMs evacuate and which ride.  A VM keeps its evacuate/ride class
        # for the whole campaign (re-migrations included), exactly like the
        # legacy inplace_compatible flag the hybrid policy reproduces.
        profiles = {
            name: [VMProfile.from_cluster_vm(cluster.vms[vm]) for vm in vms]
            for name, vms in initial_vms.items()
        }
        self.decisions = decide_fleet(
            self.policy, profiles, initial_free,
            inplace=self._pipelines.inplace(self.target_kind),
            migration=self._pipelines.migration(self.target_kind),
        )
        evacuate_class = {
            vm for decision in self.decisions.values()
            for vm in decision.evacuate
        }
        planner = BtrPlacePlanner(
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

    def mechanism_mix(self) -> Dict[str, Dict[str, int]]:
        """Resolved per-mechanism host/VM counts (sorted keys)."""
        return mechanism_mix(self.decisions)

    # -- campaign ------------------------------------------------------------

    def run(self) -> FleetMetrics:
        cfg = self.config
        cluster = build_paper_cluster(
            hosts=cfg.hosts, vms_per_host=cfg.vms_per_host,
            inplace_fraction=cfg.inplace_fraction, seed=cfg.seed,
        )
        self._cluster = cluster
        initial_vms = {name: list(node.vms)
                       for name, node in cluster.nodes.items()}
        initial_free = {name: node.free_slots
                        for name, node in cluster.nodes.items()}
        self.placement = {vm.name: vm.node for vm in cluster.vms.values()}
        self.host_hypervisor = {name: self.source_kind.value
                                for name in cluster.nodes}

        host_plans = self._build_host_plans(cluster, initial_vms,
                                            initial_free)
        #: kept for inspection (the fleet/core parity test reads the
        #: stage plans the campaign actually charged)
        self.host_plans = host_plans

        engine = Engine(SimClock(cfg.disclosure_at_s))
        self._engine = engine
        self.tracer.bind_clock(lambda: engine.now)
        self.trace = FleetTrace(journal=self.journal)
        self._ledger = _SlotLedger(engine, initial_free)
        self._link = FifoSemaphore(engine, cfg.migration_streams)
        self._admission = FifoSemaphore(engine, cfg.concurrency)
        self._vm_locks: Dict[str, FifoSemaphore] = {
            vm: FifoSemaphore(engine, 1) for vm in sorted(self._chain_counts)
        }
        self._vm_gates: Dict[str, List[Gate]] = {
            vm: [Gate(engine) for _ in range(count)]
            for vm, count in sorted(self._chain_counts.items())
        }
        self._aborted: Set[str] = set()
        # host_plans is sorted by name, so the fault streams here and the
        # host records below list hosts in the order the state digest
        # needs.
        self._streams = {hp.name: self.injector.stream_for(hp.name)
                         for hp in host_plans}
        self._migrations_executed = 0
        # Rolling placement signature for checkpoint digests: a crc32
        # chained over every committed move, in execution order.  The
        # campaign is deterministic, so a resumed run re-executes the
        # same move sequence and lands on the same signature — and the
        # digest commits to the *order* of moves, not just the final
        # placement, without ever serializing the 10k-entry map.
        self._placement_sig = 0

        waves: Dict[int, List[_HostPlan]] = {}
        for hp in host_plans:
            waves.setdefault(hp.wave, []).append(hp)
        self._wave_release = {w: Gate(engine) for w in waves}
        self._wave_done = {w: Latch(engine, len(hps))
                           for w, hps in waves.items()}
        self._evac_latch = {w: Latch(engine, len(hps))
                            for w, hps in waves.items()}
        if self.journal is not None:
            # Subscribed before processes start and before wave chaining, so
            # each barrier record is durable before any waiter wakes on it
            # (gate/latch subscribers run in strict FIFO order) and a wave's
            # "wave-done" record precedes the next wave's "release".
            for w in sorted(waves):
                self._wave_release[w].subscribe(self._journal_barrier(
                    w, "release"))
                self._evac_latch[w].subscribe(self._journal_barrier(
                    w, "evac-done"))
                self._wave_done[w].subscribe(self._journal_barrier(
                    w, "wave-done"))
                self._wave_done[w].subscribe(self._journal_checkpoint)
        if cfg.sequential_groups:
            ordered = sorted(waves)
            self._wave_release[ordered[0]].fire()
            for earlier, later in zip(ordered, ordered[1:]):
                release = self._wave_release[later]
                self._wave_done[earlier].subscribe(release.fire)
        else:
            for gate in self._wave_release.values():
                gate.fire()

        self.records = {}
        processes = []
        for hp in host_plans:
            record = HostRecord(
                name=hp.name, wave=hp.wave,
                vm_count=len(hp.initial_vms),
                planned_migrations=len(hp.evacuations),
                disclosure_at_s=cfg.disclosure_at_s,
            )
            self.records[hp.name] = record
            process = FleetProcess(
                engine, self._host_process(record, hp), name=hp.name,
            )
            processes.append(process.start())
        if self.journal is not None:
            # Journal appends allocate a handful of objects per record,
            # and each collection those allocations trigger walks the
            # campaign's tens of thousands of live generator frames.
            # Freezing the heap here parks everything alive (the frames,
            # the cluster model) outside the collector for the duration
            # of the run, so the collections journaling triggers only
            # scan short-lived record garbage — GC stays on and pays its
            # own way; nothing is deferred onto the caller.
            gc.freeze()
            try:
                self._run_engine(engine, processes)
            finally:
                gc.unfreeze()
        else:
            self._run_engine(engine, processes)

        stuck = [p.name for p in processes if not p.done]
        stuck += [r.name for r in self.records.values()
                  if not r.state.terminal]
        if stuck:
            raise FleetError(f"campaign never terminated for: {sorted(set(stuck))}")
        completed = max(
            (t.time_s for t in self.trace.transitions if t.target.terminal),
            default=cfg.disclosure_at_s,
        )
        if self.tracer.enabled:
            # One campaign -> one trace: turn the (deterministic) transition
            # log into per-host state spans nested under wave envelopes.
            self.tracer.extend(trace_fleet(
                self.trace.transitions,
                host_waves={hp.name: hp.wave for hp in host_plans},
                start_s=cfg.disclosure_at_s,
                end_s=completed,
                campaign=f"campaign {cfg.trigger_cve}",
            ))
        metrics = collect_metrics(
            [self.records[name] for name in sorted(self.records)],
            self.trace,
            trigger_cve=cfg.trigger_cve,
            source_hypervisor=self.source_kind.value,
            target_hypervisor=self.target_kind.value,
            waves=self._waves,
            disclosure_at_s=cfg.disclosure_at_s,
            completed_at_s=completed,
            migrations_executed=self._migrations_executed,
            registry=self.registry,
            # Only a non-default mechanism annotates the document, so
            # hybrid campaigns stay byte-identical to pre-policy runs.
            mechanism=(cfg.mechanism if cfg.mechanism != "hybrid" else None),
            mechanism_mix=(self.mechanism_mix()
                           if cfg.mechanism != "hybrid" else None),
        )
        if self.journal is not None:
            # COMMIT carries a digest of the final recoverable state — the
            # teeth of the resume determinism contract: a resumed campaign
            # whose end state differs from the journaled promise fails
            # closed on the replay byte-compare.  The metrics document is
            # a deterministic function of that state, so it is bound too
            # (and CI additionally cmp-checks the artifacts byte-for-byte).
            self.journal.commit(completed,
                                self._state_digest(self._host_states()))
        return metrics

    @staticmethod
    def _run_engine(engine: Engine, processes: List[FleetProcess]) -> None:
        try:
            engine.run()
        except BaseException:
            # A crash — injected (JournalCrash) or real — leaves host
            # processes suspended mid-frame; close them deterministically
            # so teardown doesn't fall to the garbage collector.
            for process in processes:
                process.close()
            raise

    # -- journaling ----------------------------------------------------------

    def _journal_barrier(self, wave: int, kind: str):
        """A gate/latch subscriber that journals one wave boundary."""
        def record() -> None:
            self.journal.wave_barrier(self._engine.now, wave, kind)
        return record

    def _journal_checkpoint(self) -> None:
        """Journal a digest of the rebuildable controller state.

        Runs at each wave-done barrier.  Replay cross-checks the digest
        byte-for-byte, so a recovered controller proves its placement map,
        host records and fault-stream RNG positions match the crashed run.
        """
        states = self._host_states()
        self.journal.checkpoint(
            self._engine.now,
            self._state_digest(states),
            done_hosts=states.count(HostState.DONE.value),
            migrations_executed=self._migrations_executed,
        )

    def _host_states(self) -> List[str]:
        """Every host's state value, in sorted host order.

        ``records`` is filled in sorted host order, and the attrgetter
        reads the enum's raw ``_value_`` field, so the whole walk runs in
        C with no Python call per host (``.value`` is a property).
        """
        return list(map(_STATE_VALUE, self.records.values()))

    def _state_digest(self, states: List[str]) -> bytes:
        """SHA-256 over a canonical rendering of the recoverable state.

        Rendered as the ``repr`` of plain sorted tuples rather than JSON:
        the digest only has to be deterministic (replay byte-compares it
        against the journaled checkpoint).  The digest is deliberately
        slim: host names are implied by sorted order (naming is a
        deterministic function of the journaled config), and per-host
        retry/rollback/skip counters are transitively bound already —
        every retry and rollback emits transitions that replay
        byte-compares one by one.

        ``states`` comes from :meth:`_host_states`.  Hosts are read in
        sorted order without re-sorting, and sorting the aborted VM names
        runs in C, so a checkpoint makes no Python call per host: the
        per-host work is C-level list building, ``repr`` and ``sha256``.
        """
        state = (sorted(self._aborted), states, self._migrations_executed,
                 self._placement_sig,
                 list(map(attrgetter("draws"), self._streams.values())))
        return hashlib.sha256(repr(state).encode("utf-8")).digest()

    # -- host state machine --------------------------------------------------

    def _host_process(self, record: HostRecord, hp: _HostPlan):
        cfg = self.config
        yield self._wave_release[hp.wave]
        with self._admission.held() as admitted:
            yield admitted
            ok = yield from self._evacuate(record, hp)
            self._evac_latch[hp.wave].count_down()
            if ok and cfg.sequential_groups:
                # Fig. 13 semantics: the wave's micro-reboots start only once
                # all of the wave's evacuations are done.
                yield self._evac_latch[hp.wave]
            if ok:
                ok = yield from self._transplant(record, hp)
            if ok:
                ok = yield from self._verify(record, hp)
            if ok:
                record.transition(HostState.DONE, self._engine.now, self.trace)
                self.host_hypervisor[hp.name] = self.target_kind.value
        self._wave_done[hp.wave].count_down()

    def _evacuate(self, record: HostRecord, hp: _HostPlan):
        if not hp.evacuations:
            return True  # PENDING -> TRANSPLANTING directly
        record.transition(HostState.EVACUATING, self._engine.now, self.trace)
        for index, (action, position, plan) in enumerate(hp.evacuations):
            gates = self._vm_gates[action.vm_name]
            if position > 0:
                yield gates[position - 1]
            with self._vm_locks[action.vm_name].held() as vm_lock:
                yield vm_lock
                skipped = action.vm_name in self._aborted
                if skipped:
                    record.skipped_migrations += 1
                else:
                    ok = yield from self._migrate_with_retry(record, action,
                                                             position, plan)
            # The VM lock is returned here, before the chain gate fires or
            # a rollback starts pulling VMs back.
            if skipped:
                gates[position].fire()
                continue
            if not ok:
                yield from self._roll_back(record, hp,
                                           remaining=hp.evacuations[index + 1:])
                return False
        return True

    def _migrate_with_retry(self, record: HostRecord,
                            action: MigrationAction, position: int,
                            plan: StagePlan):
        """One evacuation with bounded retry.  Caller holds the VM lock."""
        cfg = self.config
        stream = self._streams[record.name]
        gates = self._vm_gates[action.vm_name]
        attempt = 0
        while True:
            yield self._ledger.reserve(action.destination)
            with self._link.held() as link:
                yield link
                stalled = stream.strikes(FailurePhase.EVACUATION)
                if stalled:
                    # The transfer stalls; the watchdog kills it after the
                    # timeout, the fabric and the reserved slot free up.
                    yield cfg.stall_timeout_s
                else:
                    yield plan.total_s
            # The fabric link is returned here on both outcomes.
            if not stalled:
                self._commit_move(action.vm_name, action.source,
                                  action.destination)
                gates[position].fire()
                return True
            self._ledger.release(action.destination)
            record.transition(
                HostState.FAILED, self._engine.now, self.trace,
                reason=f"{FailurePhase.EVACUATION.value}:{action.vm_name}",
            )
            if self.retry.exhausted(attempt):
                self._abort_vm(action.vm_name)
                gates[position].fire()
                return False
            record.transition(HostState.RETRYING, self._engine.now,
                              self.trace)
            record.retries += 1
            yield self.retry.backoff_s(attempt)
            attempt += 1
            record.transition(HostState.EVACUATING, self._engine.now,
                              self.trace)

    def _transplant(self, record: HostRecord, hp: _HostPlan):
        cfg = self.config
        stream = self._streams[record.name]
        record.transition(HostState.TRANSPLANTING, self._engine.now,
                          self.trace)
        attempt = 0
        while stream.strikes(FailurePhase.KEXEC):
            yield cfg.kexec_watchdog_s  # hang; watchdog fires, host recovers
            record.transition(HostState.FAILED, self._engine.now, self.trace,
                              reason=FailurePhase.KEXEC.value)
            if self.retry.exhausted(attempt):
                yield from self._roll_back(record, hp, remaining=[])
                return False
            record.transition(HostState.RETRYING, self._engine.now,
                              self.trace)
            record.retries += 1
            yield self.retry.backoff_s(attempt)
            attempt += 1
            record.transition(HostState.TRANSPLANTING, self._engine.now,
                              self.trace)
        # Execute = every stage up to verify; verify runs in _verify so the
        # trace's TRANSPLANTING/VERIFYING boundary is a stage boundary.
        yield hp.plan.execute_s
        return True

    def _verify(self, record: HostRecord, hp: _HostPlan):
        stream = self._streams[record.name]
        record.transition(HostState.VERIFYING, self._engine.now, self.trace)
        verify_s = hp.plan.stage_s(Stage.VERIFY)
        attempt = 0
        while True:
            yield verify_s
            if not stream.strikes(FailurePhase.VERIFY):
                return True
            record.transition(HostState.FAILED, self._engine.now, self.trace,
                              reason=FailurePhase.VERIFY.value)
            if self.retry.exhausted(attempt):
                # The host came up wrong: micro-reboot back to the source
                # hypervisor (ReHype-style recovery), then report rollback.
                yield self._pipelines.inplace(self.source_kind).plan_host(
                    hp.upgrade.vm_count, hp.upgrade.total_memory_bytes,
                ).execute_s
                yield from self._roll_back(record, hp, remaining=[])
                return False
            record.transition(HostState.RETRYING, self._engine.now,
                              self.trace)
            record.retries += 1
            yield self.retry.backoff_s(attempt)
            attempt += 1
            # Backoff covers re-translating the UISR; then verify again.
            record.transition(HostState.VERIFYING, self._engine.now,
                              self.trace)

    # -- rollback ------------------------------------------------------------

    def _roll_back(self, record: HostRecord, hp: _HostPlan, remaining):
        """Return the host to its pre-campaign state after retry exhaustion.

        Unexecuted evacuations are skipped (their VMs never left), every VM
        originally on the host is pulled back to it, and the host stays on
        the source hypervisor.  The host's VMs therefore remain exposed —
        which is exactly what the fleet window metric must report.
        """
        for action, position, _plan in remaining:
            record.skipped_migrations += 1
            self._abort_vm(action.vm_name)
            self._vm_gates[action.vm_name][position].fire()
        # Stop any future planned move of this host's original VMs: the
        # plan assumed they would sit wherever the campaign left them.
        for vm in hp.initial_vms:
            self._abort_vm(vm)
        for vm in hp.initial_vms:
            if self.placement[vm] == hp.name:
                continue
            # Serializes after any in-flight onward move of the same VM.
            with self._vm_locks[vm].held() as vm_lock:
                yield vm_lock
                source = self.placement[vm]
                if source != hp.name:
                    cluster_vm = self._cluster.vms[vm]
                    back = MigrationAction(
                        vm_name=vm, source=source, destination=hp.name,
                        memory_bytes=cluster_vm.memory_bytes,
                        workload=cluster_vm.workload,
                    )
                    yield self._ledger.reserve(hp.name)
                    with self._link.held() as link:
                        yield link
                        yield self._pipelines.migration(
                            self.source_kind,
                        ).plan_vm(
                            back.memory_bytes,
                            back.workload.dirty_rate_bytes_s,
                        ).total_s
                    self._commit_move(vm, source, hp.name)
        record.rollbacks += 1
        record.transition(HostState.ROLLED_BACK, self._engine.now, self.trace,
                          reason="retries-exhausted")

    # -- shared bookkeeping ---------------------------------------------------

    def _abort_vm(self, vm: str) -> None:
        if vm in self._chain_counts:
            self._aborted.add(vm)

    def _commit_move(self, vm: str, source: str, destination: str) -> None:
        self.placement[vm] = destination
        if self.journal is not None:
            move = f"{vm}\x1f{source}\x1f{destination}".encode("utf-8")
            self._placement_sig = zlib.crc32(move, self._placement_sig)
        self._ledger.release(source)
        self._migrations_executed += 1
