"""The sentinel: an event-driven response plane over the fleet layer.

This is the paper's operational loop (§1) running continuously instead of
once: disclosures stream in from the feed, the inventory tracks what every
host runs, the policy gates and scores responses, and the responder
launches :class:`~repro.fleet.controller.FleetController` campaigns to
move exposed hosts — then back again when the patch-release timer closes
each flaw.

Structure: the sentinel owns one discrete-event engine (the *control*
plane).  Each launched campaign runs eagerly on its own engine (the
fleet's *data* plane is a seeded deterministic simulation, so its whole
trajectory is known the instant it launches) and is then replayed onto
the control-plane clock as per-host *commit* events.  The split is what
makes mid-campaign preemption expressible: when a new critical CVE lands
on an in-flight campaign's **target** hypervisor, the sentinel cancels
the not-yet-committed events — those hosts never moved — and re-queues
the source kind for fresh advice, exactly the target re-validation the
paper's repertoire argument requires.

Overlap semantics, in order of precedence:

1. a disclosure on an in-flight campaign's *target* preempts it;
2. a disclosure on a kind already being responded to (queued or in
   flight) coalesces into that response — the re-validation at launch
   scans *all* open CVEs, so nothing is lost;
3. otherwise the disclosure queues a new response, admitted FIFO under
   ``max_concurrent_campaigns``.
"""

import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.model import NODE_CAPACITY_VMS
from repro.errors import SentinelError
from repro.obs import Trace, trace_sentinel
from repro.sentinel.feedstream import (
    DisclosureEvent,
    FeedSchedule,
    build_feed,
    feed_statistics,
)
from repro.sentinel.inventory import FleetInventory
from repro.sentinel.policy import PolicyConfig, ResponsePolicy
from repro.sim.clock import SimClock
from repro.sim.engine import Engine, Event
from repro.vulndb.data import VulnerabilityDatabase, load_default_database


@dataclass(frozen=True)
class SentinelConfig:
    """The whole response-plane setup: fleet shape, feed, policy."""

    hosts: int = 20
    vms_per_host: int = 10
    inplace_fraction: float = 0.8
    group_size: int = 2
    concurrency: Optional[int] = 8
    mechanism: str = "hybrid"
    seed: int = 42
    current_hypervisor: str = "xen"
    pool: Tuple[str, ...] = ("xen", "kvm")
    feed: FeedSchedule = FeedSchedule()
    policy: PolicyConfig = PolicyConfig()

    def __post_init__(self):
        if self.hosts < 1:
            raise SentinelError(f"need >= 1 host, got {self.hosts}")
        if not 1 <= self.vms_per_host <= NODE_CAPACITY_VMS:
            raise SentinelError(
                f"need 1..{NODE_CAPACITY_VMS} VMs per host, got "
                f"{self.vms_per_host}"
            )
        if not self.pool:
            raise SentinelError("hypervisor pool cannot be empty")
        if self.current_hypervisor not in self.pool:
            raise SentinelError(
                f"current hypervisor {self.current_hypervisor!r} is not in "
                f"the pool {self.pool}"
            )
        if self.policy.preferred_hypervisor is not None \
                and self.policy.preferred_hypervisor not in self.pool:
            raise SentinelError(
                f"preferred hypervisor "
                f"{self.policy.preferred_hypervisor!r} is not in the pool"
            )

    # -- plain-data transport (the par payload contract) -------------------

    def to_payload(self) -> Dict[str, Any]:
        """A plain-dict rendering safe to ship over the worker pipe."""
        payload = asdict(self)
        payload["pool"] = list(self.pool)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SentinelConfig":
        data = dict(payload)
        data["pool"] = tuple(data.get("pool", ("xen", "kvm")))
        if isinstance(data.get("feed"), dict):
            data["feed"] = FeedSchedule(**data["feed"])
        if isinstance(data.get("policy"), dict):
            data["policy"] = PolicyConfig(**data["policy"])
        return cls(**data)


@dataclass
class CVEState:
    """Lifecycle of one disclosed flaw, as the sentinel saw it."""

    cve_id: str
    disclosed_at_s: float
    severity: str
    affected: List[str]
    exposed_at_disclosure: int
    #: "not-exposed" | "transplant" | "patch"; None while still open
    remediation: Optional[str] = None
    remediated_at_s: Optional[float] = None
    closed_at_s: Optional[float] = None
    #: indices of campaigns this flaw triggered
    campaigns: List[int] = field(default_factory=list)
    residual: bool = False

    @property
    def window_s(self) -> Optional[float]:
        if self.remediated_at_s is None:
            return None
        return self.remediated_at_s - self.disclosed_at_s


@dataclass
class CampaignRecord:
    """One launched fleet campaign, as the report serializes it."""

    index: int
    kind: str  # "response" | "return"
    trigger_cve: Optional[str]
    source: str
    target: str
    requested_at_s: float
    launched_at_s: Optional[float] = None
    completed_at_s: Optional[float] = None
    hosts: int = 0
    hosts_remediated: int = 0
    hosts_rolled_back: int = 0
    escape_fraction: Optional[float] = None
    preempted_at_s: Optional[float] = None
    preempted_by: Optional[str] = None


@dataclass
class _Request:
    """A queued decision to move hosts off a hypervisor kind."""

    source_kind: str
    trigger_cve: Optional[str]  # None = return transplant
    forced_target: Optional[str]
    created_at_s: float


class _Active:
    """Slot-holding campaign state: reserved, launched, or draining."""

    def __init__(self, request: _Request, record: CampaignRecord):
        self.request = request
        self.record = record
        self.target: Optional[str] = None
        self.commit_events: Dict[str, Event] = {}
        self.completion_event: Optional[Event] = None
        self.preempted = False


class Sentinel:
    """Replays a disclosure feed against a simulated fleet, responding."""

    def __init__(self, config: Optional[SentinelConfig] = None,
                 db: Optional[VulnerabilityDatabase] = None,
                 journal_dir: Optional[str] = None):
        self.config = config if config is not None else SentinelConfig()
        self.db = db if db is not None else load_default_database()
        self.journal_dir = journal_dir
        #: the campaign journals opened under ``journal_dir``, in launch
        #: order
        self.journals: List = []
        self.policy = ResponsePolicy(self.config.policy, self.db,
                                     self.config.pool)
        self.inventory = FleetInventory({
            f"host{i:04d}": self.config.current_hypervisor
            for i in range(self.config.hosts)
        })
        self.states: Dict[str, CVEState] = {}
        self.campaigns: List[CampaignRecord] = []
        self.counters: Dict[str, int] = {
            "disclosures": 0,
            "duplicates_ignored": 0,
            "gate_passed": 0,
            "gate_skipped": 0,
            "campaigns_launched": 0,
            "returns_launched": 0,
            "preemptions": 0,
            "residual_unresolved": 0,
            "capacity_blocked": 0,
            "requests_dropped": 0,
        }
        self._engine: Optional[Engine] = None
        self._queue: List[_Request] = []
        self._active: List[_Active] = []
        self._events: List[DisclosureEvent] = []
        self._home = (self.config.policy.preferred_hypervisor
                      or self.config.current_hypervisor)

    # ------------------------------------------------------------------
    # the run loop

    def run(self):
        """Replay the feed to quiescence; returns a SentinelReport."""
        from repro.sentinel.report import build_report

        self._events = build_feed(self.db, self.config.feed)
        engine = Engine(SimClock(self.config.feed.start_s))
        self._engine = engine
        for event in self._events:
            engine.call_at(event.time_s,
                           self._disclosure_handler(event))
        engine.run()

        open_left = self.inventory.open_cves()
        if open_left:
            raise SentinelError(
                f"feed drained with flaws still open: {open_left}"
            )
        return build_report(
            config=self.config,
            feed_stats=feed_statistics(self._events, self.db),
            states=[self.states[c] for c in sorted(self.states)],
            campaigns=list(self.campaigns),
            inventory=self.inventory,
            counters=dict(self.counters),
            db=self.db,
            completed_at_s=engine.now,
        )

    def timeline(self) -> Trace:
        """The response-plane span timeline of the replay :meth:`run`
        finished: one track per CVE window and per campaign."""
        if self._engine is None:
            raise SentinelError("timeline() needs a replay run() finished")
        return trace_sentinel(
            [s for c, s in sorted(self.states.items())],
            self.campaigns,
            end_s=self._engine.now,
        )

    # ------------------------------------------------------------------
    # disclosure handling

    def _disclosure_handler(self, event: DisclosureEvent):
        def fire() -> None:
            self._on_disclosure(event)
        return fire

    def _on_disclosure(self, event: DisclosureEvent) -> None:
        now = self._engine.now
        self.counters["disclosures"] += 1
        if event.duplicate or event.cve_id in self.states:
            # A re-announcement of a flaw already being handled.
            self.counters["duplicates_ignored"] += 1
            return
        record = self.db.get(event.cve_id)
        self.inventory.open_cve(now, record)
        state = CVEState(
            cve_id=event.cve_id,
            disclosed_at_s=now,
            severity=record.severity.value,
            affected=sorted(record.affected),
            # The one full host scan per disclosure; accruals and
            # remediation checks use the O(kinds) count.
            exposed_at_disclosure=len(self.inventory.exposed_hosts(
                event.cve_id)),
        )
        self.states[event.cve_id] = state
        # The ordinary patch cycle runs regardless of any transplant: when
        # it fires the flaw is closed fleet-wide and returns can happen.
        self._engine.call_at(
            self.policy.patch_closes_at(record, now),
            self._patch_close_handler(event.cve_id),
        )
        # Precedence 1: a critical hit on an in-flight campaign's target
        # invalidates its advice — preempt before anything else, even the
        # not-exposed shortcut: hosts may be *en route* to the flawed kind
        # with no commit landed yet, and those moves must be cancelled.
        for active in list(self._active):
            if active.target is not None and not active.preempted \
                    and self.policy.should_respond(record, active.target):
                self._preempt(active, record.cve_id)

        if self.inventory.exposure_count(event.cve_id) == 0:
            # Nobody runs an affected hypervisor (any more — a preemption
            # above may just have cancelled the moves that would have
            # created exposure), so the window closes at disclosure.
            state.remediation = "not-exposed"
            state.remediated_at_s = now
            self._pump()  # preempted kinds re-queued above need the slot
            return

        # Precedence 2/3: gate per hypervisor kind actually in the fleet.
        for kind in sorted(self.inventory.kinds()):
            if not self.policy.should_respond(record, kind):
                self.counters["gate_skipped"] += 1
                continue
            self.counters["gate_passed"] += 1
            self._enqueue(_Request(
                source_kind=kind, trigger_cve=record.cve_id,
                forced_target=None, created_at_s=now,
            ))
        self._pump()

    # ------------------------------------------------------------------
    # patch-cycle closure and return transplants

    def _patch_close_handler(self, cve_id: str):
        def fire() -> None:
            self._on_patch_close(cve_id)
        return fire

    def _on_patch_close(self, cve_id: str) -> None:
        now = self._engine.now
        state = self.states[cve_id]
        self.inventory.close_cve(now, cve_id)
        state.closed_at_s = now
        if state.remediated_at_s is None:
            # The transplant never covered the whole fleet (residual or
            # rolled-back hosts): the patch cycle ends the exposure.
            state.remediation = "patch"
            state.remediated_at_s = now
        # Safety only improves when flaws close, so patch closure is the
        # moment blocked moves can become possible: returns home first,
        # then a fresh gate pass for any kind still exposed to an open
        # flaw (a residual case may have just gained a safe target).
        open_cves = self.inventory.open_cves()
        for kind in sorted(self.inventory.kinds()):
            if self.config.policy.return_transplant and kind != self._home:
                self._enqueue(_Request(
                    source_kind=kind, trigger_cve=None,
                    forced_target=self._home, created_at_s=now,
                ))
            trigger = self._current_trigger(kind)
            if trigger is not None and \
                    self.policy.choose_target(kind, open_cves) is not None:
                # Only re-gate when a safe target actually exists now —
                # a still-pinned residual case would just churn.
                self._enqueue(_Request(
                    source_kind=kind, trigger_cve=trigger,
                    forced_target=None, created_at_s=now,
                ))
        self._pump()

    # ------------------------------------------------------------------
    # queueing and admission

    def _kind_engaged(self, kind: str) -> bool:
        if any(r.source_kind == kind for r in self._queue):
            return True
        return any(a.request.source_kind == kind and not a.preempted
                   for a in self._active)

    def _enqueue(self, request: _Request) -> None:
        if self._kind_engaged(request.source_kind):
            return  # coalesce: launch-time validation scans all open CVEs
        self._queue.append(request)

    def _pump(self) -> None:
        while self._queue and \
                len(self._active) < self.config.policy.max_concurrent_campaigns:
            request = self._queue.pop(0)
            if not self._admit(request):
                continue

    def _admit(self, request: _Request) -> bool:
        """Reserve a campaign slot and schedule the launch, or drop."""
        now = self._engine.now
        if not self.inventory.kinds().get(request.source_kind):
            self.counters["requests_dropped"] += 1
            return False
        free_slots = NODE_CAPACITY_VMS - self.config.vms_per_host
        if free_slots < self.config.policy.min_free_slots:
            # The fleet is packed too tight to evacuate anything; these
            # hosts ride the patch cycle (the paper's InPlaceTP argument
            # is exactly that this constraint bites real clouds).
            self.counters["capacity_blocked"] += 1
            return False
        record = CampaignRecord(
            index=len(self.campaigns),
            kind="return" if request.trigger_cve is None else "response",
            trigger_cve=request.trigger_cve,
            source=request.source_kind,
            target="",  # chosen at launch
            requested_at_s=request.created_at_s,
        )
        self.campaigns.append(record)
        active = _Active(request, record)
        self._active.append(active)
        self._engine.call_at(self.policy.launch_at(now),
                             self._launch_handler(active))
        return True

    # ------------------------------------------------------------------
    # launch: validate, choose, run the data plane, replay commits

    def _launch_handler(self, active: _Active):
        def fire() -> None:
            self._launch(active)
        return fire

    def _release(self, active: _Active) -> None:
        self._active.remove(active)

    def _launch(self, active: _Active) -> None:
        now = self._engine.now
        request = active.request
        hosts = self.inventory.kinds().get(request.source_kind, [])
        if not hosts:
            self.counters["requests_dropped"] += 1
            self._abandon(active)
            return

        open_cves = self.inventory.open_cves()
        if request.forced_target is not None:
            # A return transplant: only safe if home is currently clean.
            target = request.forced_target
            if target == request.source_kind or \
                    not self.policy.is_safe(target, open_cves):
                # Home is unsafe (or we are home): if these hosts are
                # still exposed to an open flaw and some other target is
                # safe, fall back to an emergency response instead of
                # just giving up the slot.
                trigger = self._current_trigger(request.source_kind)
                self._abandon(active)
                if trigger is not None and self.policy.choose_target(
                        request.source_kind, open_cves) is not None:
                    self._enqueue(_Request(
                        source_kind=request.source_kind,
                        trigger_cve=trigger, forced_target=None,
                        created_at_s=now,
                    ))
                    self._pump()
                else:
                    self.counters["requests_dropped"] += 1
                return
            escape = None
        else:
            # Launch-time re-validation: the decision that queued this
            # request may be stale — re-gate and re-score against the
            # open-CVE set as of *now*.
            trigger = self._current_trigger(request.source_kind)
            if trigger is None:
                self.counters["requests_dropped"] += 1
                self._abandon(active)
                return
            active.record.trigger_cve = trigger
            choice = self.policy.choose_target(request.source_kind,
                                               open_cves)
            if choice is None:
                # Residual risk: a common flaw pins the whole repertoire.
                self.counters["residual_unresolved"] += 1
                self.states[trigger].residual = True
                self._abandon(active)
                return
            target = choice.target
            escape = choice.escape_fraction

        metrics, mapping = self._run_data_plane(active, hosts, target)
        record = active.record
        record.target = target
        record.launched_at_s = now
        record.hosts = len(hosts)
        record.escape_fraction = escape
        record.hosts_rolled_back = metrics.rolled_back_hosts
        active.target = target
        if record.kind == "return":
            self.counters["returns_launched"] += 1
        else:
            self.counters["campaigns_launched"] += 1
            self.states[record.trigger_cve].campaigns.append(record.index)

        # Replay the campaign trajectory onto the control-plane clock:
        # one cancellable commit per remediated host, then completion.
        duration = metrics.completed_at_s - metrics.disclosure_at_s
        for outcome, host in mapping:
            if outcome.window_s is None:
                continue  # rolled back: the host never leaves the source
            active.commit_events[host] = self._engine.call_at(
                now + outcome.window_s,
                self._commit_handler(active, host, target),
            )
        active.completion_event = self._engine.call_at(
            now + duration, self._complete_handler(active),
        )

    def _current_trigger(self, kind: str) -> Optional[str]:
        """The (sorted-first) open CVE still warranting a response."""
        for cve_id in self.inventory.open_cves():
            record = self.db.get(cve_id)
            if self.policy.should_respond(record, kind):
                return cve_id
        return None

    def _abandon(self, active: _Active) -> None:
        """Drop a reserved campaign without launching it.  Launched
        campaigns are never removed, so surviving indices stay unique."""
        self.campaigns.remove(active.record)
        self._release(active)
        self._pump()

    def _run_data_plane(self, active: _Active, hosts: List[str],
                        target: str):
        """Run one FleetController campaign eagerly; map its node names
        (``node00``...) back onto the sentinel's host names."""
        from repro.fleet.controller import FleetConfig, FleetController
        from repro.fleet.failures import FailureInjector, RetryPolicy

        config = self.config
        sub_seed = self._campaign_seed(active.record.index)
        group_size = min(config.group_size, len(hosts))
        inplace_fraction = config.inplace_fraction
        if group_size >= len(hosts):
            # One group takes the whole subset down at once (tiny subsets
            # left behind by preemptions): no live node remains to receive
            # evacuated VMs, so every host must transplant in place.
            inplace_fraction = 1.0
        fleet_config = FleetConfig(
            hosts=len(hosts),
            vms_per_host=config.vms_per_host,
            inplace_fraction=inplace_fraction,
            group_size=group_size,
            seed=sub_seed,
            concurrency=config.concurrency,
            mechanism=config.mechanism,
            trigger_cve=(active.record.trigger_cve
                         or f"return-{active.record.index}"),
            current_hypervisor=active.request.source_kind,
            pool=config.pool,
            target_override=target,
        )
        injector = FailureInjector(0.0, seed=sub_seed)
        retry = RetryPolicy()
        journal = None
        if self.journal_dir is not None:
            from repro.journal import CampaignJournal, campaign_meta

            path = os.path.join(
                self.journal_dir,
                f"campaign-{active.record.index:03d}.journal",
            )
            journal = CampaignJournal.create(
                path, campaign_meta(fleet_config, injector, retry))
            self.journals.append(journal)
        controller = FleetController(fleet_config, db=self.db,
                                     injector=injector, retry=retry,
                                     journal=journal)
        metrics = controller.run()
        outcomes = sorted(metrics.per_host, key=lambda h: h.name)
        return metrics, list(zip(outcomes, sorted(hosts)))

    def _campaign_seed(self, index: int) -> int:
        from repro.par.shard import derive_seed

        return derive_seed(self.config.seed, "sentinel-campaign", index)

    # ------------------------------------------------------------------
    # control-plane replay events

    def _commit_handler(self, active: _Active, host: str, target: str):
        def fire() -> None:
            self._commit(active, host, target)
        return fire

    def _commit(self, active: _Active, host: str, target: str) -> None:
        now = self._engine.now
        self.inventory.commit_host(now, host, target)
        active.commit_events.pop(host, None)
        active.record.hosts_remediated += 1
        self._check_remediated(now)

    def _complete_handler(self, active: _Active):
        def fire() -> None:
            active.record.completed_at_s = self._engine.now
            self._release(active)
            self._pump()
        return fire

    def _check_remediated(self, now: float) -> None:
        """A commit changed the fleet: did any open flaw lose its last
        exposed host?  (Commits can also *raise* another flaw's exposure —
        the accrual integral in the inventory accounts for that.)"""
        for cve_id in self.inventory.open_cves():
            state = self.states[cve_id]
            if state.remediated_at_s is None \
                    and self.inventory.exposure_count(cve_id) == 0:
                state.remediation = "transplant"
                state.remediated_at_s = now

    # ------------------------------------------------------------------
    # preemption

    def _preempt(self, active: _Active, by_cve: str) -> None:
        """A critical flaw landed on this campaign's target: hosts not yet
        committed stay on the source hypervisor, the slot frees, and the
        source kind re-queues for fresh advice."""
        now = self._engine.now
        self.counters["preemptions"] += 1
        active.preempted = True
        for host in sorted(active.commit_events):
            active.commit_events.pop(host).cancel()
        if active.completion_event is not None:
            active.completion_event.cancel()
        record = active.record
        record.preempted_at_s = now
        record.preempted_by = by_cve
        self._release(active)
        self._enqueue(_Request(
            source_kind=active.request.source_kind,
            trigger_cve=record.trigger_cve,
            forced_target=None,
            created_at_s=now,
        ))
        # The pump runs from the disclosure handler after all preemptions
        # and gate checks, so admission sees the final queue.
