"""Per-host remediation state machines and the fleet-wide transition trace.

Every host in an emergency campaign walks the lifecycle::

    PENDING -> EVACUATING -> TRANSPLANTING -> VERIFYING -> DONE
                   |               |              |
                   +-----------> FAILED <---------+
                                /      \\
                          RETRYING    ROLLED_BACK
                       (re-enter the
                        failed phase)

Transitions are validated — a host can never jump states illegally or move
after reaching a terminal state — and every transition is appended to a
shared :class:`FleetTrace`, which is what the metrics layer and the tests
(concurrency-cap and liveness assertions) replay.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.errors import FleetError


class HostState(enum.Enum):
    """Lifecycle of one host during an emergency transplant campaign."""

    PENDING = "pending"
    EVACUATING = "evacuating"
    TRANSPLANTING = "transplanting"
    VERIFYING = "verifying"
    DONE = "done"
    FAILED = "failed"
    RETRYING = "retrying"
    ROLLED_BACK = "rolled-back"

    @property
    def terminal(self) -> bool:
        return self in (HostState.DONE, HostState.ROLLED_BACK)

    @property
    def active(self) -> bool:
        """States that hold an admission slot (host is being worked on)."""
        return not self.terminal and self is not HostState.PENDING


#: the phases a failure can be injected into (they re-enter on retry)
RETRYABLE_STATES = frozenset({
    HostState.EVACUATING,
    HostState.TRANSPLANTING,
    HostState.VERIFYING,
})

#: each state's value as a checkpoint digest renders it (its ``repr``),
#: keyed by the value string: an enum key would hash through a Python call
_STATE_TEXT: Dict[str, str] = {state.value: repr(state.value)
                               for state in HostState}

LEGAL_TRANSITIONS: Dict[HostState, FrozenSet[HostState]] = {
    HostState.PENDING: frozenset({
        HostState.EVACUATING, HostState.TRANSPLANTING,
    }),
    HostState.EVACUATING: frozenset({
        HostState.TRANSPLANTING, HostState.FAILED,
    }),
    HostState.TRANSPLANTING: frozenset({
        HostState.VERIFYING, HostState.FAILED,
    }),
    HostState.VERIFYING: frozenset({
        HostState.DONE, HostState.FAILED,
    }),
    HostState.FAILED: frozenset({
        HostState.RETRYING, HostState.ROLLED_BACK,
    }),
    HostState.RETRYING: RETRYABLE_STATES,
    HostState.DONE: frozenset(),
    HostState.ROLLED_BACK: frozenset(),
}


@dataclass(frozen=True)
class Transition:
    """One timestamped state change of one host."""

    time_s: float
    host: str
    source: HostState
    target: HostState
    reason: str = ""


class FleetTrace:
    """Append-only log of every transition in a campaign.

    The controller appends in simulated-event order, so replaying the list
    reconstructs the exact interleaving — the basis for the concurrency-cap
    invariant test and the hosts-remediated-over-time curve.

    With a ``journal`` attached (any object with a ``transition()`` method,
    e.g. :class:`repro.journal.CampaignJournal`), every transition is made
    durable *before* it lands in the in-memory trace — and therefore before
    :meth:`HostRecord.transition` mutates ``state`` — which is the
    write-ahead ordering crash recovery depends on.

    A journaled trace also keeps the host-state part of the campaign's
    checkpoint digest rendered: ``state_text`` maps each of ``hosts``, in
    the order given, to the ``repr`` of its state value (``'pending'`` at
    first), and ``done_hosts`` counts the hosts that reached DONE.  A
    checkpoint then joins the kept text instead of re-reading every host.
    """

    def __init__(self, journal=None, hosts: Iterable[str] = ()):
        self.journal = journal
        self.transitions: List[Transition] = []
        self.state_text: Dict[str, str] = (
            dict.fromkeys(hosts, _STATE_TEXT[HostState.PENDING.value])
            if journal is not None else {})
        self.done_hosts = 0

    def append(self, transition: Transition) -> None:
        if self.journal is not None:
            target = transition.target.value
            self.journal.transition(
                transition.time_s, transition.host,
                transition.source.value, target, transition.reason,
            )
            self.state_text[transition.host] = _STATE_TEXT[target]
            if transition.target is HostState.DONE:
                self.done_hosts += 1
        self.transitions.append(transition)

    def max_in_flight(self) -> int:
        """Peak number of hosts simultaneously in an active state."""
        in_flight = 0
        peak = 0
        for t in self.transitions:
            if t.source is HostState.PENDING and t.target.active:
                in_flight += 1
                peak = max(peak, in_flight)
            elif t.target.terminal:
                in_flight -= 1
        return peak

    def remediation_curve(self) -> List[List[float]]:
        """``[time, cumulative DONE hosts]`` points, one per completion."""
        done = 0
        curve: List[List[float]] = []
        for t in self.transitions:
            if t.target is HostState.DONE:
                done += 1
                curve.append([t.time_s, float(done)])
        return curve


@dataclass
class HostRecord:
    """Mutable campaign bookkeeping for one host."""

    name: str
    wave: int
    vm_count: int
    planned_migrations: int
    state: HostState = HostState.PENDING
    disclosure_at_s: float = 0.0
    started_at_s: Optional[float] = None
    remediated_at_s: Optional[float] = None
    retries: int = 0
    rollbacks: int = 0
    skipped_migrations: int = 0
    failure_reasons: List[str] = field(default_factory=list)

    def transition(self, target: HostState, now_s: float, trace: FleetTrace,
                   reason: str = "") -> None:
        if target not in LEGAL_TRANSITIONS[self.state]:
            raise FleetError(
                f"host {self.name}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        trace.append(Transition(now_s, self.name, self.state, target, reason))
        if self.state is HostState.PENDING:
            self.started_at_s = now_s
        self.state = target
        if target is HostState.DONE:
            self.remediated_at_s = now_s
        if reason:
            self.failure_reasons.append(reason)

    @property
    def window_s(self) -> Optional[float]:
        """Disclosure-to-remediated vulnerability window (DONE hosts only)."""
        if self.remediated_at_s is None:
            return None
        return self.remediated_at_s - self.disclosure_at_s
