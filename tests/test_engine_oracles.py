"""Differential tests: the event loop, its process driver and wave
checkpoints against references.

The engine keeps pending events in a heap of ``(time, seq, event)``
tuples, and a campaign checkpoint reads host states and fault-stream
positions in the host order they are stored in, with no Python call per
host.  ``Engine.spawn`` is the one process driver: its processes yield
delays or gates, latches and semaphore grants.  The heap of
``Event.__lt__``-ordered objects, the fleet's former ``FleetProcess``
driver with its primitives, and the rescanning digest live on in
:mod:`tests.oracles`; these tests drive both sides with random programs
and campaigns and require identical results.  An op-count test shows a
checkpoint's Python work no longer grows with the fleet.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, ReproError
from repro.fleet import FleetConfig, FleetController
from repro.fleet.failures import FailureInjector, RetryPolicy
from repro.journal import CampaignJournal, campaign_meta
from repro.sim.engine import Engine, FifoSemaphore, Gate, Latch

from tests import oracles
from tests.oracles import HeapEngine, state_digest_rescan

# -- event order ---------------------------------------------------------------

#: offsets from ``now``: zero is common, and the rest sum exactly, so
#: events scheduled from different instants share timestamps
OFFSETS = (0.0, 0.0, 0.25, 0.5, 1.0)
#: ``run(until=now + offset)`` also stops short of the current instant
UNTIL_OFFSETS = (-0.5,) + OFFSETS


@st.composite
def programs(draw):
    """Top-level operations plus the behaviour of every callback.

    A callback's actions may schedule only higher-numbered behaviours,
    so every program terminates; they may cancel any event scheduled so
    far, the firing event and same-instant ones included."""
    count = draw(st.integers(1, 6))
    behaviours = []
    for index in range(count):
        actions = []
        for _ in range(draw(st.integers(0, 3))):
            if index + 1 < count and draw(st.booleans()):
                actions.append((draw(st.sampled_from(["at", "after"])),
                                draw(st.sampled_from(OFFSETS)),
                                draw(st.integers(index + 1, count - 1))))
            else:
                actions.append(("cancel", draw(st.integers(0, 30)), None))
        behaviours.append(actions)
    schedule = st.tuples(st.sampled_from(["at", "after"]),
                         st.sampled_from(OFFSETS),
                         st.integers(0, count - 1))
    steps = st.one_of(
        schedule,
        st.tuples(st.just("cancel"), st.integers(0, 30), st.none()),
        st.tuples(st.just("run_until"), st.sampled_from(UNTIL_OFFSETS),
                  st.none()),
        st.tuples(st.just("run_one"), st.none(), st.none()),
    )
    return behaviours, draw(st.lists(steps, max_size=25))


def _execute(engine_cls, program):
    """Run ``program`` on a fresh engine: the firing log and final now."""
    behaviours, steps = program
    engine = engine_cls()
    log = []
    events = []

    def perform(kind, arg, behaviour):
        if kind == "cancel":
            if events:
                events[arg % len(events)].cancel()
            return
        label = len(events)

        def fire():
            log.append((label, engine.now))
            for action in behaviours[behaviour]:
                perform(*action)

        if kind == "at":
            events.append(engine.call_at(engine.now + arg, fire))
        else:
            events.append(engine.call_after(arg, fire))

    for kind, arg, behaviour in steps:
        if kind == "run_until":
            log.append(("run", engine.run(until=engine.now + arg)))
        elif kind == "run_one":
            log.append(("one", engine.run_one(), engine.now))
        else:
            perform(kind, arg, behaviour)
    log.append(("one", engine.run_one(), engine.now))
    log.append(("run", engine.run()))
    return log, engine.now


@given(program=programs())
@settings(max_examples=300, deadline=None)
def test_engine_matches_single_heap(program):
    assert _execute(Engine, program) == _execute(HeapEngine, program)


# -- one process driver --------------------------------------------------------

#: sleeps and timer delays: zero is common, so wake-ups, grants and
#: sleeps share instants
SLEEPS = (0.0, 0.0, 0.5, 1.0)


@st.composite
def sync_programs(draw):
    """Primitives, one operation list per process, and gate timers.

    Operands are indices taken modulo the number of primitives of their
    kind.  Latch counts include 0 (open at birth); a semaphore's permits
    of ``None`` means unbounded."""
    latches = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    # one permit is where grants queue most
    permits = draw(st.lists(st.sampled_from([1, 1, 2, None]),
                            min_size=1, max_size=2))
    index = st.integers(0, 3)
    sleep = st.sampled_from(SLEEPS)
    # Waits, permits and withdrawals are listed twice: FIFO order shows
    # only where several processes park on one primitive.
    wait = st.tuples(st.sampled_from(["wait-gate", "wait-latch"]), index)
    permit = st.tuples(st.sampled_from(["held", "acquire"]), index, sleep)
    withdraw = st.tuples(st.just("withdraw"), index)
    operation = st.one_of(
        st.tuples(st.just("sleep"), sleep),
        wait,
        wait,
        st.tuples(st.sampled_from(["fire", "count-down"]), index),
        permit,
        permit,
        # held() without parking: a queued request is withdrawn
        withdraw,
        withdraw,
    )
    # FIFO order needs three processes: one holds or fires, two queue
    processes = draw(st.lists(st.lists(operation, min_size=1, max_size=6),
                              min_size=3, max_size=6))
    # a timer fires its gate once processes may be parked on it
    timers = draw(st.lists(st.tuples(index, st.sampled_from(SLEEPS[2:])),
                           max_size=3))
    return (draw(st.integers(1, 2)), latches, permits, processes, timers)


def _spawn_fleet_process(engine, gen, name):
    return oracles.FleetProcess(engine, gen, name=name).start()


def _spawn(engine, gen, name):
    return engine.spawn(gen, name=name)


#: (Gate, Latch, FifoSemaphore, spawn) of each side
FORMER_DRIVER = (oracles.Gate, oracles.Latch, oracles.FifoSemaphore,
                 _spawn_fleet_process)
ENGINE_DRIVER = (Gate, Latch, FifoSemaphore, _spawn)


def _execute_sync(driver, program):
    """Run ``program`` on a fresh engine under ``driver``: the
    ``(label, now)`` log, every process's outcome and the final now."""
    gate_cls, latch_cls, semaphore_cls, spawn = driver
    gate_count, latch_counts, permits, processes, timers = program
    engine = Engine()
    gates = [gate_cls(engine) for _ in range(gate_count)]
    latches = [latch_cls(engine, count) for count in latch_counts]
    semaphores = [semaphore_cls(engine, n) for n in permits]
    log = []

    def pick(items, index):
        return items[index % len(items)]

    def body(pid, operations):
        for step, (kind, operand, *rest) in enumerate(operations):
            label = (pid, step, kind)
            if kind == "sleep":
                yield operand
            elif kind == "wait-gate":
                yield pick(gates, operand)
            elif kind == "fire":
                pick(gates, operand).fire()
            elif kind == "wait-latch":
                yield pick(latches, operand)
            elif kind == "count-down":
                try:
                    pick(latches, operand).count_down()
                except ReproError:
                    label += ("already open",)
            elif kind == "held":
                with pick(semaphores, operand).held() as granted:
                    yield granted
                    log.append((label + ("granted",), engine.now))
                    yield rest[0]
            elif kind == "withdraw":
                with pick(semaphores, operand).held() as granted:
                    label += (granted.fired,)
            else:
                semaphore = pick(semaphores, operand)
                yield semaphore.acquire()
                log.append((label + ("granted",), engine.now))
                yield rest[0]
                semaphore.release()
            log.append((label, engine.now))
        return pid

    for index, delay in timers:
        engine.call_after(delay, pick(gates, index).fire)
    started = [spawn(engine, body(pid, operations), f"p{pid}")
               for pid, operations in enumerate(processes)]
    engine.run()
    outcome = [(process.done, process.result) for process in started]
    for process in started:
        process.close()  # unwind parked processes in a fixed order
    return log, outcome, engine.now


@given(program=sync_programs())
@settings(max_examples=400, deadline=None)
def test_spawn_matches_former_fleet_driver(program):
    assert (_execute_sync(ENGINE_DRIVER, program)
            == _execute_sync(FORMER_DRIVER, program))


# -- wave checkpoints ----------------------------------------------------------


class _CheckingJournal:
    """A stand-in journal that, at every checkpoint and at commit, also
    computes the digest and DONE count by rescanning the controller."""

    def __init__(self):
        self.controller = None
        self.pairs = []

    def transition(self, *args):
        pass

    def wave_barrier(self, *args):
        pass

    def checkpoint(self, time_s, digest, done_hosts, migrations_executed):
        self.pairs.append(((digest, done_hosts),
                           state_digest_rescan(self.controller)))

    def commit(self, completed_at_s, digest):
        self.pairs.append((digest, state_digest_rescan(self.controller)[0]))


@given(hosts=st.integers(5, 60),
       mechanism=st.sampled_from(["inplace", "migration", "hybrid", "auto"]),
       fail_rate=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3]),
       max_retries=st.integers(0, 2),
       seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_checkpoint_digest_matches_rescan(hosts, mechanism, fail_rate,
                                          max_retries, seed):
    journal = _CheckingJournal()
    controller = FleetController(
        FleetConfig(hosts=hosts, mechanism=mechanism, seed=seed),
        injector=FailureInjector(fail_rate, seed=seed),
        retry=RetryPolicy(max_retries=max_retries),
        journal=journal,
    )
    journal.controller = controller
    try:
        controller.run()
    except FleetError as exc:
        # A known liveness defect (test_fleet.py,
        # test_rollback_onto_a_planned_destination_terminates): some
        # small faulty campaigns stall.  Every checkpoint reached before
        # the stall is still compared below.
        assert "never terminated" in str(exc)
    else:
        assert len(journal.pairs) >= 2  # at least one wave, plus the commit
    for incremental, rescanned in journal.pairs:
        assert incremental == rescanned


def _checkpoint_call_counts(monkeypatch, tmp_path, hosts):
    """Python ``call`` events inside each ``_journal_checkpoint`` of one
    journaled, faulty ``hosts``-host campaign."""
    counts = []
    checkpoint = FleetController._journal_checkpoint

    def counted(self):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            checkpoint(self)
        finally:
            sys.setprofile(None)
        counts.append(calls[0])

    monkeypatch.setattr(FleetController, "_journal_checkpoint", counted)
    config = FleetConfig(hosts=hosts, mechanism="auto", seed=7)
    injector = FailureInjector(0.1, seed=7)
    retry = RetryPolicy(max_retries=1)
    journal = CampaignJournal.create(str(tmp_path / f"{hosts}.journal"),
                                     campaign_meta(config, injector, retry))
    metrics = FleetController(config, injector=injector, retry=retry,
                              journal=journal).run()
    monkeypatch.undo()
    assert metrics.rolled_back_hosts > 0  # aborted VMs reach the digest
    return counts


def test_checkpoint_cost_independent_of_fleet_size(monkeypatch, tmp_path):
    small = _checkpoint_call_counts(monkeypatch, tmp_path, 20)
    large = _checkpoint_call_counts(monkeypatch, tmp_path, 200)
    assert small and len(large) > len(small)
    assert set(small) == set(large) and len(set(small)) == 1

