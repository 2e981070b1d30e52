"""Differential tests: the event loop, its process driver and wave
checkpoints against references.

The engine keeps pending events in a heap of ``(time, seq, event)``
tuples, and a journaled campaign keeps its checkpoint digest's text
rendered as it runs, so a checkpoint makes no Python call per host.
``Engine.spawn`` is the one process driver: its processes yield delays
or gates, latches and semaphore grants, and a process whose wake-up
would be the next event resumes in place.  The heap of
``Event.__lt__``-ordered objects, the fleet's former ``FleetProcess``
driver with its primitives, and the rescanning digest live on in
:mod:`tests.oracles`; these tests drive both sides with random programs
and campaigns and require identical results.  Op-count tests show a
checkpoint's Python work no longer grows with the fleet, and which
yields resume in place.
"""

import os
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError, JournalCrash, ReproError
from repro.fleet import FleetConfig, FleetController
from repro.fleet.failures import FailureInjector, RetryPolicy
from repro.journal import CampaignJournal, campaign_meta, recover
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
#: ``run(until=now + step)`` steps: they stop at, between and before
#: the instants sleeps and timers reach
RUN_STEPS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def sync_programs(draw):
    """Primitives, one operation list per process, gate timers, and the
    ``run(until=now + step)`` steps that drive the engine before it runs
    to the end.

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
    runs = draw(st.lists(st.sampled_from(RUN_STEPS), max_size=4))
    return (draw(st.integers(1, 2)), latches, permits, processes, timers,
            runs)


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
    gate_count, latch_counts, permits, processes, timers, runs = program
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
    for step in runs:
        log.append(("run", engine.run(until=engine.now + step)))
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


# -- resume in place -----------------------------------------------------------


def _scheduled(monkeypatch):
    """The timestamp of every ``Engine.call_at`` made from here on."""
    times = []
    call_at = Engine.call_at

    def counted(self, timestamp, fn):
        times.append(timestamp)
        return call_at(self, timestamp, fn)

    monkeypatch.setattr(Engine, "call_at", counted)
    return times


def _gate_then_sleep(engine, log):
    """Spawn a process that yields a fired gate, then a 1.5 s sleep."""
    gate = Gate(engine)
    gate.fire()

    def body():
        log.append(("start", engine.now))
        yield gate
        log.append(("gate", engine.now))
        yield 1.5
        log.append(("slept", engine.now))
        return "done"

    return engine.spawn(body(), name="p")


def test_ready_process_resumes_in_place(monkeypatch):
    scheduled = _scheduled(monkeypatch)
    engine, log = Engine(), []
    process = _gate_then_sleep(engine, log)
    assert engine.run() == 1.5
    assert scheduled == [0.0]  # the spawn only
    assert log == [("start", 0.0), ("gate", 0.0), ("slept", 1.5)]
    assert process.result == "done"


def test_process_behind_a_due_event_still_schedules(monkeypatch):
    scheduled = _scheduled(monkeypatch)
    engine, log = Engine(), []
    process = _gate_then_sleep(engine, log)
    engine.call_at(0.0, lambda: log.append(("due now", engine.now)))
    engine.call_at(1.0, lambda: log.append(("due first", engine.now)))
    engine.run()
    # the spawn, the two callbacks, then the gate's and the sleep's wake-up
    assert scheduled == [0.0, 0.0, 1.0, 0.0, 1.5]
    assert log == [("start", 0.0), ("due now", 0.0), ("gate", 0.0),
                   ("due first", 1.0), ("slept", 1.5)]
    assert process.result == "done"


def test_run_until_never_resumes_past_until(monkeypatch):
    scheduled = _scheduled(monkeypatch)
    engine, log = Engine(), []

    def body():
        for _ in range(3):
            log.append(engine.now)
            yield 1.0

    process = engine.spawn(body())
    assert engine.run(until=1.5) == 1.5
    assert log == [0.0, 1.0] and not process.done
    assert scheduled == [0.0, 2.0]
    assert engine.run() == 3.0
    assert log == [0.0, 1.0, 2.0] and process.done
    assert scheduled == [0.0, 2.0]


def test_run_one_runs_one_event(monkeypatch):
    scheduled = _scheduled(monkeypatch)
    engine, log = Engine(), []
    process = _gate_then_sleep(engine, log)
    assert engine.run_one() and log == [("start", 0.0)]
    assert engine.run_one() and log[-1] == ("gate", 0.0)
    assert engine.run_one() and log[-1] == ("slept", 1.5)
    assert scheduled == [0.0, 0.0, 1.5] and process.done


# -- wave checkpoints ----------------------------------------------------------


class _CheckingJournal:
    """A journal wrapper that, at every checkpoint and at commit, also
    computes the digest and DONE count by rescanning the controller.
    Every call then reaches the wrapped journal, if there is one."""

    def __init__(self, inner=None):
        self.inner = inner
        self.controller = None
        self.pairs = []

    def transition(self, *args):
        if self.inner is not None:
            self.inner.transition(*args)

    def wave_barrier(self, *args):
        if self.inner is not None:
            self.inner.wave_barrier(*args)

    def checkpoint(self, time_s, digest, done_hosts, migrations_executed):
        self.pairs.append(((digest, done_hosts),
                           state_digest_rescan(self.controller)))
        if self.inner is not None:
            self.inner.checkpoint(time_s, digest, done_hosts,
                                  migrations_executed)

    def commit(self, completed_at_s, digest):
        self.pairs.append((digest, state_digest_rescan(self.controller)[0]))
        if self.inner is not None:
            self.inner.commit(completed_at_s, digest)


@st.composite
def campaigns(draw):
    """``(config, injector, retry)`` of a random campaign.

    Faults, retries and rollbacks reach every part of the digest;
    overlapping and sequential waves of one to four hosts move the
    checkpoints.  Three hosts per wave member leave the live hosts room
    for a whole wave's evacuees."""
    group_size = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 1000))
    config = FleetConfig(
        hosts=draw(st.integers(max(5, 3 * group_size), 60)),
        mechanism=draw(st.sampled_from(["inplace", "migration", "hybrid",
                                        "auto"])),
        seed=seed,
        sequential_groups=draw(st.booleans()),
        group_size=group_size,
    )
    injector = FailureInjector(
        draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3])), seed=seed)
    return config, injector, RetryPolicy(max_retries=draw(st.integers(0, 2)))


def _run_to_end(controller) -> bool:
    """Run a campaign; False if it stalled.

    A known liveness defect (test_fleet.py,
    test_rollback_onto_a_planned_destination_terminates) stalls some
    small faulty campaigns.  Every checkpoint reached before the stall
    is still compared.
    """
    try:
        controller.run()
    except FleetError as exc:
        assert "never terminated" in str(exc)
        return False
    return True


@given(campaign=campaigns())
@settings(max_examples=40, deadline=None)
def test_checkpoint_digest_matches_rescan(campaign):
    config, injector, retry = campaign
    journal = _CheckingJournal()
    controller = FleetController(config, injector=injector, retry=retry,
                                 journal=journal)
    journal.controller = controller
    if _run_to_end(controller):
        assert len(journal.pairs) >= 2  # at least one wave, plus the commit
    for incremental, rescanned in journal.pairs:
        assert incremental == rescanned


@given(campaign=campaigns(), crash_after=st.integers(2, 150))
@settings(max_examples=25, deadline=None)
def test_recovered_checkpoint_digest_matches_rescan(campaign, crash_after):
    """Crash a journaled campaign after ``crash_after`` records (or let
    it finish, when it writes fewer), then recover it: the replayed
    controller's digests must equal the rescan at every checkpoint and
    at commit, and the replay byte-checks them against the journal."""
    config, injector, retry = campaign
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "campaign.journal")
        with CampaignJournal.create(path,
                                    campaign_meta(config, injector, retry),
                                    crash_after=crash_after) as journal:
            try:
                _run_to_end(FleetController(config, injector=injector,
                                            retry=retry, journal=journal))
            except JournalCrash:
                pass
        controller, resumed = recover(path)
        with resumed:
            checking = _CheckingJournal(resumed)
            checking.controller = controller
            controller.journal = checking
            if _run_to_end(controller):
                assert len(checking.pairs) >= 2
    for incremental, rescanned in checking.pairs:
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

