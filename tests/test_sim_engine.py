"""Tests for the discrete-event engine and generator processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import Engine


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.call_at(2.0, lambda: order.append("b"))
    engine.call_at(1.0, lambda: order.append("a"))
    engine.call_at(3.0, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0


def test_equal_timestamps_fifo():
    engine = Engine()
    order = []
    for tag in ("first", "second", "third"):
        engine.call_at(1.0, lambda t=tag: order.append(t))
    engine.run()
    assert order == ["first", "second", "third"]


def test_call_after_is_relative():
    engine = Engine()
    seen = []
    engine.call_after(1.0, lambda: engine.call_after(1.5, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [2.5]


def test_scheduling_in_the_past_rejected():
    engine = Engine()
    engine.call_at(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.call_at(4.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().call_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.call_at(1.0, lambda: fired.append(1))
    event.cancel()
    engine.run()
    assert fired == []


def test_run_until_stops_early():
    engine = Engine()
    fired = []
    engine.call_at(1.0, lambda: fired.append(1))
    engine.call_at(10.0, lambda: fired.append(10))
    engine.run(until=5.0)
    assert fired == [1]
    assert engine.now == 5.0


def test_process_sleeps_through_yields():
    engine = Engine()
    timestamps = []

    def proc():
        timestamps.append(engine.now)
        yield 2.0
        timestamps.append(engine.now)
        yield 3.0
        timestamps.append(engine.now)

    engine.spawn(proc())
    engine.run()
    assert timestamps == [0.0, 2.0, 5.0]


def test_process_return_value():
    engine = Engine()

    def proc():
        yield 1.0
        return 42

    assert engine.run_process(proc()) == 42


def test_process_invalid_yield_raises():
    engine = Engine()

    def proc():
        yield -5.0

    with pytest.raises(SimulationError):
        engine.run_process(proc())


def test_process_bool_yield_rejected():
    # bool is an int, but ``yield True`` is a bug, not a 1-second sleep.
    engine = Engine()

    def proc():
        yield True
        yield False

    with pytest.raises(SimulationError, match="invalid delay True"):
        engine.run_process(proc())
    assert engine.now == 0.0


def test_process_exception_propagates():
    engine = Engine()

    def proc():
        yield 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        engine.run_process(proc())


def test_run_all_waits_for_every_process():
    engine = Engine()

    def proc(duration, value):
        yield duration
        return value

    p1 = engine.spawn(proc(1.0, "fast"))
    p2 = engine.spawn(proc(5.0, "slow"))
    assert engine.run_all([p1, p2]) == ("fast", "slow")
    assert engine.now == 5.0


def test_on_done_callback_fires():
    engine = Engine()
    done = []

    def proc():
        yield 1.0

    process = engine.spawn(proc())
    process.on_done(lambda: done.append(engine.now))
    engine.run()
    assert done == [1.0]


def test_spawn_at_delays_start():
    engine = Engine()
    started = []

    def proc():
        started.append(engine.now)
        yield 0.0

    engine.spawn_at(4.0, proc())
    engine.run()
    assert started == [4.0]


# -- non-finite times ------------------------------------------------------------
# A NaN compares false against everything: before these guards an event
# at NaN fired between the events at 0.5 s and 1.0 s, set the clock to
# NaN, and from then on no "past" check could fire again.

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_timestamp_rejected(bad):
    engine = Engine()
    fired = []
    engine.call_at(0.5, lambda: fired.append(engine.now))
    engine.call_at(1.0, lambda: fired.append(engine.now))
    with pytest.raises(SimulationError):
        engine.call_at(bad, lambda: fired.append(engine.now))
    with pytest.raises(SimulationError):
        engine.call_after(bad, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [0.5, 1.0] and engine.now == 1.0
    with pytest.raises(SimulationError, match="past"):
        engine.call_at(0.25, lambda: None)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_process_non_finite_delay_rejected(bad):
    def proc():
        yield 1.0
        yield bad

    engine = Engine()
    with pytest.raises(SimulationError, match="invalid delay"):
        engine.run_process(proc())
    assert engine.now == 1.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_clock_rejects_non_finite_times(bad):
    clock = SimClock(2.0)
    with pytest.raises(SimulationError):
        clock.advance(bad)
    with pytest.raises(SimulationError):
        clock.advance_to(bad)
    with pytest.raises(SimulationError):
        SimClock(bad)
    assert clock.now == 2.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_run_until_non_finite_rejected(bad):
    engine = Engine()
    engine.call_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.run(until=bad)
    assert engine.now == 0.0
