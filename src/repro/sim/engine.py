"""Event loop and generator-based processes.

The engine holds a priority queue of timestamped events.  Two styles of
concurrency are supported:

* **Callbacks** — ``engine.call_at(t, fn)`` / ``engine.call_after(dt, fn)``.
* **Processes** — generator functions that ``yield`` a float (seconds to
  sleep); the engine resumes them after simulated time passes.  This mirrors
  how workloads and transplant phases are written throughout the library.

Events at equal timestamps run in scheduling order (FIFO), which keeps runs
deterministic.  Times must be finite: a NaN compares false against
everything, so it would slip past every ordering check.
"""

import itertools
from heapq import heappop, heappush
from math import inf, isfinite
from typing import Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import SimClock


class Event:
    """A scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Process:
    """Handle to a running generator process.

    The generator yields floats (sleep durations in simulated seconds).  When
    it returns, ``done`` becomes true and ``result`` holds its return value.
    """

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self._engine = engine
        self._gen = gen
        self.name = name or repr(gen)
        self.done = False
        self.result = None
        self.error: Optional[BaseException] = None
        self._waiters: List[Callable[[], None]] = []

    def _step(self) -> None:
        if self.done:
            return
        try:
            delay = next(self._gen)
        except StopIteration as stop:
            self.done = True
            self.result = getattr(stop, "value", None)
            for waiter in self._waiters:
                waiter()
            self._waiters.clear()
            return
        except BaseException as exc:  # surfaced when the engine runs
            self.done = True
            self.error = exc
            raise
        if not isinstance(delay, (int, float)) or not 0 <= delay < inf:
            raise SimulationError(
                f"process {self.name!r} yielded invalid delay {delay!r}"
            )
        self._engine.call_after(float(delay), self._step)

    def on_done(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run when the process finishes."""
        if self.done:
            fn()
        else:
            self._waiters.append(fn)


class Engine:
    """Discrete-event loop over a :class:`SimClock`.

    Pending events sit in a heap of ``(time, seq, event)`` tuples, so
    ordering compares a float and an int in C (``seq`` is unique, so two
    entries never compare their events).  The hot loops read the clock's
    ``_now`` field directly; the property would cost a Python call per
    event.
    """

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        return self.clock._now

    def call_at(self, timestamp: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute simulated ``timestamp``."""
        now = self.clock._now
        if not now <= timestamp < inf:
            if timestamp < now:
                raise SimulationError(
                    f"cannot schedule event in the past ({timestamp} < {now})"
                )
            raise SimulationError(
                f"cannot schedule event at non-finite time {timestamp}"
            )
        seq = next(self._seq)
        event = Event(timestamp, seq, fn)
        heappush(self._queue, (timestamp, seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.clock._now + delay, fn)

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
        if until is not None and not isfinite(until):
            raise SimulationError(f"cannot run until non-finite time {until}")
        queue, clock = self._queue, self.clock
        while queue:
            time, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if until is not None and time > until:
                break
            heappop(queue)
            if time != clock._now:
                clock.advance_to(time)
            event.fn()
        if until is not None and clock.now < until:
            clock.advance_to(until)
        return clock.now

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
        queue, clock = self._queue, self.clock
        while queue:
            event = heappop(queue)[2]
            if event.cancelled:
                continue
            if event.time != clock._now:
                clock.advance_to(event.time)
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
