"""Event loop, generator processes and the conditions they wait on.

The engine holds a priority queue of timestamped events.  Two styles of
concurrency are supported:

* **Callbacks** — ``engine.call_at(t, fn)`` / ``engine.call_after(dt, fn)``.
* **Processes** — generator functions started with ``engine.spawn(gen)``.
  A process yields either a float (seconds to sleep) or a :class:`Gate`
  (park until it fires); the engine resumes it once simulated time has
  passed or the gate has opened.  Transplant phases, workloads and every
  fleet host are written this way.

:class:`Gate`, :class:`Latch` and :class:`FifoSemaphore` are the wait
conditions: a wave being released, a migration slot freeing up, the
shared fabric becoming idle.  Wake-ups are scheduled events, never
polling loops, so a campaign over thousands of hosts stays
O(events log events).  Waiters wake in strict FIFO order at the
timestamp of the signal.

Events at equal timestamps run in scheduling order (FIFO), which keeps runs
deterministic.  Times must be finite: a NaN compares false against
everything, so it would slip past every ordering check.

Inside :meth:`Engine.run`, a process whose wake-up would be the next event
the loop runs anyway resumes in place instead of scheduling it: a fired
gate with no other event due at the current instant, or a sleep that ends
strictly before the earliest pending event and not after the run's
``until``.  Every other event keeps its order, so runs stay identical;
only fewer events are scheduled.
"""

import itertools
from collections import deque
from heapq import heappop, heappush
from math import inf, isfinite
from typing import Callable, Deque, Generator, List, Optional, Tuple

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
    """Handle to a running generator process; start one with
    :meth:`Engine.spawn`.

    The generator yields a finite delay >= 0 (sleep, in simulated seconds)
    or a :class:`Gate` of its own engine (park until it fires).  When it
    returns, ``done`` becomes true and ``result`` holds its return value.

    A yield whose wake-up event would be the engine's next one resumes
    the generator at once (see the module docstring); every other yield
    schedules its wake-up through :meth:`Engine.call_at`.
    """

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self._engine = engine
        self._gen = gen
        self.name = name or repr(gen)
        self.done = False
        self.result = None

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
        engine = self._engine
        clock, queue = engine.clock, engine._queue
        while True:
            try:
                item = next(self._gen)
            except StopIteration as stop:
                self.done = True
                self.result = stop.value
                return
            except BaseException:  # surfaced when the engine runs
                self.done = True
                raise
            now = clock._now
            if isinstance(item, Gate):
                # A fired gate would wake the process at ``now``; with no
                # other event due then, that wake-up is the next event.
                if (item._waiters is None and now <= engine._horizon
                        and (not queue or queue[0][0] > now)):
                    continue
                item.subscribe(self._step)
                return
            # bool is an int subclass: without the explicit rejection a
            # buggy ``yield done_flag`` becomes a silent 1-second sleep.
            if (isinstance(item, (int, float)) and not isinstance(item, bool)
                    and 0 <= item < inf):
                wake = now + float(item)
                # A wake-up strictly before the queue head is the next
                # event, and run() pops it only up to its until.
                if wake <= engine._horizon and wake < (queue[0][0] if queue
                                                       else inf):
                    if wake != now:
                        clock.advance_to(wake)
                    continue
                engine.call_at(wake, self._step)
                return
            raise SimulationError(
                f"process {self.name!r} yielded {item!r}; expected a "
                f"finite delay >= 0 or a Gate"
            )


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
        #: the latest time a process may resume in place: the ``until``
        #: of the run() in progress (inf without one), -inf outside run()
        self._horizon = -inf

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
        """Start a generator process; its first step runs at the current
        instant, after the events already due then."""
        process = Process(self, gen, name=name)
        self.call_after(0.0, process._step)
        return process

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Returns the clock value when the loop stops.
        """
        if until is not None and not isfinite(until):
            raise SimulationError(f"cannot run until non-finite time {until}")
        queue, clock = self._queue, self.clock
        self._horizon = inf if until is None else until
        try:
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
        finally:
            self._horizon = -inf
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


# -- wait conditions ----------------------------------------------------------


class Gate:
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


class Latch(Gate):
    """A countdown barrier: a gate that fires when ``count`` reaches zero."""

    __slots__ = ("_count",)

    def __init__(self, engine: Engine, count: int):
        if count < 0:
            raise SimulationError(f"latch count must be >= 0, got {count}")
        super().__init__(engine)
        self._count = count
        if count == 0:
            self.fire()

    def count_down(self) -> None:
        if self.fired:
            raise SimulationError("latch already open")
        self._count -= 1
        if self._count == 0:
            self.fire()


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
            raise SimulationError(f"semaphore needs >= 1 permit, got {permits}")
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
            raise SimulationError(
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
            raise SimulationError("held() scope re-entered")
        self._active = True
        self._gate = self._sem.acquire()
        return self._gate

    def __exit__(self, exc_type, exc, tb) -> bool:
        gate, self._gate = self._gate, None
        self._active = False
        self._sem._settle(gate)
        return False
