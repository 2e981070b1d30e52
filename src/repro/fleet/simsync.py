"""Synchronization primitives for event-driven fleet processes.

:class:`repro.sim.engine.Engine` processes can only ``yield`` sleep
durations; a control plane also needs to *wait for conditions* — a wave
being released, a migration slot freeing up, the shared fabric becoming
idle.  This module adds waitables (:class:`Gate`, :class:`Latch`,
:class:`FifoSemaphore`) and a :class:`FleetProcess` driver whose generators
may yield either a float (sleep) or a waitable (park until signalled).

Everything is built on ``engine.call_after`` — wake-ups are scheduled
events, never polling loops, so a campaign over thousands of hosts stays
O(events log events).  Waiters wake in strict FIFO order at the timestamp
of the signal, which keeps runs deterministic.  A grant that needs no
waiting reuses its semaphore's (or ledger's) one pre-fired gate rather
than allocating a fresh one.
"""

from typing import Callable, Deque, Generator, List, Optional
from collections import deque

from repro.errors import FleetError, SimulationError
from repro.sim.engine import Engine


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
