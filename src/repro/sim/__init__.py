"""Discrete-event simulation engine.

All time in the reproduction is simulated: transplants, migrations, reboots
and workloads advance a shared :class:`SimClock` through an event queue.

Public surface:

* :class:`SimClock` — monotonically-advancing simulated time.
* :class:`Engine` — event loop scheduling callbacks and generator processes.
* :class:`Process` — handle to a running generator process, which sleeps
  by yielding a delay and waits by yielding a gate.
* :class:`Gate` / :class:`Latch` / :class:`FifoSemaphore` — what a process
  waits on: a one-shot signal, a countdown barrier, FIFO permits.
* :class:`CPUPool` — models a machine's cores for parallel work estimation.
* :class:`BandwidthLink` — models a shared network link.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Engine, Event, FifoSemaphore, Gate, Latch, Process
from repro.sim.resources import BandwidthLink, CPUPool

__all__ = [
    "SimClock",
    "Engine",
    "Event",
    "Process",
    "Gate",
    "Latch",
    "FifoSemaphore",
    "CPUPool",
    "BandwidthLink",
]
