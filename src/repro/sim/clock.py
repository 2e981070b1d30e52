"""Simulated clock.

The clock only moves forward.  Every duration in the library is expressed in
simulated seconds (floats); wall-clock time never leaks into results.
"""

from math import isfinite

from repro.errors import SimulationError


class SimClock:
    """A monotonically-advancing simulated clock.

    The clock starts at ``0.0`` (or an explicit epoch) and can only advance.
    It is shared by the engine, hardware models and workloads so that a single
    timeline orders every event in an experiment.  Times are finite: a NaN
    compares false against everything, so once it reached the clock no
    "past" or "backwards" guard could ever fire again.
    """

    def __init__(self, epoch: float = 0.0):
        if not isfinite(epoch) or epoch < 0:
            raise SimulationError(
                f"clock epoch must be finite and >= 0, got {epoch}"
            )
        self._now = float(epoch)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time."""
        if not isfinite(delta):
            raise SimulationError(
                f"cannot advance clock by non-finite delta {delta}"
            )
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        Raises :class:`SimulationError` if ``timestamp`` lies in the past or
        is not finite.
        """
        if not isfinite(timestamp):
            raise SimulationError(
                f"cannot move clock to non-finite time {timestamp}"
            )
        if timestamp < self._now:
            raise SimulationError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
