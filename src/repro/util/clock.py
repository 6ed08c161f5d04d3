"""Clock abstraction shared by the real-thread runtime and the simulator.

The engine timestamps events and measures yield durations; in the real
runtime this is the wall clock, in the simulator it is the scheduler's
virtual time.  Both expose the same ``now()`` interface.
"""

from __future__ import annotations

import time


class Clock:
    """Abstract clock."""

    def now(self) -> float:
        """Return the current time in seconds."""
        raise NotImplementedError


class WallClock(Clock):
    """Monotonic wall clock: ``now`` is ``time.monotonic`` itself, no frame around it."""

    now = staticmethod(time.monotonic)


class VirtualClock(Clock):
    """A manually advanced clock used by the deterministic simulator."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds (must be non-negative)."""
        if delta < 0:
            raise ValueError("cannot move a VirtualClock backwards")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` if it is in the future."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now
