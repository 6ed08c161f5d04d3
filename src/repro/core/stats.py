"""Runtime statistics counters.

The engine, monitor, and calibrator update these counters so experiments
and end users can observe what Dimmunix is doing (number of yields, GO
decisions, detected deadlocks, starvation breaks, false positives, ...).

They are stored where the engine's events are: every per-thread ring of
an :class:`~repro.core.events.EventBus` keeps one count column per
counter next to its six per-code record columns.  :meth:`EngineStats.bump`
adds to a column of the calling thread's ring, taking no lock and
contending with no other thread (a shared lock would serialize every
core of a free-threaded build); a ring whose thread has ended retires
into the bus's totals.  :class:`EngineStats` is a view:
a read sums a column over the bus's rings, O(threads) but off the hot
path.

Six are never bumped by the engine: ``requests``, ``go_decisions``,
``yield_decisions``, ``acquisitions``, ``releases`` and ``cancels`` are
what its ALLOW + YIELD, ALLOW, YIELD, ACQUIRED, RELEASE and CANCEL
records count, so they are read off the record columns too: a miss-path
acquire/release writes no counter but its ring's.
"""

from __future__ import annotations

from typing import Dict, Optional

from .events import (COUNTER_COLUMNS, EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE,
                     EV_YIELD, RING_COLUMNS, EventBus)

#: Operation counter -> the event codes whose records count it.
_COUNTED_BY = {"requests": (EV_ALLOW, EV_YIELD), "go_decisions": (EV_ALLOW,),
               "yield_decisions": (EV_YIELD,), "acquisitions": (EV_ACQUIRED,),
               "releases": (EV_RELEASE,), "cancels": (EV_CANCEL,)}

#: Counter -> the ring columns its value sums: its own, plus its record columns.
_COLUMNS_OF = {name: (column,) + _COUNTED_BY.get(name, ())
               for name, column in COUNTER_COLUMNS.items()}


class EngineStats:
    """Counters maintained by the avoidance engine and monitor.

    A view over one :class:`~repro.core.events.EventBus`: an engine
    emits its events on its stats' bus (``Dimmunix`` builds it from its
    config), and a standalone ``EngineStats()`` owns a private one.  Each
    counter is readable as a plain attribute (``stats.requests``); the
    value is summed across the bus's rings at read time, so it is exact
    once the counting threads are quiescent (joined), and at worst a few
    increments stale while they are still running.
    """

    __slots__ = ("bus",)

    def __init__(self, bus: Optional[EventBus] = None):
        #: The bus whose rings hold the counts.
        self.bus = bus if bus is not None else EventBus()

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name`` on the calling thread's ring."""
        self.bus.bump(name, amount)

    def __getattr__(self, name: str) -> int:
        # Only fires for names not found via __slots__, i.e. the counters.
        if name in _COLUMNS_OF:
            return sum(self.bus.totals(_COLUMNS_OF[name]))
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}")

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters, from one read of the bus's rings."""
        totals = self.bus.totals(range(RING_COLUMNS))
        return {name: sum(totals[column] for column in columns)
                for name, columns in _COLUMNS_OF.items()}

    @property
    def yield_rate(self) -> float:
        """Fraction of requests answered with YIELD."""
        snapshot = self.snapshot()
        if snapshot["requests"] == 0:
            return 0.0
        return snapshot["yield_decisions"] / snapshot["requests"]
