"""Avoidance backends pluggable into the simulation scheduler.

A backend answers the scheduler's lock-protocol questions the same way the
avoidance instrumentation answers them for real threads.  Three families
exist:

* :class:`NullBackend` — no avoidance at all (the "baseline" configuration
  of the paper's experiments); deadlocks simply happen.
* :class:`DimmunixBackend` — the full Dimmunix runtime driven with a
  virtual clock; the monitor is invoked synchronously by the scheduler.
* The comparison baselines (gate locks, ghost locks) in
  :mod:`repro.baselines` implement the same interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.callstack import CallStack
from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.history import History
from ..core.runtime_api import RuntimeCore
from ..core.signature import EXCLUSIVE
from ..util.clock import VirtualClock
from .result import StallRecord


class SchedulerBackend:
    """Interface between the scheduler and an avoidance policy.

    ``request``/``acquired`` carry the resource semantics of the operation
    (acquisition ``mode`` and the resource's permit ``capacity``) so
    engine-backed backends can model semaphores and rwlocks; backends that
    only understand mutexes may simply ignore both keywords.
    """

    name = "abstract"

    def attach(self, scheduler) -> None:
        """Called once by the scheduler before the run starts."""

    def on_thread_added(self, thread_id: int) -> None:
        """Called when a simulated thread is registered."""

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1) -> bool:
        """Return True for GO, False for YIELD."""
        raise NotImplementedError

    def acquired(self, thread_id: int, lock_id: int, stack: CallStack,
                 mode: str = EXCLUSIVE, capacity: int = 1) -> None:
        """Record a successful acquisition."""

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        """Record a release; return thread ids whose yields should dissolve."""
        return []

    def cancel(self, thread_id: int, lock_id: int) -> None:
        """Roll back a request (failed trylock)."""

    def poll(self, scheduler) -> None:
        """Periodic hook (the monitor's tau tick)."""

    def on_quiescence(self, scheduler) -> bool:
        """Called when no thread is runnable.

        Return True if the backend changed something that may have made a
        thread runnable again (e.g. broke an induced starvation); the
        scheduler will then re-examine its run queue instead of declaring a
        stall.
        """
        return False

    def on_deadlock(self, stall: StallRecord, details: Dict) -> None:
        """Learning hook invoked by the scheduler when a stall is declared."""

    def stats(self) -> Dict[str, int]:
        """Backend-specific counters included in the run result."""
        return {}

    def fork(self) -> "SchedulerBackend":
        """A fresh, unattached backend equivalent to this one at rest.

        The exploration engine runs one scenario under many interleavings
        and needs a pristine backend per run.  The default covers
        stateless backends (fresh default-constructed instance); stateful
        backends override it to carry their configuration across.
        """
        return type(self)()


class NullBackend(SchedulerBackend):
    """No avoidance: every request is granted immediately."""

    name = "none"

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1) -> bool:
        return True


class DimmunixBackend(SchedulerBackend):
    """Drives the full Dimmunix runtime from the simulator.

    The Dimmunix instance uses the scheduler's virtual clock and its
    monitor is executed synchronously from :meth:`poll` and
    :meth:`on_quiescence` rather than from a background thread.  All
    engine access goes through the same
    :class:`~repro.core.runtime_api.RuntimeCore` layer as the real-thread
    instrumentation: the simulator registers a waker per thread that flips
    it back to READY, and the core's release path wakes dissolved yielders
    through that registry.
    """

    name = "dimmunix"

    def __init__(self, dimmunix: Optional[Dimmunix] = None,
                 config: Optional[DimmunixConfig] = None,
                 history: Optional[History] = None,
                 clock: Optional[VirtualClock] = None):
        self.clock = clock or VirtualClock()
        if dimmunix is None:
            config = config or DimmunixConfig.for_testing()
            dimmunix = Dimmunix(config=config, history=history, clock=self.clock)
        self.dimmunix = dimmunix
        #: Unified engine-driving layer (shared with repro.instrument).
        self.core = RuntimeCore(dimmunix)
        self._scheduler = None

    # -- scheduler wiring --------------------------------------------------------------

    def attach(self, scheduler) -> None:
        self._scheduler = scheduler
        # Keep the engine clock in lockstep with the scheduler's clock.
        scheduler.clock_listeners.append(self.clock.advance_to)
        for thread_id in scheduler.thread_ids():
            self.on_thread_added(thread_id)

    def on_thread_added(self, thread_id: int) -> None:
        if self._scheduler is None:
            return
        scheduler = self._scheduler
        self.core.register_waker(
            thread_id, lambda tid=thread_id: scheduler.wake_thread(tid))

    # -- lock protocol ------------------------------------------------------------------

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1) -> bool:
        return self.core.request(thread_id, lock_id, stack,
                                 mode=mode, capacity=capacity).is_go

    def acquired(self, thread_id: int, lock_id: int, stack: CallStack,
                 mode: str = EXCLUSIVE, capacity: int = 1) -> None:
        self.core.acquired(thread_id, lock_id, stack,
                           mode=mode, capacity=capacity)

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        return self.core.release(thread_id, lock_id)

    def cancel(self, thread_id: int, lock_id: int) -> None:
        self.core.cancel(thread_id, lock_id)

    # -- monitor hooks --------------------------------------------------------------------

    def poll(self, scheduler) -> None:
        self.dimmunix.process_now()

    def on_quiescence(self, scheduler) -> bool:
        before_broken = self.dimmunix.stats.starvations_broken
        before_ready = scheduler.runnable_count()
        self.dimmunix.process_now()
        # Breaking a starvation wakes a thread through the waker registry,
        # which marks it READY; report whether anything became runnable.
        return (self.dimmunix.stats.starvations_broken > before_broken
                or scheduler.runnable_count() > before_ready)

    def stats(self) -> Dict[str, int]:
        data = self.dimmunix.stats.snapshot()
        data["history_size"] = len(self.dimmunix.history)
        return data

    def fork(self) -> "DimmunixBackend":
        """A fresh backend around a forked core (copied history, new engine).

        Subclasses that only adjust configuration (e.g. the detection-only
        baseline) are preserved: the fork is constructed from the cloned
        Dimmunix instance via ``type(self)``-independent wiring, so the
        exploration engine can fork any engine-backed backend.
        """
        core = self.core.fork()
        fork = DimmunixBackend.__new__(type(self))
        DimmunixBackend.__init__(fork, dimmunix=core.dimmunix,
                                 clock=core.dimmunix.clock)
        return fork

    # -- convenience ----------------------------------------------------------------------

    @property
    def history(self) -> History:
        """The signature history accumulated by this backend."""
        return self.dimmunix.history
