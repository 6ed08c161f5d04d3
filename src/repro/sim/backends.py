"""Avoidance backends pluggable into the simulation scheduler.

The scheduler drives the shipped avoidance protocol,
:func:`~repro.core.runtime_api.acquisition`, against its backend, so a
backend is what that protocol calls: a
:class:`~repro.core.runtime_api.RuntimeCore`, plus the scheduler's hooks
(attach, the monitor's tick and quiescence pass, learning from a stall,
statistics, fork).  Three families exist:

* :class:`NullBackend` — no avoidance at all (the "baseline" configuration
  of the paper's experiments); deadlocks simply happen.
* :class:`DimmunixBackend` — a ``RuntimeCore`` around the full Dimmunix
  runtime on a virtual clock; the monitor is invoked synchronously by the
  scheduler, and the engine wakes a yielder through the waker its parker
  armed, which marks the simulated thread READY.
* The gate-lock comparison baseline in :mod:`repro.baselines`.

The engine-less ones (null, gate lock) answer through
:class:`SchedulerBackend`, the core-shaped adapter: ``request`` returns a
GO or YIELD :class:`~repro.core.avoidance.RequestOutcome`, and it has no
parker, nothing to materialize and no yield bound.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from ..core.avoidance import GO_OUTCOME, Decision, RequestOutcome
from ..core.callstack import CallStack
from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.history import History
from ..core.runtime_api import RuntimeCore, ThreadParker
from ..core.signature import EXCLUSIVE
from ..util.clock import VirtualClock
from .result import StallRecord

#: The answer an engine-less backend gives a request it denies.
YIELD_OUTCOME = RequestOutcome(Decision.YIELD)


class SchedulerBackend:
    """Interface between the scheduler and an avoidance policy.

    The lock-protocol half has :class:`RuntimeCore`'s shape, because
    :func:`~repro.core.runtime_api.acquisition` is what calls it:
    ``request``/``acquired`` carry the resource semantics of the
    operation (acquisition ``mode`` and the resource's permit
    ``capacity``), which backends that only understand mutexes may
    ignore.  The defaults are an engine-less core's: no yield bound in
    :attr:`config`, and nothing to take, arm, materialize or abort.
    """

    name = "abstract"
    #: No ``yield_timeout``: an engine-less backend's yields are unbounded.
    config = DimmunixConfig()

    def attach(self, scheduler) -> None:
        """Called once by the scheduler before the run starts."""

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1, take=None) -> RequestOutcome:
        """``GO_OUTCOME`` or a YIELD outcome; the protocol takes after a GO."""
        raise NotImplementedError

    def acquired(self, thread_id: int, lock_id: int, stack: CallStack,
                 mode: str = EXCLUSIVE, capacity: int = 1) -> None:
        """Record a successful acquisition."""

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        """Record a release; return thread ids whose yields should dissolve."""
        return []

    def cancel(self, thread_id: int, lock_id: int) -> None:
        """Roll back a request (failed trylock, run ended before the grant)."""

    def note_blocked(self, thread_id: int) -> None:
        """The thread is about to wait on the resource (no lazy stacks here)."""

    def abort_yield(self, thread_id: int) -> None:
        """Give up a yield whose bound passed (unreachable: there is none)."""

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
                mode: str = EXCLUSIVE, capacity: int = 1, take=None) -> RequestOutcome:
        return GO_OUTCOME


class _SchedulerParker(ThreadParker):
    """Arms nothing (the scheduler answers PARK with a thread state); its waker readies the thread."""

    def __init__(self, wake_thread: Callable[[int], None]):
        self.wake_thread = wake_thread

    def prepare(self, thread_id: int) -> Callable[[], None]:
        return functools.partial(self.wake_thread, thread_id)


class DimmunixBackend(RuntimeCore, SchedulerBackend):
    """The full Dimmunix runtime as a simulator backend.

    It *is* the :class:`~repro.core.runtime_api.RuntimeCore` the
    real-thread instrumentation drives (first in the bases, so the engine
    answers the lock protocol), plus the scheduler's hooks.  The Dimmunix
    instance uses the scheduler's virtual clock and its monitor is
    executed synchronously from :meth:`poll` and :meth:`on_quiescence`
    rather than from a background thread.  :meth:`attach` installs a
    parker that arms nothing: the waker it returns flips the thread back
    to READY, and the engine calls it when a release dissolves the yield
    or the monitor forces a GO.
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
        super().__init__(dimmunix)

    # -- scheduler wiring --------------------------------------------------------------

    def attach(self, scheduler) -> None:
        # Keep the engine clock in lockstep with the scheduler's clock.
        scheduler.clock_listeners.append(self.clock.advance_to)
        self.parker = _SchedulerParker(scheduler.wake_thread)

    # -- monitor hooks --------------------------------------------------------------------

    def poll(self, scheduler) -> None:
        self.dimmunix.process_now()

    def on_quiescence(self, scheduler) -> bool:
        before_broken = self.dimmunix.stats.starvations_broken
        before_ready = scheduler.runnable_count()
        self.dimmunix.process_now()
        # Breaking a starvation wakes the victim through the waker its yield
        # armed, which marks it READY; report whether anything became runnable.
        return (self.dimmunix.stats.starvations_broken > before_broken
                or scheduler.runnable_count() > before_ready)

    def stats(self) -> Dict[str, int]:
        data = self.dimmunix.stats.snapshot()
        data["history_size"] = len(self.dimmunix.history)
        return data

    def fork(self) -> "DimmunixBackend":
        """A fresh backend around a forked Dimmunix (copied history, new engine).

        Subclasses that only adjust configuration (e.g. the detection-only
        baseline) are preserved: the fork is constructed from the cloned
        Dimmunix instance via ``type(self)``-independent wiring, so the
        exploration engine can fork any engine-backed backend.
        """
        dimmunix = self.dimmunix.fork()
        fork = DimmunixBackend.__new__(type(self))
        DimmunixBackend.__init__(fork, dimmunix=dimmunix, clock=dimmunix.clock)
        return fork

    # -- convenience ----------------------------------------------------------------------

    @property
    def history(self) -> History:
        """The signature history accumulated by this backend."""
        return self.dimmunix.history
