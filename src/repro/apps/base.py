"""Shared plumbing for the miniature applications.

Every application method that participates in a known deadlock follows the
same shape: acquire a first lock, optionally run an *interleave pause*
(used by the deterministic exploits to make sure the conflicting thread
has reached its own first lock), then acquire a second lock with a bounded
timeout.  A timeout means the thread was stuck in a deadlock long enough
for the monitor to have detected it; the application surfaces this as
:class:`AppLockTimeout`, which the exploit harness interprets as "this
trial deadlocked" (the stand-in for the external restart the paper relies
on for recovery).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Optional

from ..core.errors import DimmunixError
from ..instrument.locks import DimmunixLock, DimmunixRLock
from ..instrument.patching import default_runtime
from ..instrument.runtime import InstrumentationRuntime

#: Type of the optional interleaving hook threaded through app methods.
PauseHook = Optional[Callable[[], None]]


class AppLockTimeout(DimmunixError):
    """A bounded lock acquisition inside an application timed out.

    In the real systems the paper studies, this situation is a deadlock the
    user recovers from by restarting the program; the miniature apps raise
    instead so the calling thread can unwind, release its locks, and let
    the trial finish deterministically.
    """

    def __init__(self, lock_name: str, operation: str):
        super().__init__(f"timed out acquiring {lock_name} during {operation}")
        self.lock_name = lock_name
        self.operation = operation


class MiniApp:
    """Base class: lock factories bound to one instrumentation runtime."""

    #: Bound on nested lock acquisitions inside app methods, in seconds.
    acquire_timeout: float = 2.0

    def __init__(self, runtime: Optional[InstrumentationRuntime] = None,
                 acquire_timeout: Optional[float] = None):
        self.runtime = runtime if runtime is not None else default_runtime("threads")
        if acquire_timeout is not None:
            self.acquire_timeout = acquire_timeout

    # -- lock construction -----------------------------------------------------------

    def make_lock(self, name: str) -> DimmunixLock:
        """A non-reentrant Dimmunix lock tied to this app's runtime."""
        return DimmunixLock(runtime=self.runtime, name=name)

    def make_rlock(self, name: str) -> DimmunixRLock:
        """A reentrant Dimmunix lock tied to this app's runtime."""
        return DimmunixRLock(runtime=self.runtime, name=name)

    # -- acquisition helpers ----------------------------------------------------------

    def acquire_nested(self, lock: DimmunixLock, operation: str) -> None:
        """Acquire ``lock`` with the app's timeout; raise on expiry."""
        if not lock.acquire(timeout=self.acquire_timeout):
            raise AppLockTimeout(lock.name, operation)

    @contextmanager
    def holding(self, lock: DimmunixLock, operation: str,
                pause: PauseHook = None):
        """Hold ``lock`` for the duration of the block.

        ``pause`` (if given) runs right after the acquisition — exploits use
        it to force the interleaving that exposes a bug.
        """
        self.acquire_nested(lock, operation)
        try:
            if pause is not None:
                pause()
            yield
        finally:
            lock.release()


def interleave_pause(my_event: threading.Event, other_event: threading.Event,
                     timeout: float = 0.5) -> Callable[[], None]:
    """Build the standard exploit pause hook.

    The returned callable signals that the calling thread reached its first
    lock and then waits (bounded) for the conflicting thread to reach its
    own.  Without avoidance both threads proceed into the deadlock; with
    avoidance one of them is parked before signalling, the other times out
    and completes — exactly the behaviour the paper's timing-loop exploits
    produce.
    """

    def pause() -> None:
        my_event.set()
        other_event.wait(timeout)

    return pause
