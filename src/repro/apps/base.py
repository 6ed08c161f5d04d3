"""Shared plumbing for the miniature applications.

Every application method that participates in a known deadlock follows the
same shape: acquire a first lock, then a second one with a bounded
timeout.  A timeout means the thread was stuck in a deadlock long enough
for the monitor to have detected it; the application surfaces this as
:class:`AppLockTimeout` (the stand-in for the external restart the paper
relies on for recovery).

Locks come from the factories :meth:`MiniApp.make_lock` and
:meth:`MiniApp.make_rlock`, which a subclass overrides to run the same
code on other locks: plain ``threading`` ones (the benchmark's native
twin) or the simulator's thread-program locks
(:mod:`repro.sim.threads`), under which the Table 1-2 exploits are
explored over every interleaving (:mod:`repro.workloads.exploits`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from ..core.errors import DimmunixError
from ..instrument.locks import DimmunixLock, DimmunixRLock
from ..instrument.patching import default_runtime
from ..instrument.runtime import InstrumentationRuntime


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
    def holding(self, lock: DimmunixLock, operation: str):
        """Hold ``lock`` for the duration of the block."""
        self.acquire_nested(lock, operation)
        try:
            yield
        finally:
            lock.release()
