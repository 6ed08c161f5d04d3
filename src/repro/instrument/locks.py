"""Dimmunix-aware synchronization types for real ``threading`` programs.

:class:`DimmunixLock` and :class:`DimmunixRLock` are drop-in replacements
for ``threading.Lock`` and ``threading.RLock``;
:class:`DimmunixSemaphore` / :class:`DimmunixBoundedSemaphore` replace
``threading.Semaphore`` / ``BoundedSemaphore`` with *engine-tracked
permits* (a counting semaphore is an N-permit resource, so permit
exhaustion cycles are avoidable); :class:`DimmunixRWLock` adds a
reader-writer lock whose readers take SHARED holds and whose writer takes
the EXCLUSIVE permit.  Every acquisition runs the avoidance protocol of
:func:`repro.core.runtime_api.acquisition` — ``request``, park and retry
on YIELD, the native primitive on GO, then ``acquired``, or ``cancel``
when a trylock or timed lock gives up (the paper's pthreads extension).
This module only drives it: :func:`_acquire` parks real threads, and each
primitive says how to try and how to wait on its native half; what the
primitives share with their asyncio twins (identity, the semaphore's and
the reader-writer lock's release) is inherited from :mod:`.skeleton`.

Releases notify the engine first (the paper's required partial ordering:
the release event precedes the unlock) and then wake any threads whose
yield causes dissolved.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Optional

from ..core.errors import InstrumentationError
from ..core.avoidance import TAKEN_OUTCOME
from ..core.runtime_api import PARK, acquisition
from ..core.signature import EXCLUSIVE, SHARED
from .runtime import InstrumentationRuntime
from .skeleton import MutexSkeleton, RWLockSkeleton, SemaphoreSkeleton


def _acquire(lock, thread_id: int, stack, mode: str, capacity: int,
             blocking: bool, timeout: Optional[float]) -> bool:
    """Acquire in one engine request, or drive the protocol from its outcome, for the calling thread.

    ``lock`` supplies the native half: ``_try_native(thread_id, mode)``,
    which the request takes with when it grants, and
    ``_wait_native(thread_id, mode, timeout)``, both answering whether
    the primitive was taken.
    """
    if timeout is not None and not blocking:
        raise ValueError("can't specify a timeout for a non-blocking call")
    core, take = lock._runtime.core, lock._try_native
    outcome = core.request(thread_id, lock._lock_id, stack, mode, capacity, take)
    if outcome is TAKEN_OUTCOME:
        return True
    deadline = None if timeout is None else time.monotonic() + timeout
    steps = acquisition(core, thread_id, lock._lock_id, stack, mode, capacity,
                        blocking, deadline, time.monotonic, outcome, take)
    reply = None
    try:
        while True:
            step, wait = steps.send(reply)
            if step is PARK:
                reply = core.park(thread_id, wait)
            else:
                reply = lock._wait_native(thread_id, mode, wait)
    except StopIteration as done:
        return done.value
    except BaseException:
        steps.close()  # rolls the pending request back, in the protocol
        raise


class DimmunixLock(MutexSkeleton):
    """A non-reentrant mutex protected by deadlock immunity."""

    _kind, _prefix = "threads", "lock"
    _reentrant = False

    def __init__(self, runtime: Optional[InstrumentationRuntime] = None,
                 name: Optional[str] = None):
        super().__init__(runtime, name)
        self._count = 0

    def _make_native(self):
        return threading.Lock()

    # -- public lock protocol -----------------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the lock, running the Dimmunix avoidance protocol first."""
        runtime = self._runtime
        thread_id = runtime.current_thread_id()

        if self._reentrant and self._owner == thread_id:
            # Reentrant fast path: cannot deadlock, but keep the RAG's hold
            # multiset accurate.
            self._native.acquire()
            self._count += 1
            runtime.core.acquired(thread_id, self._lock_id, runtime.capture_stack())
            return True

        # threading spells "no timeout" -1; the protocol spells it None.
        if timeout is not None and timeout < 0:
            timeout = None
        if not _acquire(self, thread_id, runtime.capture_stack(), EXCLUSIVE, 1,
                        blocking, timeout):
            return False
        self._owner = thread_id
        self._count += 1
        return True

    def _try_native(self, thread_id: int, mode: str) -> bool:
        return self._native.acquire(False)

    def _wait_native(self, thread_id: int, mode: str,
                     timeout: Optional[float]) -> bool:
        return self._native.acquire(True, -1 if timeout is None else timeout)

    def release(self) -> None:
        """Release the lock and wake any threads whose yield causes dissolved."""
        runtime = self._runtime
        thread_id = runtime.current_thread_id()
        if self._owner != thread_id or self._count == 0:
            raise InstrumentationError(
                f"{self._name} released by thread {thread_id} which does not hold it")
        # The engine wakes dissolved yielders through the wakers their yields armed.
        runtime.core.release(thread_id, self._lock_id)
        self._count -= 1
        if self._count == 0:
            self._owner = None
        self._native.release()

    def locked(self) -> bool:
        """Whether the underlying native lock is currently held."""
        return self._count > 0

    # -- context manager ------------------------------------------------------------------

    __enter__ = acquire

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    # -- helpers used by threading.Condition -------------------------------------------------

    def _is_owned(self) -> bool:
        return self._owner == self._runtime.current_thread_id() and self._count > 0

    def _release_save(self):
        count = self._count
        owner = self._owner
        while self._count > 0:
            self.release()
        return owner, count

    def _acquire_restore(self, state) -> None:
        owner, count = state
        for _ in range(count):
            self.acquire()


class DimmunixRLock(DimmunixLock):
    """A reentrant mutex protected by deadlock immunity."""

    _reentrant = True

    def _make_native(self):
        return threading.RLock()


class DimmunixCondition(threading.Condition):
    """``threading.Condition`` backed by a Dimmunix lock.

    The paper instruments locks associated with condition variables; using
    a :class:`DimmunixRLock` as the condition's lock gives the same
    coverage here (waits release the instrumented lock, notifications
    reacquire it through the avoidance protocol).
    """

    def __init__(self, lock: Optional[DimmunixLock] = None,
                 runtime: Optional[InstrumentationRuntime] = None):
        if lock is None:
            lock = DimmunixRLock(runtime=runtime)
        super().__init__(lock)


class DimmunixSemaphore(SemaphoreSkeleton):
    """A drop-in ``threading.Semaphore`` with engine-tracked permits.

    Every permit acquisition runs the avoidance protocol with the
    semaphore's capacity, so the engine models the pool as a multi-holder
    resource: a requester blocked on an exhausted pool waits on *all*
    current permit holders, which is what makes permit-exhaustion cycles
    detectable, their signatures archivable, and future runs immune.
    What a zero-permit semaphore is and how releases from any thread are
    attributed: see :class:`~repro.instrument.skeleton.SemaphoreSkeleton`.
    """

    _kind, _prefix = "threads", "sem"

    def _make_native(self, value: int):
        return threading.Semaphore(value)

    # -- public semaphore protocol ---------------------------------------------------------

    def acquire(self, blocking: bool = True,
                timeout: Optional[float] = None) -> bool:
        """Acquire one permit, running the avoidance protocol first."""
        if not self._engine_tracked:
            # A signaling primitive, not a resource: nothing to avoid.
            return self._native.acquire(blocking, timeout)
        runtime = self._runtime
        thread_id = runtime.current_thread_id()
        if not _acquire(self, thread_id, runtime.capture_stack(), EXCLUSIVE,
                        self._capacity, blocking, timeout):
            return False
        with self._ledger_mutex:
            self._ledger.grant(thread_id)
        return True

    _try_native = DimmunixLock._try_native  # the native's non-blocking acquire

    def _wait_native(self, thread_id: int, mode: str,
                     timeout: Optional[float]) -> bool:
        return self._native.acquire(True, timeout)

    #: One permit, in the skeleton's order; ``release`` returns ``n`` of them.
    _release_one = SemaphoreSkeleton.release

    def release(self, n: int = 1) -> None:
        """Return ``n`` permits and wake threads whose yield causes dissolved."""
        if n < 1:
            raise ValueError("n must be one or more")
        for _ in range(n):
            self._release_one()

    # -- context manager -------------------------------------------------------------------

    def __enter__(self) -> bool:
        # Not ``__enter__ = acquire``: that skips the bounded subclass's count.
        return self.acquire()

    __exit__ = DimmunixLock.__exit__


class DimmunixBoundedSemaphore(DimmunixSemaphore):
    """A drop-in ``threading.BoundedSemaphore`` with engine-tracked permits.

    Releasing more permits than were acquired raises ``ValueError``
    *before* any engine bookkeeping happens, so an over-release cannot
    corrupt the avoidance state.
    """

    def __init__(self, value: int = 1,
                 runtime: Optional[InstrumentationRuntime] = None,
                 name: Optional[str] = None):
        super().__init__(value, runtime=runtime, name=name)
        self._outstanding = 0
        self._bound_mutex = threading.Lock()

    def _make_native(self, value: int):
        return threading.BoundedSemaphore(value) if value >= 1 \
            else threading.Semaphore(value)

    def acquire(self, blocking: bool = True,
                timeout: Optional[float] = None) -> bool:
        got = super().acquire(blocking, timeout)
        if got:
            with self._bound_mutex:
                self._outstanding += 1
        return got

    __enter__ = acquire

    def _release_one(self) -> None:
        with self._bound_mutex:
            if self._outstanding <= 0:
                raise ValueError("semaphore released too many times")
            self._outstanding -= 1
        super()._release_one()


class DimmunixRWLock(RWLockSkeleton):
    """A reader-writer lock protected by deadlock immunity.

    The grant rules, the release order and what the engine sees of
    readers and writers: see
    :class:`~repro.instrument.skeleton.RWLockSkeleton`.  Blocked threads
    wait on a condition over the skeleton's mutex.
    """

    _kind, _prefix = "threads", "rwlock"

    def __init__(self, runtime: Optional[InstrumentationRuntime] = None,
                 name: Optional[str] = None):
        super().__init__(runtime, name)
        # Over the ledger's own mutex, entered directly: Condition.__enter__
        # is a Python-level hop, and every acquire and release takes it.
        self._cond = threading.Condition(self._mutex)
        self._wake_waiters = self._cond.notify_all

    # -- acquisition -----------------------------------------------------------------------

    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Take a SHARED hold; False on timeout."""
        runtime = self._runtime
        return _acquire(self, runtime.current_thread_id(),
                        runtime.capture_stack(), SHARED, 1, True, timeout)

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Take the EXCLUSIVE hold; False on timeout.

        A reader calling this while still holding its read lock is the
        classic *upgrade*: natively it waits for every other reader to
        leave, and two concurrent upgraders deadlock — the pattern the
        engine learns and avoids on subsequent runs.
        """
        runtime = self._runtime
        return _acquire(self, runtime.current_thread_id(),
                        runtime.capture_stack(), EXCLUSIVE, 1, True, timeout)

    def _try_native(self, thread_id: int, mode: str) -> bool:
        with self._mutex:
            return self._ledger.take(thread_id, mode)

    def _wait_native(self, thread_id: int, mode: str,
                     timeout: Optional[float]) -> bool:
        with self._mutex:
            if self._ledger.take(thread_id, mode):
                return True
            self._cond.wait(timeout)
            # Whatever ended the wait, the ledger decides.
            return self._ledger.take(thread_id, mode)

    # -- context-manager helpers -----------------------------------------------------------

    @contextlib.contextmanager
    def read_lock(self, timeout: Optional[float] = None):
        """``with rwlock.read_lock():`` — bracketed SHARED hold."""
        if not self.acquire_read(timeout):
            raise InstrumentationError(f"{self._name}: read acquisition timed out")
        try:
            yield self
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write_lock(self, timeout: Optional[float] = None):
        """``with rwlock.write_lock():`` — bracketed EXCLUSIVE hold."""
        if not self.acquire_write(timeout):
            raise InstrumentationError(f"{self._name}: write acquisition timed out")
        try:
            yield self
        finally:
            self.release_write()


#: The ``threading`` spellings: ``from repro.instrument.locks import Lock``.
Lock, RLock, Condition = DimmunixLock, DimmunixRLock, DimmunixCondition
Semaphore, BoundedSemaphore, RWLock = (DimmunixSemaphore, DimmunixBoundedSemaphore,
                                       DimmunixRWLock)
