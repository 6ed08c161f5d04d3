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
primitive says how to try and how to wait on its native half.

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
from ..core.runtime_api import PARK, TRY_NATIVE, HoldLedger, acquisition
from ..core.signature import EXCLUSIVE, SHARED
from .runtime import InstrumentationRuntime, get_default_dimmunix


def _acquire(lock, thread_id: int, stack, mode: str, capacity: int,
             blocking: bool, timeout: Optional[float]) -> bool:
    """Drive the acquisition protocol for the calling thread.

    ``lock`` supplies the native half: ``_try_native(thread_id, mode)``
    and ``_wait_native(thread_id, mode, timeout)``, both answering
    whether the primitive was taken.
    """
    if timeout is not None and not blocking:
        raise ValueError("can't specify a timeout for a non-blocking call")
    core = lock._runtime.core
    deadline = None if timeout is None else time.monotonic() + timeout
    steps = acquisition(core, thread_id, lock._lock_id, stack, mode, capacity,
                        blocking, deadline, time.monotonic)
    reply = None
    try:
        while True:
            step, wait = steps.send(reply)
            if step is TRY_NATIVE:
                reply = lock._try_native(thread_id, mode)
            elif step is PARK:
                reply = core.park(thread_id, wait)
            else:
                reply = lock._wait_native(thread_id, mode, wait)
    except StopIteration as done:
        return done.value
    except BaseException:
        steps.close()  # rolls the pending request back, in the protocol
        raise


class DimmunixLock:
    """A non-reentrant mutex protected by deadlock immunity."""

    _reentrant = False

    def __init__(self, runtime: Optional[InstrumentationRuntime] = None,
                 name: Optional[str] = None):
        self._runtime = runtime if runtime is not None else get_default_dimmunix()
        self._native = self._make_native()
        self._lock_id = self._runtime.new_lock_id()
        self._name = name or f"lock-{self._lock_id}"
        self._owner: Optional[int] = None
        self._count = 0

    def _make_native(self):
        return threading.Lock()

    # -- public lock protocol -----------------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the lock, running the Dimmunix avoidance protocol first."""
        runtime = self._runtime
        core = runtime.core
        thread_id = runtime.current_thread_id()

        if self._reentrant and self._owner == thread_id:
            # Reentrant fast path: cannot deadlock, but keep the RAG's hold
            # multiset accurate.
            self._native.acquire()
            self._count += 1
            core.acquired(thread_id, self._lock_id, runtime.capture_stack())
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
        core = runtime.core
        thread_id = runtime.current_thread_id()
        if self._owner != thread_id or self._count == 0:
            raise InstrumentationError(
                f"{self._name} released by thread {thread_id} which does not hold it")
        # The core wakes dissolved yielders through the waker registry.
        core.release(thread_id, self._lock_id)
        self._count -= 1
        if self._count == 0:
            self._owner = None
        self._native.release()

    def locked(self) -> bool:
        """Whether the underlying native lock is currently held."""
        return self._count > 0

    # -- context manager ------------------------------------------------------------------

    def __enter__(self) -> bool:
        return self.acquire()

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

    # -- introspection --------------------------------------------------------------------------

    @property
    def lock_id(self) -> int:
        """The engine-level identifier of this lock."""
        return self._lock_id

    @property
    def name(self) -> str:
        """Human readable name (used in diagnostics)."""
        return self._name

    @property
    def owner(self) -> Optional[int]:
        """The Dimmunix thread id of the current owner, if any."""
        return self._owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked() else "unlocked"
        return f"<{type(self).__name__} {self._name} ({state})>"


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


class DimmunixSemaphore:
    """A drop-in ``threading.Semaphore`` with engine-tracked permits.

    Every permit acquisition runs the avoidance protocol with the
    semaphore's capacity, so the engine models the pool as a multi-holder
    resource: a requester blocked on an exhausted pool waits on *all*
    current permit holders, which is what makes permit-exhaustion cycles
    detectable, their signatures archivable, and future runs immune.
    Semaphores created with ``value == 0`` are pure signaling primitives
    (no holder to wait on at creation time) and pass through untracked.

    Releases may come from any thread, like ``threading.Semaphore``; the
    engine release is recorded under a thread that actually holds a
    recorded permit (preferring the caller), so hold bookkeeping stays
    consistent under the paired acquire/release idiom and degrades
    gracefully under hand-off usage.
    """

    def __init__(self, value: int = 1,
                 runtime: Optional[InstrumentationRuntime] = None,
                 name: Optional[str] = None):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self._runtime = runtime if runtime is not None else get_default_dimmunix()
        self._native = self._make_native(value)
        self._capacity = value
        self._engine_tracked = value >= 1
        self._lock_id = self._runtime.new_lock_id()
        self._name = name or f"sem-{self._lock_id}"
        #: Which thread holds how many permits (engine-tracked only).
        self._ledger = HoldLedger(value)
        self._ledger_mutex = threading.Lock()

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

    def _try_native(self, thread_id: int, mode: str) -> bool:
        return self._native.acquire(False)

    def _wait_native(self, thread_id: int, mode: str,
                     timeout: Optional[float]) -> bool:
        return self._native.acquire(True, timeout)

    def release(self, n: int = 1) -> None:
        """Return ``n`` permits and wake threads whose yield causes dissolved."""
        if n < 1:
            raise ValueError("n must be one or more")
        for _ in range(n):
            self._release_one()

    def _release_one(self) -> None:
        if self._engine_tracked:
            try:
                caller = self._runtime.current_thread_id()
            except InstrumentationError:  # pragma: no cover - defensive
                caller = None
            with self._ledger_mutex:
                owner = self._ledger.release(caller)
            if owner is not None:
                # Engine release first: the event must precede the permit
                # becoming available (the paper's partial ordering).
                self._runtime.core.release(owner, self._lock_id)
        self._native.release()

    # -- context manager -------------------------------------------------------------------

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    # -- introspection ---------------------------------------------------------------------

    @property
    def lock_id(self) -> int:
        """The engine-level identifier of this semaphore."""
        return self._lock_id

    @property
    def name(self) -> str:
        """Human readable name (used in diagnostics)."""
        return self._name

    @property
    def capacity(self) -> int:
        """The permit count this semaphore was created with."""
        return self._capacity

    def permits_held(self) -> int:
        """Total recorded permits currently held (engine-tracked only)."""
        with self._ledger_mutex:
            return self._ledger.permits_held()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self._name} "
                f"capacity={self._capacity} held={self.permits_held()}>")


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

    def _release_one(self) -> None:
        with self._bound_mutex:
            if self._outstanding <= 0:
                raise ValueError("semaphore released too many times")
            self._outstanding -= 1
        super()._release_one()


class DimmunixRWLock:
    """A reader-writer lock protected by deadlock immunity.

    Readers take SHARED holds on the engine-level resource; the writer
    takes the EXCLUSIVE permit.  The engine therefore sees a blocked
    writer waiting on *every* current reader, which is what makes
    upgrade inversions (two readers both upgrading to write) and
    writer-vs-reader cycles detectable and, once archived, avoidable.

    The native implementation is reader-preference: writers wait until
    every reader (and any previous writer) has left; reads are reentrant
    per thread, and the writer may reenter ``acquire_write``.
    """

    def __init__(self, runtime: Optional[InstrumentationRuntime] = None,
                 name: Optional[str] = None):
        self._runtime = runtime if runtime is not None else get_default_dimmunix()
        self._lock_id = self._runtime.new_lock_id()
        self._name = name or f"rwlock-{self._lock_id}"
        # The condition's own lock, entered directly: Condition.__enter__
        # is a Python-level hop, and every acquire and release takes it.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        #: Readers, the writer and the grant rule; guarded by ``_mutex``.
        self._ledger = HoldLedger()

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

    # -- release ---------------------------------------------------------------------------

    def release_read(self) -> None:
        """Drop one SHARED hold and wake waiting writers when the last leaves."""
        self._release(SHARED, "read")

    def release_write(self) -> None:
        """Drop the EXCLUSIVE hold and wake waiting readers/writers."""
        self._release(EXCLUSIVE, "write")

    def _release(self, mode: str, what: str) -> None:
        thread_id = self._runtime.current_thread_id()
        with self._mutex:
            if self._ledger.release(thread_id, mode) is None:
                raise InstrumentationError(
                    f"{self._name}: thread {thread_id} holds no {what} lock")
            # Still under the mutex, so the engine hears of the release
            # before any waiter can be granted what it freed.
            self._runtime.core.release(thread_id, self._lock_id)
            self._cond.notify_all()

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

    # -- introspection ---------------------------------------------------------------------

    @property
    def lock_id(self) -> int:
        """The engine-level identifier of this rwlock."""
        return self._lock_id

    @property
    def name(self) -> str:
        """Human readable name (used in diagnostics)."""
        return self._name

    def reader_count(self) -> int:
        """Number of distinct threads currently holding read locks."""
        with self._mutex:
            return self._ledger.reader_count()

    @property
    def writer(self) -> Optional[int]:
        """The Dimmunix thread id of the current writer, if any."""
        return self._ledger.writer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DimmunixRWLock {self._name} "
                f"readers={self._ledger.reader_count()} writer={self.writer}>")


# ---------------------------------------------------------------------------
# Factory helpers mirroring the ``threading`` API
# ---------------------------------------------------------------------------

def Lock(runtime: Optional[InstrumentationRuntime] = None,
         name: Optional[str] = None) -> DimmunixLock:
    """Create a Dimmunix-protected mutex (drop-in for ``threading.Lock``)."""
    return DimmunixLock(runtime=runtime, name=name)


def RLock(runtime: Optional[InstrumentationRuntime] = None,
          name: Optional[str] = None) -> DimmunixRLock:
    """Create a Dimmunix-protected reentrant mutex (drop-in for ``threading.RLock``)."""
    return DimmunixRLock(runtime=runtime, name=name)


def Condition(lock: Optional[DimmunixLock] = None,
              runtime: Optional[InstrumentationRuntime] = None) -> DimmunixCondition:
    """Create a condition variable whose lock is protected by Dimmunix."""
    return DimmunixCondition(lock=lock, runtime=runtime)


def Semaphore(value: int = 1,
              runtime: Optional[InstrumentationRuntime] = None,
              name: Optional[str] = None) -> DimmunixSemaphore:
    """Create an engine-tracked semaphore (drop-in for ``threading.Semaphore``)."""
    return DimmunixSemaphore(value, runtime=runtime, name=name)


def BoundedSemaphore(value: int = 1,
                     runtime: Optional[InstrumentationRuntime] = None,
                     name: Optional[str] = None) -> DimmunixBoundedSemaphore:
    """Create an engine-tracked bounded semaphore (drop-in for
    ``threading.BoundedSemaphore``)."""
    return DimmunixBoundedSemaphore(value, runtime=runtime, name=name)


def RWLock(runtime: Optional[InstrumentationRuntime] = None,
           name: Optional[str] = None) -> DimmunixRWLock:
    """Create a reader-writer lock protected by deadlock immunity."""
    return DimmunixRWLock(runtime=runtime, name=name)
