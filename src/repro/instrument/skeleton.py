"""What an immune primitive is, whichever runtime suspends its callers.

The seven primitives come in two runtimes: :mod:`.locks` parks threads,
:mod:`.aio` suspends tasks.  Everything about them that does not depend
on *how* a caller waits is written here once and inherited (never
delegated to: no frame stands between a primitive's ``acquire`` and the
engine): the runtime binding, the engine-level id, the name and the
``repr``; the semaphore's tracked-versus-signalling split and the order
of its release (attribute the permit, tell the engine, return it); the
reader-writer lock's release order and its introspection.  The two
modules keep ``acquire*``, ``_try_native``/``_wait_native``, their wake
primitive and their context managers.

Each skeleton leaves two names to its subclass: ``_kind``, the default
runtime a primitive made without ``runtime=`` binds to, and ``_prefix``,
what its default name starts with.  A mutex or semaphore also says how
its native half is made (``_make_native``); whatever that returns answers
``release()`` in both runtimes.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..core.errors import InstrumentationError
from ..core.runtime_api import HoldLedger, LockRuntime
from ..core.signature import EXCLUSIVE, SHARED


class Primitive:
    """One engine-level resource: the runtime it drives, its id and its name."""

    _kind: str
    _prefix: str

    def __init__(self, runtime: Optional[LockRuntime] = None,
                 name: Optional[str] = None):
        if runtime is None:
            # Imported here: patching sits above the primitives it installs.
            from .patching import default_runtime
            runtime = default_runtime(self._kind)
        self._runtime = runtime
        self._lock_id = runtime.new_lock_id()
        self._name = name or f"{self._prefix}-{self._lock_id}"

    @property
    def lock_id(self) -> int:
        """The engine-level identifier of this primitive."""
        return self._lock_id

    @property
    def name(self) -> str:
        """Human readable name (used in diagnostics)."""
        return self._name

    def _state(self) -> str:
        """What ``repr`` says after the name."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._name} {self._state()}>"


class MutexSkeleton(Primitive):
    """A one-permit resource with a single recorded owner."""

    def __init__(self, runtime: Optional[LockRuntime] = None,
                 name: Optional[str] = None):
        super().__init__(runtime, name)
        self._native = self._make_native()
        self._owner: Optional[int] = None

    @property
    def owner(self) -> Optional[int]:
        """The Dimmunix thread/task id of the current owner, if any."""
        return self._owner

    def _state(self) -> str:
        return "(locked)" if self.locked() else "(unlocked)"


class SemaphoreSkeleton(Primitive):
    """An N-permit pool the engine tracks, or (``value == 0``) a bare signal.

    A semaphore created with permits is a resource: every acquisition
    runs the avoidance protocol with the pool's capacity, and the ledger
    records which unit holds how many permits.  One created with
    ``value == 0`` has no holder to wait on — a pure signalling
    primitive — and passes through untracked.

    Permits may come back from any thread or task; the engine release is
    recorded under a unit that actually holds a recorded permit
    (preferring the caller), so hold bookkeeping is exact under the
    paired acquire/release idiom and degrades gracefully — one recorded
    hold is transferred, the engine still sees a permit freed — under
    hand-off usage.
    """

    def __init__(self, value: int = 1, runtime: Optional[LockRuntime] = None,
                 name: Optional[str] = None):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        super().__init__(runtime, name)
        self._native = self._make_native(value)
        self._capacity = value
        #: Zero-permit semaphores are signalling primitives, not resources.
        self._engine_tracked = value >= 1
        #: Which unit holds how many permits (engine-tracked only).
        self._ledger = HoldLedger(value)
        # Threads return permits concurrently; on an event loop the mutex
        # is never contended and costs one C call each way.
        self._ledger_mutex = threading.Lock()

    def release(self) -> None:
        """Return one permit and wake the units whose yield causes dissolved."""
        if self._engine_tracked:
            try:
                caller = self._runtime.current_id()
            except InstrumentationError:  # asyncio: released outside any task
                caller = None
            with self._ledger_mutex:
                owner = self._ledger.release(caller)
            if owner is not None:
                # Engine release first: the event must precede the permit
                # becoming available (the paper's partial ordering).
                self._runtime.core.release(owner, self._lock_id)
        self._native.release()

    @property
    def capacity(self) -> int:
        """The permit count this semaphore was created with."""
        return self._capacity

    def permits_held(self) -> int:
        """Total recorded permits currently held (engine-tracked only)."""
        with self._ledger_mutex:
            return self._ledger.permits_held()

    def _state(self) -> str:
        return f"capacity={self._capacity} held={self.permits_held()}"


class RWLockSkeleton(Primitive):
    """Shared readers, one exclusive writer, reader preference.

    Readers take SHARED holds on the engine-level resource; the writer
    takes the EXCLUSIVE permit.  The engine therefore sees a blocked
    writer waiting on *every* current reader, which is what makes upgrade
    inversions (two readers both upgrading to write) and writer-vs-reader
    cycles detectable and, once archived, avoidable.  Writers wait until
    every reader (and any previous writer) has left; reads are reentrant
    per unit, and the writer may reenter ``acquire_write``.

    A subclass supplies ``_wake_waiters()``: every waiter re-checks the
    ledger, which alone decides who is granted.
    """

    def __init__(self, runtime: Optional[LockRuntime] = None,
                 name: Optional[str] = None):
        super().__init__(runtime, name)
        #: Guards the ledger; the thread primitive also waits on it.  On an
        #: event loop it is never contended (no await happens under it).
        self._mutex = threading.Lock()
        #: Readers, the writer and the grant rule.
        self._ledger = HoldLedger()

    def release_read(self) -> None:
        """Drop one SHARED hold and wake waiting writers when the last leaves."""
        self._release(SHARED, "read")

    def release_write(self) -> None:
        """Drop the EXCLUSIVE hold and wake waiting readers/writers."""
        self._release(EXCLUSIVE, "write")

    def _release(self, mode: str, what: str) -> None:
        unit = self._runtime.current_id()
        with self._mutex:
            if self._ledger.release(unit, mode) is None:
                raise InstrumentationError(
                    f"{self._name}: released by {unit}, which holds no {what} lock")
            # Still under the mutex, and before any await: the engine hears
            # of the release before a waiter can be granted what it freed.
            self._runtime.core.release(unit, self._lock_id)
            self._wake_waiters()

    def reader_count(self) -> int:
        """Number of distinct threads/tasks currently holding read locks."""
        with self._mutex:
            return self._ledger.reader_count()

    @property
    def writer(self) -> Optional[int]:
        """The Dimmunix thread/task id of the current writer, if any."""
        return self._ledger.writer

    def _state(self) -> str:
        return f"readers={self._ledger.reader_count()} writer={self.writer}"
