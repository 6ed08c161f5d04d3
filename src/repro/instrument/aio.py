"""Deadlock immunity for ``asyncio`` programs: the event-loop runtime.

Dimmunix's immunity mechanism is defined over resource-wait cycles, not
OS threads — an ``async with lock`` inversion deadlocks an event loop
exactly the way a ``with lock`` inversion deadlocks a thread pool.  This
module is the third runtime adapter: it drives the very same
:class:`~repro.core.avoidance.AvoidanceEngine` and
:class:`~repro.core.monitor.MonitorCore` through the
:class:`~repro.core.runtime_api.RuntimeCore` protocol, but the unit of
execution is an asyncio *task*:

* :class:`TaskRegistry` assigns stable small integer ids to tasks (the
  engine's per-"thread" slots, striped cache, and signature index are
  reused unchanged — they only ever see integers),
* :class:`AsyncioParker` implements the
  :class:`~repro.core.runtime_api.ThreadParker` protocol on loop-bound
  futures: a YIELD decision suspends only the requesting task, the rest
  of the loop keeps running, and wakes may arrive from the same loop
  (lock releases) or from the monitor thread (starvation breaking) —
  cross-thread wakes are delivered with ``call_soon_threadsafe``,
* :class:`AioLock` / :class:`AioCondition` / :class:`AioSemaphore` are
  drop-in replacements for ``asyncio.Lock`` / ``Condition`` /
  ``Semaphore``; ``repro.immunize(runtime="asyncio")`` patches them over
  the ``asyncio`` factories (:mod:`.patching` holds the table) so
  existing code gains immunity unmodified.

What the primitives share with their thread twins — identity, the
semaphore's and the reader-writer lock's release — is inherited from
:mod:`.skeleton`; this module is the half that awaits.

The deadlock story mirrors the thread runtime end to end: requests are
recorded before the task blocks on the native primitive, so a cyclic
``await lock.acquire()`` stall is visible to the monitor's RAG, its
signature is archived, and subsequent runs *yield* (park) the task whose
next step would re-instantiate the pattern.  See
``examples/asyncio_quickstart.py`` for the run-twice demonstration and
:mod:`repro.sim.aio` for exploring all task interleavings of an async
scenario under the model checker.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
from collections import deque
from typing import Callable, Coroutine, Deque, Dict, Optional, Tuple

from ..core.callstack import CallStack
from ..core.dimmunix import Dimmunix
from ..core.errors import InstrumentationError
from ..core.avoidance import TAKEN_OUTCOME
from ..core.runtime_api import PARK, LockRuntime, ThreadParker, acquisition
from ..core.signature import EXCLUSIVE, SHARED
from .skeleton import MutexSkeleton, RWLockSkeleton, SemaphoreSkeleton


async def _wait_future(future: "asyncio.Future[bool]",
                       timeout: Optional[float]) -> bool:
    """Await a bare future for at most ``timeout``; False when it expired.

    Every suspension in this module goes through here.  Dimmunix cannot
    ``await asyncio.wait_for(native.acquire(), t)``: on Python ≤ 3.11
    ``wait_for`` wraps a *coroutine* in a new task, which would record
    engine events under a throwaway wrapper's identity.  Waiting on a
    plain future never creates a task.
    """
    if timeout is None:
        await future
        return True
    try:
        await asyncio.wait_for(future, timeout)
        return True
    except asyncio.TimeoutError:
        return False


class TaskRegistry:
    """Assigns stable small integer ids to live asyncio tasks.

    Ids are allocated by ``new_id`` (the engine's, shared with its
    threads) on first use by any task — including tasks of *different*
    event loops in the same process — and recycled state is dropped
    through the task's done callback, so servers spawning short-lived
    tasks do not accumulate per-task engine state.
    """

    def __init__(self, new_id, on_task_done=None):
        self._ids: Dict[int, int] = {}
        self._names: Dict[int, str] = {}
        self._new_id = new_id
        self._mutex = threading.Lock()
        self._on_task_done = on_task_done

    def current_task_id(self, task=None) -> int:
        """The stable id of ``task``, by default the running one (allocated on first use)."""
        try:
            task = task or asyncio.current_task()
        except RuntimeError:  # no running event loop
            pass
        if task is None:
            raise InstrumentationError(
                "Dimmunix asyncio primitives must be used from within a task")
        key = id(task)
        ident = self._ids.get(key)  # lock-free: asked on every lock operation
        if ident is not None:
            return ident
        with self._mutex:  # only the task itself asks, so this is its first use
            ident = self._new_id()
            self._ids[key] = ident
            self._names[ident] = task.get_name()
        task.add_done_callback(self._task_done)
        return ident

    def known_tasks(self) -> Dict[int, str]:
        """Mapping of the ids of live tasks to their task names."""
        with self._mutex:
            return dict(self._names)

    def _task_done(self, task) -> None:
        with self._mutex:
            ident = self._ids.pop(id(task), None)
            if ident is not None:
                self._names.pop(ident, None)
        if ident is not None and self._on_task_done is not None:
            self._on_task_done(ident)


class AsyncioParker(ThreadParker):
    """Parks and wakes asyncio tasks that received a YIELD decision.

    Implements the :class:`~repro.core.runtime_api.ThreadParker` protocol
    on per-task futures.  :meth:`prepare` arms a future bound to the
    task's running loop before a yield is published, closing the
    lost-wakeup window, and returns the waker that resolves it, hopping
    onto the owning loop with ``call_soon_threadsafe`` when invoked from
    another thread (the monitor breaks starvation from its own background
    thread).  A task's entry is touched only on its own loop's thread.
    """

    def __init__(self):
        #: task id -> (owning loop, wake future of the current round)
        self._futures: Dict[int, Tuple[asyncio.AbstractEventLoop,
                                       "asyncio.Future[bool]"]] = {}

    def prepare(self, task_id: int) -> Callable[[], None]:
        """Arm the wake future for ``task_id``; return the waker that resolves it.

        The engine calls it, under its match mutex, while it decides a
        YIELD for the task, just before it publishes the yield's causes.
        The task's pending future is reused and a fresh one is created only
        when the previous yield resolved it.  Reusing an unresolved future
        is safe: a stale wake scheduled against it can only cause a
        spurious wakeup, and the protocol re-requests after every wake.
        """
        entry = self._futures.get(task_id)
        if entry is None or entry[1].done():
            loop = asyncio.get_running_loop()
            entry = self._futures[task_id] = (loop, loop.create_future())
        return functools.partial(_resolve, *entry)

    def park(self, thread_id: int, timeout: Optional[float]) -> bool:
        """Blocking park is meaningless for tasks; always use :meth:`park_async`."""
        raise InstrumentationError(
            "AsyncioParker parks tasks, not threads; use park_async()")

    async def park_async(self, task_id: int,
                         timeout: Optional[float]) -> bool:
        """Suspend the calling task until woken or until ``timeout`` expires.

        Only the task sleeps — the event loop stays live, so other tasks
        (including the one whose release will dissolve the yield cause)
        keep making progress.  Cancellation propagates to the caller,
        which must roll back the pending request.
        """
        entry = self._futures.get(task_id)
        if entry is None:  # no prepare (defensive): treat as woken
            return True
        return await _wait_future(entry[1], timeout)

    def forget(self, task_id: int) -> None:
        """Drop parking state of a finished task."""
        self._futures.pop(task_id, None)


def _resolve(loop: asyncio.AbstractEventLoop, future: "asyncio.Future[bool]") -> None:
    """The waker of one armed park: resolve its future, on its own loop."""
    try:
        running = asyncio.get_running_loop()
    except RuntimeError:
        running = None
    if running is loop:
        _set_woken(future)
    else:
        with contextlib.suppress(RuntimeError):  # the loop already closed
            loop.call_soon_threadsafe(_set_woken, future)


def _set_woken(future: "asyncio.Future[bool]") -> None:
    if not future.done():
        future.set_result(True)


class AsyncioRuntime(LockRuntime):
    """Bundles a Dimmunix instance with task identity and the runtime core.

    The asyncio analogue of
    :class:`~repro.instrument.runtime.InstrumentationRuntime`: one
    :class:`AsyncioRuntime` serves any number of event loops in the
    process (task ids are process-global, wake futures are loop-bound).
    """

    def __init__(self, dimmunix: Dimmunix):
        self.parker = AsyncioParker()
        super().__init__(dimmunix, self.parker)
        # Finished tasks drop their engine slots (wakers included) and wake
        # futures automatically through the task's done callback.
        self.tasks = TaskRegistry(dimmunix.new_unit_id,
                                  on_task_done=self.core.forget_thread)
        #: Stable id of the running task (raises outside one): the
        #: registry's own method, not a forwarding frame.
        self.current_id = self.current_task_id = self.tasks.current_task_id

    def _unit_name(self) -> str:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None
        return task.get_name() if task is not None else "aiotask"


# ---------------------------------------------------------------------------
# Drop-in primitives
# ---------------------------------------------------------------------------

class _PermitQueue:
    """The waiter half of ``asyncio.Lock``/``Semaphore`` on bare futures.

    Mirrors CPython's ``asyncio.Semaphore`` waiter logic — FIFO futures,
    grant-time permit accounting, cancellation hand-over — but waits
    through :func:`_wait_future`, so the whole acquisition runs in the
    caller's task.  One permit makes it a lock; N permits make it a
    counting semaphore.
    """

    def __init__(self, value: int = 1) -> None:
        self._value = value
        self._waiters: Deque["asyncio.Future[bool]"] = deque()

    def locked(self) -> bool:
        """Whether no permits are currently available."""
        return self._value == 0

    def try_acquire(self) -> bool:
        """Take a permit if that needs no waiting (FIFO: nobody queued)."""
        if self._value > 0 and (not self._waiters or all(w.done() for w in self._waiters)):
            self._value -= 1
            return True
        return False

    async def acquire(self, timeout: Optional[float]) -> bool:
        """Wait for a permit; False on timeout, FIFO fair."""
        if self.try_acquire():
            return True
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        try:
            try:
                granted = await _wait_future(future, timeout)
            finally:
                self._waiters.remove(future)
        except asyncio.CancelledError:
            # Mirror asyncio: if the grant raced our cancellation, put
            # the permit back and pass it on so the hand-over is not lost.
            if future.done() and not future.cancelled():
                self._value += 1
                self.wake_next()
            raise
        if not granted:
            # Timed out: a release may have freed a permit that our (now
            # cancelled) future could not consume — hand it over.
            self.wake_next()
        return granted

    def release(self) -> None:
        """Return a permit and grant it to the first live waiter."""
        self._value += 1
        self.wake_next()

    def wake_next(self) -> None:
        """Grant an available permit to the first waiter still waiting."""
        if self._value <= 0:
            return
        for future in self._waiters:
            if not future.done():
                self._value -= 1
                future.set_result(True)
                return


def _caller_identity(runtime: AsyncioRuntime) -> Tuple[Optional[int], CallStack]:
    """The calling task's id and stack, taken *before* any coroutine runs.

    Every ``acquire`` is a plain method returning a coroutine and calls
    this first, in the caller, so the standard ``await
    asyncio.wait_for(lock.acquire(), t)`` idiom works even on Pythons
    whose ``wait_for`` runs the coroutine in a throwaway wrapper task
    (≤ 3.11) — engine events always carry the logical caller's identity,
    never the wrapper's.  The id is None outside a task and resolved at
    await time.  The running loop is looked up once, here, to find the task.
    """
    try:
        task = asyncio.current_task(asyncio.get_running_loop())
    except RuntimeError:  # no running event loop
        task = None
    task_id = None if task is None else runtime.tasks.current_task_id(task)
    return task_id, runtime.capture_stack()


async def _acquire(lock, task_id: Optional[int], stack: CallStack,
                   mode: str, capacity: int, timeout: Optional[float]) -> bool:
    """Acquire in one engine request, or drive the protocol from its outcome, for the running task.

    ``lock`` supplies the native half: ``_try_native(task_id, mode)``,
    which the request takes with when it grants, and the coroutine
    ``_wait_native(task_id, mode, timeout)``.  ``timeout``
    bounds the whole acquisition (avoidance parking plus native wait).
    Task cancellation surfaces at one of the awaits; closing the protocol
    on the way out rolls the pending request back.
    """
    runtime = lock._runtime
    core = runtime.core
    if task_id is None:
        task_id = runtime.current_task_id()
    take = lock._try_native
    outcome = core.request(task_id, lock._lock_id, stack, mode, capacity, take)
    if outcome is TAKEN_OUTCOME:
        return True
    # The loop's clock, not time.monotonic: a virtual-time loop expires too.
    now = None if timeout is None else asyncio.get_running_loop().time
    deadline = None if now is None else now() + timeout
    steps = acquisition(core, task_id, lock._lock_id, stack, mode, capacity,
                        True, deadline, now, outcome, take)
    reply = None
    try:
        while True:
            step, wait = steps.send(reply)
            if step is PARK:
                reply = await core.park_async(task_id, wait)
            else:
                reply = await lock._wait_native(task_id, mode, wait)
    except StopIteration as done:
        return done.value
    except BaseException:
        steps.close()  # rolls the pending request back, in the protocol
        raise


class _AsyncWith:
    """``async with``: ``acquire()`` on the way in, ``release()`` on the way out."""

    async def __aenter__(self) -> None:
        await self.acquire()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class AioLock(_AsyncWith, MutexSkeleton):
    """A drop-in ``asyncio.Lock`` protected by deadlock immunity.

    Every acquisition runs the avoidance protocol
    (:func:`repro.core.runtime_api.acquisition`): the request is recorded
    before the task joins the lock's FIFO wait queue, so cyclic stalls
    are visible to the monitor.  Releases notify the engine first (the
    paper's required partial ordering) and then hand the lock over.
    """

    _kind, _prefix = "asyncio", "aiolock"
    _make_native = _PermitQueue  # of one permit

    # -- public lock protocol -----------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> "Coroutine":
        """Acquire the lock, running the Dimmunix avoidance protocol first.

        ``timeout`` bounds the whole acquisition and the returned
        coroutine yields False on expiry — the recovery valve the
        miniature apps and the quickstart use instead of an external
        restart.  Task cancellation rolls the pending request back before
        propagating.  See :func:`_caller_identity` for why this is a
        plain method returning a coroutine.
        """
        return _acquire(self, *_caller_identity(self._runtime), EXCLUSIVE, 1,
                        timeout)

    def _try_native(self, task_id: int, mode: str) -> bool:
        if self._native.try_acquire():
            self._owner = task_id
            return True
        return False

    async def _wait_native(self, task_id: int, mode: str,
                           timeout: Optional[float]) -> bool:
        if await self._native.acquire(timeout):
            self._owner = task_id
            return True
        return False

    def release(self) -> None:
        """Release the lock and wake any tasks whose yield causes dissolved.

        Like ``asyncio.Lock``, any task may release a held lock; the
        engine release is recorded under the identity that acquired, so
        the hold bookkeeping stays consistent.  Releasing an unheld lock
        raises.
        """
        owner, native = self._owner, self._native
        if owner is None or native._value:
            raise InstrumentationError(f"{self._name} is not acquired")
        self._owner = None
        self._runtime.core.release(owner, self._lock_id)
        native._value += 1  # the permit queue's release, inlined
        if native._waiters:
            native.wake_next()

    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._native.locked()


class AioSemaphore(_AsyncWith, SemaphoreSkeleton):
    """A drop-in ``asyncio.Semaphore`` with engine-tracked permits.

    Since the engine's resource model became capacity aware, *every*
    semaphore drives the avoidance protocol: a binary semaphore is an
    exact mutex, and a counting semaphore (``value > 1``) is an N-permit
    multi-holder resource — a requester blocked on an exhausted pool
    waits on all current permit holders, so permit-exhaustion cycles are
    detectable, archivable, and avoided on subsequent runs.  What a
    zero-permit semaphore is, and ``release()`` — from any task, like
    ``asyncio.Semaphore`` — are inherited: see
    :class:`~repro.instrument.skeleton.SemaphoreSkeleton`.
    """

    _kind, _prefix = "asyncio", "aiosem"
    _make_native = _PermitQueue

    def acquire(self, timeout: Optional[float] = None) -> "Coroutine":
        """Acquire one permit, running the avoidance protocol first.

        Like :meth:`AioLock.acquire`, a plain method returning a
        coroutine (see :func:`_caller_identity`).
        """
        if not self._engine_tracked:
            return self._native.acquire(timeout)
        return _acquire(self, *_caller_identity(self._runtime), EXCLUSIVE,
                        self._capacity, timeout)

    def _try_native(self, task_id: int, mode: str) -> bool:
        if self._native.try_acquire():
            self._ledger.grant(task_id)
            return True
        return False

    async def _wait_native(self, task_id: int, mode: str,
                           timeout: Optional[float]) -> bool:
        if await self._native.acquire(timeout):
            self._ledger.grant(task_id)
            return True
        return False

    def locked(self) -> bool:
        """Whether no permits are currently available."""
        return self._native.locked()


class AioRWLock(RWLockSkeleton):
    """A reader-writer lock for asyncio tasks, protected by deadlock immunity.

    The grant rules, the release order and what the engine sees of
    readers and writers: see
    :class:`~repro.instrument.skeleton.RWLockSkeleton`.  The native half
    is fully cooperative: blocked acquisitions wait on plain loop futures
    in the caller's task (never a wrapper task), and a release resolves
    every one of them.
    """

    _kind, _prefix = "asyncio", "aiorw"

    def __init__(self, runtime: Optional[AsyncioRuntime] = None,
                 name: Optional[str] = None):
        super().__init__(runtime, name)
        self._waiters: Deque["asyncio.Future[bool]"] = deque()

    # -- acquisition -----------------------------------------------------------------------

    def acquire_read(self, timeout: Optional[float] = None) -> "Coroutine":
        """Take a SHARED hold; the coroutine yields False on timeout.

        Like :meth:`AioLock.acquire`, a plain method returning a
        coroutine (see :func:`_caller_identity`).
        """
        return _acquire(self, *_caller_identity(self._runtime), SHARED, 1,
                        timeout)

    def acquire_write(self, timeout: Optional[float] = None) -> "Coroutine":
        """Take the EXCLUSIVE hold; the coroutine yields False on timeout.

        A reader calling this while still holding its read lock is the
        classic *upgrade*: natively it waits for every other reader to
        leave, and two concurrent upgraders deadlock — the pattern the
        engine learns once and avoids afterwards.
        """
        return _acquire(self, *_caller_identity(self._runtime), EXCLUSIVE, 1,
                        timeout)

    def _try_native(self, task_id: int, mode: str) -> bool:
        # No mutex: tasks of one loop never interleave inside the ledger;
        # the skeleton's is there for the thread twin.
        return self._ledger.take(task_id, mode)

    async def _wait_native(self, task_id: int, mode: str,
                           timeout: Optional[float]) -> bool:
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        try:
            await _wait_future(future, timeout)
        finally:
            self._waiters.remove(future)
        # Whatever ended the wait, the ledger decides.
        return self._ledger.take(task_id, mode)

    def _wake_waiters(self) -> None:
        for future in self._waiters:
            if not future.done():
                future.set_result(True)

    # -- context-manager helpers -----------------------------------------------------------

    @contextlib.asynccontextmanager
    async def read_lock(self, timeout: Optional[float] = None):
        """``async with rw.read_lock():`` — bracketed SHARED hold."""
        if not await self.acquire_read(timeout):
            raise InstrumentationError(
                f"{self._name}: read acquisition timed out")
        try:
            yield self
        finally:
            self.release_read()

    @contextlib.asynccontextmanager
    async def write_lock(self, timeout: Optional[float] = None):
        """``async with rw.write_lock():`` — bracketed EXCLUSIVE hold."""
        if not await self.acquire_write(timeout):
            raise InstrumentationError(
                f"{self._name}: write acquisition timed out")
        try:
            yield self
        finally:
            self.release_write()


class AioCondition(_AsyncWith):
    """A drop-in ``asyncio.Condition`` backed by an :class:`AioLock`.

    Waits release the instrumented lock and reacquire it through the
    avoidance protocol, so notification-driven lock reacquisitions get
    the same immunity coverage as plain acquisitions (the paper's
    treatment of condition-variable-associated locks).
    """

    def __init__(self, lock: Optional[AioLock] = None,
                 runtime: Optional[AsyncioRuntime] = None):
        if lock is None:
            lock = AioLock(runtime=runtime)
        elif not isinstance(lock, AioLock):
            raise InstrumentationError(
                "AioCondition requires an AioLock (got "
                f"{type(lock).__name__}); wrap native locks before use")
        self._lock = lock
        self._runtime = lock._runtime
        self._waiters: Deque["asyncio.Future[bool]"] = deque()

    # -- lock passthroughs ---------------------------------------------------------------

    async def acquire(self, timeout: Optional[float] = None) -> bool:
        """Acquire the underlying lock (see :meth:`AioLock.acquire`)."""
        return await self._lock.acquire(timeout)

    def release(self) -> None:
        """Release the underlying lock."""
        self._lock.release()

    def locked(self) -> bool:
        """Whether the underlying lock is held."""
        return self._lock.locked()

    # -- condition protocol ---------------------------------------------------------------

    async def wait(self) -> bool:
        """Release the lock, sleep until notified, reacquire the lock.

        Mirrors ``asyncio.Condition.wait`` including its cancellation
        contract: the lock is *always* reacquired before the wait
        returns or re-raises, so callers can rely on holding it.  The
        reacquisition reuses the identity that held the lock, so a
        ``wait_for``-wrapped wait keeps the logical owner.
        """
        owner = self._lock.owner
        if owner is None or not self._lock.locked():
            raise RuntimeError("cannot wait on un-acquired lock")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.release()
        try:
            self._waiters.append(future)
            try:
                await future
                return True
            finally:
                self._waiters.remove(future)
        finally:
            cancelled = None
            while True:
                try:
                    await _acquire(self._lock, owner,
                                   self._runtime.capture_stack(),
                                   EXCLUSIVE, 1, None)
                    break
                except asyncio.CancelledError as exc:
                    cancelled = exc
            if cancelled is not None:
                raise cancelled

    async def wait_for(self, predicate) -> bool:
        """Wait until ``predicate()`` is true (re-evaluated on every notify)."""
        result = predicate()
        while not result:
            await self.wait()
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` waiting tasks (the lock must be held)."""
        if not self.locked():
            raise RuntimeError("cannot notify on un-acquired lock")
        woken = 0
        for future in self._waiters:
            if woken >= n:
                break
            if not future.done():
                woken += 1
                future.set_result(True)

    def notify_all(self) -> None:
        """Wake every waiting task (the lock must be held)."""
        self.notify(len(self._waiters))
