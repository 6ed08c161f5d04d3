"""The unified runtime-core API shared by every runtime adapter.

Dimmunix has three runtimes: real threads (:mod:`repro.instrument`),
asyncio tasks (:mod:`repro.instrument.aio`) and the deterministic
simulator (:mod:`repro.sim`).  Each used to carry its own copy of the
engine-driving glue — forwarding request/acquired/release/cancel to the
engine and hand-rolling the release-side wakeups.  This module holds that
glue once:

* :class:`RuntimeCore` — the six-operation protocol
  (``request`` / ``acquired`` / ``release`` / ``cancel`` / ``park`` /
  ``wake``) through which runtimes drive the avoidance engine.  Releases
  wake dissolved yielders through the waker registry uniformly, so no
  runtime needs its own wake plumbing.
* :class:`ThreadParker` — the runtime-specific parking primitive a
  runtime plugs into the core.  The instrumentation parks real threads on
  per-thread events; the asyncio runtime parks *tasks* on loop-bound
  futures; the simulator needs none: it answers a PARK step by flipping
  the thread's scheduler state, with a waker that marks it runnable again.

* :func:`acquisition` — the avoidance protocol of one acquisition,
  written once as a sans-IO generator that all three runtimes drive (the
  simulator's backend is a :class:`RuntimeCore`); :class:`HoldLedger` — the who-holds-what bookkeeping
  and grant rules of their multi-holder primitives; and
  :class:`LockRuntime` — the stack capture and id allocation they share.

The engine itself never blocks: a YIELD outcome tells the *runtime* to
park, and a wake tells it to retry the request — the core codifies that
contract once for all three worlds.  "Thread" in this API means a unit
of execution identified by a small integer: an OS thread in
:mod:`repro.instrument`, an asyncio task in :mod:`repro.instrument.aio`,
a simulated generator-thread in :mod:`repro.sim`.  The engine never
inspects the identity — any stable integer works.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..util.atomics import atomic_counter
from .avoidance import Decision, RequestOutcome
from .callstack import CallStack
from .signature import EXCLUSIVE, SHARED, Signature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dimmunix import Dimmunix


class ThreadParker:
    """Runtime-specific parking primitive plugged into :class:`RuntimeCore`.

    ``prepare`` arms the wake primitive; the engine calls it under its
    match mutex just before it publishes a yield's causes, so no wake they
    trigger is lost.  ``park`` blocks (or suspends) the thread until woken
    or until the timeout expires, returning whether it was woken.  The
    default never parks — the simulator keeps it, as it answers
    :func:`acquisition`'s PARK step with a thread state instead.
    """

    def prepare(self, thread_id: int) -> None:
        """Arm the wake primitive for ``thread_id`` (before a yield is published)."""

    def park(self, thread_id: int, timeout: Optional[float]) -> bool:
        """Suspend ``thread_id``; return True when woken before ``timeout``."""
        return True

    async def park_async(self, thread_id: int,
                         timeout: Optional[float]) -> bool:
        """Coroutine form of :meth:`park` for event-loop runtimes.

        Parkers whose callers run inside an event loop (the asyncio
        runtime) must suspend the *task*, not the loop's thread; they
        override this coroutine.  The default delegates to the blocking
        :meth:`park`, which is correct only for parkers that do not
        actually block (such as the default no-op parker).
        """
        return self.park(thread_id, timeout)

    def forget(self, thread_id: int) -> None:
        """Drop parking state of a terminated thread."""


class RuntimeCore:
    """Drives the avoidance engine on behalf of a runtime adapter.

    One :class:`RuntimeCore` wraps one :class:`~repro.core.dimmunix.Dimmunix`
    instance.  All engine access from lock wrappers, monkey-patched call
    sites and the simulator (whose ``DimmunixBackend`` is a core) goes
    through these methods — runtimes never reach into ``dimmunix.engine``
    directly.
    """

    def __init__(self, dimmunix: "Dimmunix",
                 parker: Optional[ThreadParker] = None):
        self.dimmunix = dimmunix
        self.parker = parker if parker is not None else ThreadParker()

    # -- engine access -----------------------------------------------------------------

    @property
    def engine(self):
        """The avoidance engine being driven (introspection only)."""
        return self.dimmunix.engine

    @property
    def config(self):
        """The configuration of the attached Dimmunix instance."""
        return self.dimmunix.config

    def fork(self) -> "RuntimeCore":
        """A fresh core: new engine, same config, deep-copied history.

        Systematic exploration runs the same scenario under many
        interleavings; each run must start from identical engine state and
        must not leak learned signatures (or mutated signature counters)
        into its siblings.  ``fork`` gives every run its own Dimmunix
        instance seeded with an isolated copy of the current history.

        The fork gets the default (non-blocking) parker: parkers are
        runtime-specific and bound to their runtime's wake machinery, so
        a runtime that parks for real must install its own parker against
        the forked core.  The simulator parks nothing: ``DimmunixBackend.fork``
        wraps the forked instance in a fresh backend, whose PARK steps the
        scheduler answers with thread states.
        """
        from .dimmunix import Dimmunix  # runtime import: cycle guard
        from .history import History

        source = self.dimmunix
        history = History(path=None, autosave=False)
        history.merge(Signature.from_dict(sig.to_dict())
                      for sig in source.history.signatures())
        clone = Dimmunix(config=source.config, history=history,
                         clock=type(source.clock)(),
                         deadlock_handler=source.monitor.deadlock_handler,
                         restart_handler=source.monitor.restart_handler,
                         engine_mode=source.engine.mode)
        return clone.runtime_core

    # -- history sharing ---------------------------------------------------------------

    def attach_share(self, share, sync: bool = True):
        """Join a cross-process signature pool (forwards to the facade).

        Runtimes expose this so adapters configured only with a core —
        lock wrappers, simulator backends — can still plug a
        :class:`~repro.share.channel.HistoryChannel` (or spec string) into
        the engine they drive.  New local signatures then publish as soon
        as the monitor archives them, and remote ones install into the
        striped cache index on every monitor pass.
        """
        return self.dimmunix.attach_share(share, sync=sync)

    @property
    def share_pool(self):
        """The attached :class:`~repro.share.pool.SignaturePool`, if any."""
        return self.dimmunix.share_pool

    # -- the six-operation protocol -------------------------------------------------------

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1,
                take: Optional[Callable[[int, str], bool]] = None) -> RequestOutcome:
        """Ask for a GO/YIELD decision before blocking on ``lock_id``.

        ``mode``/``capacity`` carry the resource semantics: exclusive
        permits (mutexes, semaphore permits) vs shared reader holds, and
        the resource's permit count.  Defaults are plain mutex semantics.
        With ``take`` (the primitive's non-blocking take) a granted request
        takes it too, and returns :data:`~repro.core.avoidance.TAKEN_OUTCOME`
        once the hold is recorded.  A YIELD arms the parker first.
        """
        return self.dimmunix.engine.request(thread_id, lock_id, stack, mode, capacity,
                                            take, self.parker)

    def acquired(self, thread_id: int, lock_id: int,
                 stack: Optional[CallStack] = None, mode: str = EXCLUSIVE,
                 capacity: int = 1) -> None:
        """Record that the thread actually obtained the lock."""
        self.dimmunix.engine.acquired(thread_id, lock_id, stack, mode, capacity)

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        """Record a release and wake every thread whose yield cause dissolved.

        Waking goes through the waker registry, so the caller does not need
        its own wake plumbing; the woken ids are still returned for
        introspection and scheduler bookkeeping.
        """
        woken = self.dimmunix.engine.release(thread_id, lock_id)
        if woken:
            self.dimmunix.wake(woken)
        return woken

    def cancel(self, thread_id: int, lock_id: int) -> None:
        """Roll back a previously allowed request (trylock / timed lock)."""
        self.dimmunix.engine.cancel(thread_id, lock_id)

    def note_blocked(self, thread_id: int) -> None:
        """The thread is about to block natively on its requested resource.

        Lock wrappers call this after a failed non-blocking attempt, just
        before the real park/await, so the engine can materialize any
        lazily captured stacks the blocked thread might contribute to a
        deadlock signature while the thread can still walk its own
        frames.  Cheap no-op when nothing is deferred.
        """
        self.dimmunix.engine.note_blocked(thread_id)

    def park(self, thread_id: int, timeout: Optional[float]) -> bool:
        """Park a thread that received YIELD; True when woken in time."""
        return self.parker.park(thread_id, timeout)

    async def park_async(self, thread_id: int,
                         timeout: Optional[float]) -> bool:
        """Park an event-loop task that received YIELD (coroutine form).

        Same contract as :meth:`park`, but suspends only the calling task;
        other tasks on the same event loop keep running.  Delegates to the
        parker's :meth:`ThreadParker.park_async`.
        """
        return await self.parker.park_async(thread_id, timeout)

    def wake(self, thread_ids: List[int]) -> None:
        """Un-park the given threads through the waker registry."""
        self.dimmunix.wake(thread_ids)

    # -- yield lifecycle helpers ------------------------------------------------------------

    def prepare_wait(self, thread_id: int) -> None:
        """Arm the parker, as :meth:`request` does before it publishes a yield."""
        self.parker.prepare(thread_id)

    def abort_yield(self, thread_id: int) -> Optional[Signature]:
        """Abort the thread's current yield after the yield bound expired."""
        return self.dimmunix.engine.abort_yield(thread_id)

    # -- waker registry pass-throughs --------------------------------------------------------

    def register_waker(self, thread_id: int, waker: Callable[[], None]) -> None:
        """Register the callable that un-parks ``thread_id``."""
        self.dimmunix.register_waker(thread_id, waker)

    def unregister_waker(self, thread_id: int) -> None:
        """Remove a previously registered waker."""
        self.dimmunix.unregister_waker(thread_id)

    def forget_thread(self, thread_id: int) -> None:
        """Drop engine, parker, waker and (at a later pass) RAG state of a terminated thread."""
        self.dimmunix.engine.forget_thread(thread_id)
        self.parker.forget(thread_id)
        self.dimmunix.unregister_waker(thread_id)
        self.dimmunix.monitor.forget_thread(thread_id)


# ---------------------------------------------------------------------------
# The acquisition protocol
# ---------------------------------------------------------------------------

#: The two things only a runtime can do; :func:`acquisition` yields
#: ``(step, timeout)`` and is sent back whether the step succeeded.
PARK = "park"
WAIT_NATIVE = "wait-native"


def acquisition(core: RuntimeCore, thread_id: int, lock_id: int,
                stack: CallStack, mode: str, capacity: int, blocking: bool,
                deadline: Optional[float], now: Optional[Callable[[], float]],
                outcome: RequestOutcome, take: Callable[[int, str], bool]):
    """The avoidance protocol of one acquisition, as a sans-IO generator.

    Every driver first asks ``core.request(..., take)`` itself; the
    generator runs only when that did not take the primitive, and starts
    from its ``outcome``.  ``take(thread_id, mode)`` is the primitive's
    non-blocking take.  It makes every further engine call itself and
    yields to its driver only what a runtime alone can do:

    * ``(PARK, t)`` — the engine answered YIELD: park the thread for at
      most ``t`` seconds (``None``: until woken); send back whether it was
      woken.  An unwoken park under a configured yield bound aborts the
      yield (section 5.7), and the request is retried either way.
    * ``(WAIT_NATIVE, t)`` — the engine answered GO and ``take`` failed:
      wait on the native primitive for at most ``t`` seconds; send back
      whether it was taken.  Repeated until taken or until ``deadline``
      (a reading of ``now``) has passed, so a wait that ends early is
      re-checked, never reported as failure.

    Returns True after ``acquired``, False for a refused trylock or an
    expired deadline.  Every exit without ``acquired`` — those two, an
    exception the driver throws in, or ``close()`` when the driver itself
    failed or its task was cancelled — rolls the request back with
    ``cancel`` (the pthreads trylock/timed-lock extension), here and
    nowhere else.
    """
    settled = False
    try:
        while outcome.decision is Decision.YIELD:
            if not blocking:
                return False
            bound = wait_for = core.config.yield_timeout
            if deadline is not None:
                remaining = deadline - now()
                if remaining <= 0:
                    return False
                wait_for = remaining if bound is None else min(bound, remaining)
            woken = yield PARK, wait_for
            if not woken and bound is not None:
                core.abort_yield(thread_id)
            outcome = core.request(thread_id, lock_id, stack, mode, capacity)
        taken = take(thread_id, mode)
        if not taken and blocking:
            # Only now, off the uncontended path: materialize the lazily
            # captured stacks a blocked thread may contribute to a signature.
            core.note_blocked(thread_id)
            while not taken:
                remaining = None
                if deadline is not None:
                    remaining = deadline - now()
                    if remaining <= 0:
                        break
                taken = yield WAIT_NATIVE, remaining
        if taken:
            settled = True
            core.acquired(thread_id, lock_id, stack, mode, capacity)
        return taken
    finally:
        if not settled:
            core.cancel(thread_id, lock_id)


class HoldLedger:
    """Who holds one multi-holder resource, and what may be granted next.

    With a ``capacity`` it is a permit pool (semaphore): EXCLUSIVE holds
    are permits, a thread may hold several, and none is reentrant.
    Without one it is a reader-writer resource: SHARED holds coexist, an
    EXCLUSIVE hold needs every other thread gone (a sole reader may
    upgrade), and both are reentrant — the writer's depth is its
    EXCLUSIVE count.  The same rules as ``SimSemaphore``/``SimRWLock``,
    which stay separate as the model the explorer proves; tests pin the
    two together.  Not synchronized: thread primitives guard it with the
    lock they already own.
    """

    __slots__ = ("capacity", "_holders", "_readers")

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        #: thread id -> EXCLUSIVE holds (permits, or the writer's depth).
        self._holders: Dict[int, int] = {}
        #: thread id -> reentrant SHARED holds.
        self._readers: Dict[int, int] = {}

    def _grantable(self, thread_id: int, mode: str) -> bool:
        holders = self._holders
        if self.capacity is not None:
            return sum(holders.values()) < self.capacity
        # "Nobody else holds", spelled without a generator per table: this
        # runs once per reader-writer acquisition.
        if holders and (len(holders) > 1 or thread_id not in holders):
            return False
        readers = self._readers
        return (mode == SHARED or not readers
                or (len(readers) == 1 and thread_id in readers))

    def grant(self, thread_id: int, mode: str = EXCLUSIVE) -> None:
        """Record one more hold of ``thread_id``."""
        table = self._readers if mode == SHARED else self._holders
        table[thread_id] = table.get(thread_id, 0) + 1

    def take(self, thread_id: int, mode: str = EXCLUSIVE) -> bool:
        """Grant one more hold if the rules allow it right now."""
        if not self._grantable(thread_id, mode):
            return False
        # grant(), inlined: this runs once per reader-writer acquisition.
        table = self._readers if mode == SHARED else self._holders
        table[thread_id] = table.get(thread_id, 0) + 1
        return True

    def release(self, thread_id: Optional[int],
                mode: str = EXCLUSIVE) -> Optional[int]:
        """Drop one hold; the thread it was recorded under, None if there is none.

        Permits may be returned by a thread that holds none (hand-off
        usage): the release is then attributed to a thread that does, so
        the engine still sees a permit freed.  Reader-writer holds belong
        to their thread.
        """
        table = self._readers if mode == SHARED else self._holders
        if thread_id not in table:
            if self.capacity is None or not table:
                return None
            thread_id = next(iter(table))
        if table[thread_id] == 1:
            del table[thread_id]
        else:
            table[thread_id] -= 1
        return thread_id

    def permits_held(self) -> int:
        """Total EXCLUSIVE holds currently recorded."""
        return sum(self._holders.values())

    def reader_count(self) -> int:
        """Number of distinct threads holding SHARED."""
        return len(self._readers)

    @property
    def writer(self) -> Optional[int]:
        """The thread holding EXCLUSIVE on a reader-writer resource, if any."""
        return next(iter(self._holders), None)


class LockRuntime:
    """What the thread and asyncio runtimes share around one Dimmunix instance.

    Subclasses add unit-of-execution identity (``current_id()``: the
    calling thread's, the running task's) and the parker that suspends
    one; lock wrappers reach the engine only through :attr:`core`.
    """

    def __init__(self, dimmunix: "Dimmunix", parker: ThreadParker):
        self.dimmunix = dimmunix
        #: The unified engine-driving layer; lock wrappers go through this.
        self.core = RuntimeCore(dimmunix, parker=parker)
        self._next_lock_id = atomic_counter(1).next

    def new_lock_id(self) -> int:
        """Allocate an id for a newly created lock wrapper."""
        return self._next_lock_id()

    def capture_stack(self) -> CallStack:
        """Capture the caller's stack, bounded by the configured depth.

        With ``lazy_capture`` (the default) the caller's top frame is
        interned and the index's published ``sites`` probed with it, once.
        At a site a signature names the walk goes on right here, where the
        frame is live for free (inside ``asyncio.wait_for``'s wrapper task
        it no longer is); anywhere else the stack is deferred, carries the
        verdict, and materializes later, if ever: after a republished
        filter, or in :meth:`RuntimeCore.note_blocked` just before the unit
        suspends (see :class:`~repro.core.callstack.LazyCallStack`).  With
        the knob off every capture walks, through the same call-path memo.
        Either way, histories and signatures come out byte-identical;
        Dimmunix's own frames are dropped as internal.
        """
        dimmunix = self.dimmunix
        config = dimmunix.config
        if config.lazy_capture:
            stack = CallStack.capture_lazy(1, config.max_stack_depth, dimmunix.stats,
                                           dimmunix.engine.index.sites)
        else:
            stack = CallStack.capture_cached(skip=1, limit=config.max_stack_depth)
        if not stack:
            # Degenerate case (interactive shell, C callback): synthesize a
            # one-frame stack so signatures remain well formed.
            stack = CallStack.from_labels([f"<toplevel-{self._unit_name()}>:0"])
        return stack

    def _unit_name(self) -> str:
        """Name of the running thread/task, for the synthesized frame."""
        raise NotImplementedError

    @property
    def engine(self):
        """The avoidance engine of the attached Dimmunix instance."""
        return self.dimmunix.engine

    @property
    def config(self):
        """The configuration of the attached Dimmunix instance."""
        return self.dimmunix.config
