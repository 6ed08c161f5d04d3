"""The unified runtime-core API shared by every runtime adapter.

Dimmunix has three runtimes: real threads (:mod:`repro.instrument`),
asyncio tasks (:mod:`repro.instrument.aio`) and the deterministic
simulator (:mod:`repro.sim`).  Each used to carry its own copy of the
engine-driving glue — forwarding request/acquired/release/cancel to the
engine and hand-rolling the release-side wakeups.  This module holds that
glue once:

* :class:`RuntimeCore` — the protocol (``request`` / ``acquired`` /
  ``release`` / ``cancel`` / ``park``) through which runtimes drive the
  avoidance engine.  The engine wakes a dissolved yielder itself, through
  the waker its parker returned when the yield was armed, so no runtime
  needs its own wake plumbing.
* :class:`ThreadParker` — the runtime-specific parking primitive a
  runtime plugs into the core.  The instrumentation parks real threads on
  per-thread events; the asyncio runtime parks *tasks* on loop-bound
  futures; the simulator parks nothing: it answers a PARK step by flipping
  the thread's scheduler state, and its parker's waker marks it runnable again.

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

from typing import Callable, Dict, Optional, TYPE_CHECKING

from .avoidance import Decision, RequestOutcome
from .callstack import EMPTY_STACK, CallStack
from .signature import EXCLUSIVE, SHARED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dimmunix import Dimmunix


class ThreadParker:
    """Runtime-specific parking primitive plugged into :class:`RuntimeCore`.

    ``prepare`` arms the wake primitive and returns its waker, a callable
    that ends the armed park; the engine calls it under its match mutex
    and publishes the waker in the yield's one record, and calls the waker
    when a release dissolves a cause of that record or the monitor forces
    a GO by withdrawing it, so no wake is lost.  ``park`` blocks (or
    suspends) the thread until woken or until the timeout expires,
    returning whether it was woken.  The default never parks and returns
    no waker.
    """

    def prepare(self, thread_id: int) -> Optional[Callable[[], None]]:
        """Arm the wake primitive for ``thread_id``; return the waker of that park."""

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
        # The engine's own methods, bound here as no frame forwards them:
        # ``acquired`` records the hold; ``release`` records a release, and
        # the engine wakes each thread whose yield cause it dissolved through
        # the waker its own parker armed (their ids are returned); ``cancel``
        # rolls back an allowed request (trylock, timed lock); ``note_blocked``,
        # just before a thread blocks natively, materializes the lazy stacks it
        # could contribute to a signature while it can still walk its own
        # frames; ``abort_yield`` gives up a yield whose bound expired.
        engine = dimmunix.engine
        self.acquired, self.release, self.cancel = engine.acquired, engine.release, engine.cancel
        self.note_blocked, self.abort_yield = engine.note_blocked, engine.abort_yield

    # -- engine access -----------------------------------------------------------------

    @property
    def engine(self):
        """The avoidance engine being driven (introspection only)."""
        return self.dimmunix.engine

    @property
    def config(self):
        """The configuration of the attached Dimmunix instance."""
        return self.dimmunix.config

    # -- the protocol ----------------------------------------------------------------------

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1,
                take: Optional[Callable[[int, str], bool]] = None) -> RequestOutcome:
        """Ask for a GO/YIELD decision before blocking on ``lock_id``.

        ``mode``/``capacity`` carry the resource semantics: exclusive
        permits (mutexes, semaphore permits) vs shared reader holds, and
        the resource's permit count.  Defaults are plain mutex semantics.
        With ``take`` (the primitive's non-blocking take) a granted request
        takes it too, and returns :data:`~repro.core.avoidance.TAKEN_OUTCOME`
        once the hold is recorded.  A YIELD arms the parker first, and the
        waker it returned is published in the yield's record.
        """
        return self.dimmunix.engine.request(thread_id, lock_id, stack, mode, capacity,
                                            take, self.parker)

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

    # -- yield lifecycle helpers ------------------------------------------------------------

    def prepare_wait(self, thread_id: int) -> None:
        """Arm the parker, as :meth:`request` does before it publishes a yield."""
        self.parker.prepare(thread_id)

    def forget_thread(self, thread_id: int) -> None:
        """Drop an ended thread's state: engine (its standing yield too), parker and RAG.

        The RAG's goes at a later monitor pass.
        """
        self.dimmunix.engine.forget_thread(thread_id)
        self.parker.forget(thread_id)
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
    EXCLUSIVE count.  A capacity-less ledger that only ever sees EXCLUSIVE
    holds is a reentrant mutex.  The one grant rule of every runtime: the
    simulator's resources (``sim/locks.py``) take with it too, so the
    explorer proves the rule users run.  Not synchronized: thread
    primitives guard it with the lock they already own.
    """

    __slots__ = ("capacity", "_holders", "_readers")

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        #: thread id -> EXCLUSIVE holds (permits, or the writer's depth).
        self._holders: Dict[int, int] = {}
        #: thread id -> reentrant SHARED holds.
        self._readers: Dict[int, int] = {}

    def grantable(self, thread_id: int, mode: str) -> bool:
        """Would :meth:`take` grant ``thread_id`` a ``mode`` hold right now?"""
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
        if not self.grantable(thread_id, mode):
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

    def held_by(self, thread_id: int) -> bool:
        """True when ``thread_id`` holds anything."""
        return thread_id in self._holders or thread_id in self._readers

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
        #: Allocates a new lock wrapper's id, from the engine's one id space.
        self.new_lock_id = dimmunix.new_lock_id

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
            # The bus counts the capture itself: no stats frame forwards the bump.
            stack = CallStack.capture_lazy(1, config.max_stack_depth, dimmunix.stats.bus,
                                           dimmunix.engine.index.sites)
        else:
            stack = CallStack.capture_cached(skip=1, limit=config.max_stack_depth)
        if stack is EMPTY_STACK:  # every empty capture is this one object
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
