"""Async programs on the deterministic simulator — the event-loop shim.

The real asyncio runtime (:mod:`repro.instrument.aio`) cannot enumerate
task interleavings: the production event loop schedules callbacks
opportunistically.  But coroutine yield points are *explicit*, which is
exactly what the model checker needs — so this module bridges ``async
def`` scenarios onto the existing :class:`~repro.sim.scheduler.SimScheduler`
and, through it, onto the PR 2 exploration engine:

* an ``async def`` program awaits :class:`AioSimLock` operations and
  :func:`asleep`/:func:`alog` checkpoints; each await suspends the
  coroutine and hands the scheduler a regular :mod:`repro.sim.actions`
  object (coroutines expose the same ``send`` protocol as generators, so
  the scheduler drives them unchanged — each simulated "thread" *is* an
  asyncio-style task, and the schedule policy decides which task the
  simulated loop resumes next),
* :func:`async_program` adapts an ``async def`` function into the
  program-factory shape :meth:`SimScheduler.add_thread` expects,
* :func:`build_aio_two_lock_inversion` / :func:`build_aio_philosophers`
  are the canonical async scenarios, registered in
  :data:`repro.sim.explore.SCENARIOS` so the
  :class:`~repro.sim.explore.Explorer`, the
  :class:`~repro.sim.explore.ImmunityChecker`, the replay fixtures, and
  the harness matrix cover asyncio programs exactly like threaded ones.

Because the scheduler is shared, the explorer applies verbatim:
exhaustive DFS and source-DPOR, record/replay of
:class:`~repro.sim.schedule.ScheduleTrace` (slots are task registration
indices), greedy shrinking, and the immunity claim checked over *all*
task interleavings.
"""

from __future__ import annotations

from typing import Callable, Coroutine, Optional, Sequence, Union

from ..core.callstack import CallStack
from .actions import Acquire, Compute, Log, Release, TryAcquire, call_site
from .backends import SchedulerBackend
from .locks import SimLock
from .scheduler import SimScheduler

#: Type of the site argument accepted by the aio lock operations.
Site = Union[CallStack, Sequence[str], None]


class _ActionAwaitable:
    """Awaitable that yields one scheduler action and returns its result.

    The innermost ``yield`` of an ``__await__`` generator surfaces through
    every level of ``coroutine.send`` — the scheduler receives the action
    exactly as if a plain generator program had yielded it, and the value
    it sends back (e.g. a :class:`TryAcquire` outcome) becomes the value
    of the ``await`` expression.
    """

    __slots__ = ("action",)

    def __init__(self, action):
        self.action = action

    def __await__(self):
        result = yield self.action
        return result


def perform(action):
    """Await-able form of a raw scheduler action (escape hatch)."""
    return _ActionAwaitable(action)


async def asleep(duration: float):
    """Spend ``duration`` seconds of virtual time (``asyncio.sleep`` analogue)."""
    await _ActionAwaitable(Compute(duration))


async def alog(message: str):
    """Record a message in the simulation log."""
    await _ActionAwaitable(Log(message))


class AioSimLock:
    """Async facade over a :class:`~repro.sim.locks.SimLock`.

    The simulated counterpart of
    :class:`~repro.instrument.aio.AioLock`: ``await lock.acquire()``
    suspends the task until the scheduler grants the lock (consulting the
    avoidance backend first), ``async with lock`` brackets a critical
    section.  Lock-related awaits carry an explicit symbolic call site,
    like every simulated lock operation.
    """

    def __init__(self, lock: SimLock):
        self._lock = lock

    @property
    def lock(self) -> SimLock:
        """The underlying simulated lock."""
        return self._lock

    @property
    def name(self) -> str:
        """Name of the underlying simulated lock."""
        return self._lock.name

    @property
    def lock_id(self) -> int:
        """Engine-level id of the underlying simulated lock."""
        return self._lock.lock_id

    async def acquire(self, site: Site = None) -> bool:
        """Acquire the lock (blocking in virtual time); always True."""
        await _ActionAwaitable(Acquire(self._lock, site))
        return True

    async def try_acquire(self, site: Site = None) -> bool:
        """Attempt a non-blocking acquisition; True when it succeeded."""
        return bool(await _ActionAwaitable(TryAcquire(self._lock, site)))

    async def release(self) -> None:
        """Release the lock (must be held by the awaiting task)."""
        await _ActionAwaitable(Release(self._lock))

    async def __aenter__(self) -> "AioSimLock":
        await self.acquire()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.release()
        return False


def new_aio_lock(scheduler: SimScheduler, name: Optional[str] = None) -> AioSimLock:
    """Create a scheduler-owned lock wrapped in its async facade."""
    return AioSimLock(scheduler.new_lock(name))


def async_program(coro_factory: Callable[..., Coroutine], *args,
                  **kwargs) -> Callable[[], Coroutine]:
    """Adapt an ``async def`` function into a SimThread program factory.

    Coroutines implement the generator ``send`` protocol, so the returned
    factory plugs straight into :meth:`SimScheduler.add_thread`; this
    helper only freezes the arguments::

        scheduler.add_thread(async_program(worker, lock_a, lock_b),
                             name="task-1")
    """

    def factory() -> Coroutine:
        return coro_factory(*args, **kwargs)

    return factory


# ---------------------------------------------------------------------------
# Reusable async programs and canonical scenarios
# ---------------------------------------------------------------------------

def aio_lock_order_program(first: AioSimLock, second: AioSimLock, label: str,
                           hold_time: float = 0.0
                           ) -> Callable[[], Coroutine]:
    """The paper's ``update(x, y)`` routine as an ``async def`` task.

    Structurally identical to
    :func:`repro.sim.programs.lock_order_program` — two tasks calling
    this with swapped locks reproduce the section 4 inversion on an
    event loop.
    """

    async def program():
        await first.acquire(call_site("alock:3", f"aupdate:{label}", "amain:0"))
        await asleep(hold_time)
        await second.acquire(call_site("alock:4", f"aupdate:{label}", "amain:0"))
        await asleep(hold_time)
        await second.release()
        await first.release()
        await alog(f"done via {label}")

    return async_program(program)


def aio_philosopher_program(left: AioSimLock, right: AioSimLock, seat: int,
                            meals: int = 1, eat_time: float = 0.001
                            ) -> Callable[[], Coroutine]:
    """A dining philosopher task picking up ``left`` then ``right``."""

    async def program():
        for _meal in range(meals):
            await left.acquire(call_site("apickup_left:11", f"adine:{seat}",
                                         "amain:0"))
            await asleep(eat_time / 2)
            await right.acquire(call_site("apickup_right:12", f"adine:{seat}",
                                          "amain:0"))
            await asleep(eat_time)
            await right.release()
            await left.release()

    return async_program(program)


def build_aio_two_lock_inversion(backend: SchedulerBackend,
                                 hold_time: float = 0.0) -> SimScheduler:
    """Async section 4 example: update(A, B) racing update(B, A) as tasks."""
    scheduler = SimScheduler(backend=backend)
    lock_a = new_aio_lock(scheduler, "aio-A")
    lock_b = new_aio_lock(scheduler, "aio-B")
    scheduler.add_thread(aio_lock_order_program(lock_a, lock_b, "s1",
                                                hold_time=hold_time),
                         name="task-fwd")
    scheduler.add_thread(aio_lock_order_program(lock_b, lock_a, "s2",
                                                hold_time=hold_time),
                         name="task-rev")
    return scheduler


def build_aio_philosophers(backend: SchedulerBackend, seats: int = 3,
                           meals: int = 1,
                           eat_time: float = 0.001) -> SimScheduler:
    """Dining philosopher tasks, all grabbing the left fork first."""
    scheduler = SimScheduler(backend=backend)
    forks = [new_aio_lock(scheduler, f"aio-fork-{i}") for i in range(seats)]
    for seat in range(seats):
        scheduler.add_thread(aio_philosopher_program(
            forks[seat], forks[(seat + 1) % seats], seat,
            meals=meals, eat_time=eat_time),
            name=f"aio-philosopher-{seat}")
    return scheduler
