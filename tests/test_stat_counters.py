"""The engine's operation counters are its event records, counted.

``EngineStats`` derives ``requests``, ``go_decisions``, ``yield_decisions``,
``acquisitions``, ``releases`` and ``cancels`` from the per-code counts of
the engine's event bus instead of bumping a counter per operation.  For
each runtime every kind of operation is driven once and three accounts
must agree: the count made by hand, ``snapshot()``, and the records the
bus handed out.  Then the edges, a full ring and churned threads, on the
records and on a bumped counter alike — and the one bump a miss-path
acquire/release still makes.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter

from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE, EV_YIELD, EventBus
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument.aio import AioLock, AioRWLock, AioSemaphore, AsyncioRuntime
from repro.instrument.locks import (DimmunixLock, DimmunixRLock, DimmunixRWLock,
                                    DimmunixSemaphore)
from repro.instrument.runtime import InstrumentationRuntime
from repro.sim import (Acquire, AcquireRead, Compute, DimmunixBackend, Release,
                       SimScheduler, TryAcquire, call_site)
from repro.sim.locks import SimRWLock, SimSemaphore

DERIVED = ("requests", "go_decisions", "yield_decisions", "acquisitions", "releases",
           "cancels")


def at_a(lock, **options):
    return lock.acquire(**options)


def at_b(lock, **options):
    return lock.acquire(**options)


async def task_at_a(lock, **options):
    return await lock.acquire(**options)


async def task_at_b(lock, **options):
    return await lock.acquire(**options)


def site(function) -> CallStack:
    """The one-frame stack a capture sees of the acquisition on ``function``'s first body line."""
    filename = CallStack.capture(skip=0).top().filename  # this file, as a capture names it
    return CallStack([Frame(function.__name__, filename, function.__code__.co_firstlineno + 1)])


def naming(first: CallStack, second: CallStack) -> History:
    """A history whose one signature yields a request at ``second`` while ``first`` is held."""
    history = History(path=None, autosave=False)
    history.add(Signature([first, second], matching_depth=1))
    return history


def counted(allow=0, yields=0, acquired=0, released=0, cancelled=0):
    return {"requests": allow + yields, "go_decisions": allow, "yield_decisions": yields,
            "acquisitions": acquired, "releases": released, "cancels": cancelled}


class Tally:
    """Every record anyone drains from ``dimmunix``'s bus (the simulator's monitor does)."""

    def __init__(self, dimmunix: Dimmunix):
        self.bus, self.records = dimmunix.engine.events, []
        self._drain = self.bus.drain_raw
        self.bus.drain_raw = self.drain

    def drain(self, limit=None):
        records = self._drain(limit)
        self.records.extend(records)
        return records

    def by_kind(self):
        self.drain()
        kinds = Counter(record[0] for record in self.records)
        return counted(kinds[EV_ALLOW], kinds[EV_YIELD], kinds[EV_ACQUIRED],
                       kinds[EV_RELEASE], kinds[EV_CANCEL])


def derived(dimmunix: Dimmunix):
    snapshot = dimmunix.stats.snapshot()
    return {name: snapshot[name] for name in DERIVED}


def assert_three_accounts_agree(dimmunix: Dimmunix, tally: Tally, by_hand) -> None:
    assert derived(dimmunix) == by_hand
    assert tally.by_kind() == by_hand


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestEveryRuntimeCountsItsRecords:
    def test_threads(self):
        dimmunix = Dimmunix(DimmunixConfig.for_testing(),
                            history=naming(site(at_a), site(at_b)))
        tally, runtime = Tally(dimmunix), InstrumentationRuntime(dimmunix)
        first, second, busy = (DimmunixLock(runtime=runtime) for _ in range(3))
        assert at_a(first)  # a grant
        yielder = threading.Thread(target=lambda: at_b(second) and second.release())
        yielder.start()
        wait_until(dimmunix.engine.cache.yielding_threads)  # a yield ...
        first.release()
        yielder.join()  # ... then a grant
        assert busy.acquire()
        assert not busy.acquire(blocking=False)  # a refused trylock
        assert not busy.acquire(timeout=0.01)  # a timed-out acquire
        busy.release()
        rlock = DimmunixRLock(runtime=runtime)
        assert rlock.acquire() and rlock.acquire()  # re-entry records ACQUIRED alone
        rlock.release()
        rlock.release()
        permits = DimmunixSemaphore(2, runtime=runtime)
        assert permits.acquire() and permits.acquire()
        permits.release(2)
        rwlock = DimmunixRWLock(runtime=runtime)
        assert rwlock.acquire_read()
        rwlock.release_read()
        assert rwlock.acquire_write()
        rwlock.release_write()
        assert_three_accounts_agree(dimmunix, tally, counted(
            allow=10, yields=1, acquired=9, released=9, cancelled=2))

    def test_asyncio(self):
        dimmunix = Dimmunix(DimmunixConfig.for_testing(),
                            history=naming(site(task_at_a), site(task_at_b)))
        tally, runtime = Tally(dimmunix), AsyncioRuntime(dimmunix)

        async def main():
            first, second, busy = (AioLock(runtime=runtime) for _ in range(3))
            assert await task_at_a(first)  # a grant

            async def yielder():
                assert await task_at_b(second)
                second.release()

            task = asyncio.create_task(yielder())
            while not dimmunix.engine.cache.yielding_threads():  # a yield ...
                await asyncio.sleep(0)
            first.release()
            await task  # ... then a grant
            assert await busy.acquire()
            assert not await busy.acquire(timeout=0)  # a refused trylock
            assert not await busy.acquire(timeout=0.01)  # a timed-out acquire
            busy.release()
            permits = AioSemaphore(2, runtime=runtime)
            assert await permits.acquire() and await permits.acquire()
            permits.release()
            permits.release()
            rwlock = AioRWLock(runtime=runtime)
            assert await rwlock.acquire_read()
            rwlock.release_read()
            assert await rwlock.acquire_write()
            rwlock.release_write()

        asyncio.run(main())
        assert_three_accounts_agree(dimmunix, tally, counted(
            allow=9, yields=1, acquired=7, released=7, cancelled=2))

    def test_sim(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                  history=naming(call_site("a:1"), call_site("b:1")))
        tally, scheduler = Tally(backend.dimmunix), SimScheduler(backend=backend, seed=0)
        first, second, rlock = (scheduler.new_lock(name) for name in ("A", "B", "R"))
        gate = scheduler.register_lock(SimSemaphore(1, name="gate"))
        permits = scheduler.register_lock(SimSemaphore(2, name="permits"))
        rwlock = scheduler.register_lock(SimRWLock(name="rw"))

        def holder():
            yield Acquire(first, call_site("a:1"))  # a grant
            yield Compute(1.0)
            yield Release(first)

        def yielder():
            yield Compute(0.1)
            yield Acquire(second, call_site("b:1"))  # a yield, then a grant
            yield Release(second)

        def the_rest():
            yield Acquire(rlock, call_site("r:1"))
            yield Acquire(rlock, call_site("r:2"))  # re-entry asks the engine here
            yield Release(rlock)
            yield Release(rlock)
            yield Acquire(gate, call_site("g:1"))
            assert not (yield TryAcquire(gate, call_site("g:2")))  # a refused trylock
            yield Release(gate)
            for _ in range(2):
                yield Acquire(permits, call_site("p:1"))
            for _ in range(2):
                yield Release(permits)
            yield AcquireRead(rwlock, call_site("rw:1"))
            yield Release(rwlock)
            yield Acquire(rwlock, call_site("rw:2"))
            yield Release(rwlock)

        for program in (holder, yielder, the_rest):
            scheduler.add_thread(program)
        result = scheduler.run()
        assert result.completed and result.yields == 1
        # The simulator has no timed acquire.
        assert_three_accounts_agree(backend.dimmunix, tally, counted(
            allow=10, yields=1, acquired=9, released=9, cancelled=1))


class TestEdges:
    def test_a_full_ring_still_counts_the_operations_it_drops(self):
        dimmunix = Dimmunix(DimmunixConfig.for_testing(event_ring_size=4))
        lock = DimmunixLock(runtime=InstrumentationRuntime(dimmunix))
        for _ in range(10):
            assert lock.acquire()
            lock.release()
        bus = dimmunix.engine.events
        assert bus.dropped == 26 and len(bus.drain_raw()) == 4
        assert derived(dimmunix) == counted(allow=10, acquired=10, released=10)
        assert dimmunix.stats.capture_deferred == 10  # a count column, not a record

    def test_churned_threads_retire_their_rings_without_losing_a_count(self):
        dimmunix = Dimmunix(DimmunixConfig.for_testing())
        lock = DimmunixLock(runtime=InstrumentationRuntime(dimmunix))
        for _ in range(100):
            threads = [threading.Thread(target=lambda: lock.acquire() and lock.release())
                       for _ in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            dimmunix.process_now()  # the drain retires the rings of ended threads
        bus = dimmunix.engine.events
        # One ring is left, the main thread's: process_now() bumps its counters there.
        assert bus.ring_count == 1 and bus._local.ring.owner() is threading.current_thread()
        assert derived(dimmunix) == counted(allow=1000, acquired=1000, released=1000)
        assert dimmunix.stats.capture_deferred == 1000  # retired with the rings


class TestTheMissPathBumpsOnce:
    """A miss-path acquire/release bumps only ``capture_deferred``: its records count the rest."""

    @staticmethod
    def _dimmunix(monkeypatch):
        bumped = []
        bump = EventBus.bump  # the capture bumps the bus itself, not through EngineStats
        monkeypatch.setattr(EventBus, "bump", lambda self, name, amount=1: (
            bumped.append(name), bump(self, name, amount))[1])
        foreign = naming(call_site("never:1", "m:0"), call_site("nowhere:2", "m:0"))
        return Dimmunix(DimmunixConfig.for_testing(), history=foreign), bumped

    def test_dimmunix_lock(self, monkeypatch):
        dimmunix, bumped = self._dimmunix(monkeypatch)
        lock = DimmunixLock(runtime=InstrumentationRuntime(dimmunix))
        assert lock.acquire()
        lock.release()
        del bumped[:]
        assert lock.acquire()
        lock.release()
        assert bumped == ["capture_deferred"]
        assert dimmunix.stats.acquisitions == dimmunix.stats.releases == 2

    def test_aio_lock(self, monkeypatch):
        dimmunix, bumped = self._dimmunix(monkeypatch)
        runtime = AsyncioRuntime(dimmunix)

        async def main():
            lock = AioLock(runtime=runtime)
            for _ in range(2):
                del bumped[:]
                assert await lock.acquire()
                lock.release()

        asyncio.run(main())
        assert bumped == ["capture_deferred"]
        assert dimmunix.stats.acquisitions == dimmunix.stats.releases == 2
