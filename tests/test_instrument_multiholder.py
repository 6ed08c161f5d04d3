"""Thread- and asyncio-runtime tests for engine-tracked semaphores and rwlocks.

The acceptance story, against real threads and a real event loop: a
permit-exhaustion deadlock and an rwlock upgrade inversion each manifest
(via timeout recovery) on the first run, archive a signature, and are
avoided on the second run against the same history.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

import repro
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.signature import SHARED
from repro.instrument.aio import AioRWLock, AioSemaphore, AsyncioRuntime
from repro.instrument.locks import (DimmunixBoundedSemaphore, DimmunixRWLock,
                                    DimmunixSemaphore)
from repro.instrument.runtime import InstrumentationRuntime


@pytest.fixture
def runtime(config, history):
    return InstrumentationRuntime(Dimmunix(config=config, history=history))


class TestDimmunixSemaphoreBasics:
    def test_acquire_release_and_permits(self, runtime):
        sem = DimmunixSemaphore(2, runtime=runtime)
        assert sem.acquire()
        assert sem.acquire()
        assert sem.permits_held() == 2
        assert not sem.acquire(blocking=False)  # pool exhausted
        sem.release()
        assert sem.acquire(blocking=False)
        sem.release(2)
        assert sem.permits_held() == 0

    def test_context_manager(self, runtime):
        sem = DimmunixSemaphore(1, runtime=runtime)
        with sem:
            assert sem.permits_held() == 1
        assert sem.permits_held() == 0

    def test_engine_sees_multiple_holders(self, runtime):
        sem = DimmunixSemaphore(2, runtime=runtime)
        sem.acquire()
        other = []
        holding = threading.Event()
        done = threading.Event()

        def taker():
            other.append(sem.acquire(timeout=1.0))
            holding.set()
            done.wait(2.0)  # stay alive so per-thread state is inspectable
            sem.release()

        thread = threading.Thread(target=taker)
        thread.start()
        assert holding.wait(2.0)
        assert other == [True]
        assert len(runtime.engine.cache.holders_of(sem.lock_id)) == 2
        done.set()
        thread.join()
        sem.release()

    def test_timeout_and_cancel(self, runtime):
        sem = DimmunixSemaphore(1, runtime=runtime)
        sem.acquire()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(sem.acquire(timeout=0.05)))
        thread.start()
        thread.join()
        assert result == [False]
        assert runtime.engine.stats.cancels >= 1
        sem.release()

    def test_nonblocking_with_timeout_rejected(self, runtime):
        sem = DimmunixSemaphore(1, runtime=runtime)
        with pytest.raises(ValueError):
            sem.acquire(blocking=False, timeout=0.1)

    def test_zero_value_semaphore_signals(self, runtime):
        sem = DimmunixSemaphore(0, runtime=runtime)
        sem.release()
        assert sem.acquire(blocking=False)

    def test_bounded_overrelease_raises_before_engine_damage(self, runtime):
        sem = DimmunixBoundedSemaphore(1, runtime=runtime)
        sem.acquire()
        sem.release()
        with pytest.raises(ValueError):
            sem.release()
        # Engine state must still be clean: a fresh cycle works.
        assert sem.acquire()
        sem.release()


class TestDimmunixRWLockBasics:
    def test_readers_coexist(self, runtime):
        rwlock = DimmunixRWLock(runtime=runtime)
        assert rwlock.acquire_read()
        got = []

        def reader():
            got.append(rwlock.acquire_read(timeout=1.0))
            rwlock.release_read()

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join()
        assert got == [True]
        rwlock.release_read()

    def test_writer_excludes_readers(self, runtime):
        rwlock = DimmunixRWLock(runtime=runtime)
        with rwlock.write_lock():
            got = []
            thread = threading.Thread(
                target=lambda: got.append(rwlock.acquire_read(timeout=0.05)))
            thread.start()
            thread.join()
            assert got == [False]

    def test_writer_waits_for_readers(self, runtime):
        rwlock = DimmunixRWLock(runtime=runtime)
        rwlock.acquire_read()
        got = []
        thread = threading.Thread(
            target=lambda: got.append(rwlock.acquire_write(timeout=0.05)))
        thread.start()
        thread.join()
        assert got == [False]
        rwlock.release_read()

    def test_release_without_hold_raises(self, runtime):
        rwlock = DimmunixRWLock(runtime=runtime)
        from repro.core.errors import InstrumentationError
        with pytest.raises(InstrumentationError):
            rwlock.release_read()
        with pytest.raises(InstrumentationError):
            rwlock.release_write()

    def test_engine_records_shared_holds(self, runtime):
        rwlock = DimmunixRWLock(runtime=runtime)
        with rwlock.read_lock():
            assert runtime.engine.is_multiholder(rwlock.lock_id)

    @pytest.mark.parametrize("side", ["read", "write"])
    def test_timed_acquire_woken_at_the_deadline_rechecks_before_failing(
            self, runtime, monkeypatch, side):
        """The holder leaves exactly as the deadline passes: granted, not timed out."""
        from types import SimpleNamespace

        from repro.instrument import locks as locks_module

        clock = [100.0]
        monkeypatch.setattr(locks_module, "time",
                            SimpleNamespace(monotonic=lambda: clock[0]))
        rwlock = DimmunixRWLock(runtime=runtime)
        holder = threading.Thread(target=rwlock.acquire_write)
        holder.start()
        holder.join(5)
        writer = rwlock.writer
        assert writer is not None

        def wait(timeout):
            # What the holder's release_write does, minus its notify: the
            # waiter comes back because its time is up, not because it
            # was told anything.
            assert timeout == 1.0
            rwlock._ledger.release(writer)
            clock[0] += timeout

        rwlock._cond.wait = wait
        acquire = rwlock.acquire_read if side == "read" else rwlock.acquire_write
        assert acquire(timeout=1.0) is True
        assert runtime.engine.stats.snapshot()["cancels"] == 0



def _run_thread_sem_trial(history):
    """Two workers, a 2-permit pool, each worker needs both permits."""
    dimmunix = Dimmunix(config=DimmunixConfig(monitor_interval=0.02),
                        history=history)
    dimmunix.start()
    runtime = InstrumentationRuntime(dimmunix)
    sem = DimmunixSemaphore(2, runtime=runtime)
    barrier = threading.Barrier(2)
    timeouts = []

    def worker(index):
        barrier.wait()
        got_first = sem.acquire(timeout=2.0)
        time.sleep(0.05)
        got_second = sem.acquire(timeout=0.6)
        if not got_second:
            timeouts.append(index)
            if got_first:
                sem.release()
            return
        sem.release(2)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    time.sleep(0.1)  # give the monitor a full tick over the stalled state
    dimmunix.stop()
    return timeouts, dimmunix


def _run_thread_rwlock_trial(history):
    """Two readers that both upgrade to write while still reading."""
    dimmunix = Dimmunix(config=DimmunixConfig(monitor_interval=0.02),
                        history=history)
    dimmunix.start()
    runtime = InstrumentationRuntime(dimmunix)
    rwlock = DimmunixRWLock(runtime=runtime)
    barrier = threading.Barrier(2)
    timeouts = []

    def upgrader(index):
        barrier.wait()
        assert rwlock.acquire_read(timeout=2.0)
        time.sleep(0.05)
        if not rwlock.acquire_write(timeout=0.6):
            timeouts.append(index)
            rwlock.release_read()
            return
        rwlock.release_write()
        rwlock.release_read()

    threads = [threading.Thread(target=upgrader, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    time.sleep(0.1)
    dimmunix.stop()
    return timeouts, dimmunix


class TestThreadRunTwiceImmunity:
    def test_semaphore_exhaustion_learned_then_avoided(self):
        history = History(path=None, autosave=False)
        first, _ = _run_thread_sem_trial(history)
        assert first, "first run should hit the permit-exhaustion deadlock"
        assert len(history) >= 1
        second, dimmunix = _run_thread_sem_trial(history)
        assert second == [], "seeded history must avoid the deadlock"
        assert dimmunix.stats.snapshot().get("yield_decisions", 0) >= 1

    def test_rwlock_upgrade_learned_then_avoided(self):
        history = History(path=None, autosave=False)
        first, _ = _run_thread_rwlock_trial(history)
        assert first, "first run should hit the upgrade inversion"
        assert len(history) >= 1
        learned = history.signatures()[0]
        assert SHARED in learned.modes
        second, dimmunix = _run_thread_rwlock_trial(history)
        assert second == []
        assert dimmunix.stats.snapshot().get("yield_decisions", 0) >= 1


class TestPatchingCoversSemaphores:
    def test_install_patches_semaphore_factories(self, config):
        native = threading.Semaphore
        with repro.immunize(config=config):
            sem = threading.Semaphore(3)
            bounded = threading.BoundedSemaphore(value=2)
            assert isinstance(sem, DimmunixSemaphore)
            assert isinstance(bounded, DimmunixBoundedSemaphore)
            assert sem.capacity == 3 and bounded.capacity == 2
        assert threading.Semaphore is native

    def test_internal_callers_keep_native_semaphores(self, config, evaluate_at):
        native = threading.Semaphore
        with repro.immunize(config=config):
            assert threading.Semaphore is not native
            # concurrent.futures builds semaphores from library code paths;
            # simplest probe: a caller inside repro.* gets native types.
            made = evaluate_at("/site-packages/repro/core/pool.py", "threading.Semaphore(2)")
            assert isinstance(made, native)


def _run_aio_sem_trial(history):
    dimmunix = Dimmunix(config=DimmunixConfig(monitor_interval=0.02),
                        history=history)
    dimmunix.start()
    runtime = AsyncioRuntime(dimmunix)

    async def scenario():
        sem = AioSemaphore(2, runtime=runtime)
        timeouts = []

        async def worker(index):
            assert await sem.acquire(timeout=2.0)
            await asyncio.sleep(0.03)
            if not await sem.acquire(timeout=0.5):
                timeouts.append(index)
                sem.release()
                return
            sem.release()
            sem.release()

        await asyncio.gather(worker(0), worker(1))
        return timeouts

    timeouts = asyncio.run(scenario())
    time.sleep(0.08)
    dimmunix.stop()
    return timeouts, dimmunix


def _run_aio_rwlock_trial(history):
    dimmunix = Dimmunix(config=DimmunixConfig(monitor_interval=0.02),
                        history=history)
    dimmunix.start()
    runtime = AsyncioRuntime(dimmunix)

    async def scenario():
        rwlock = AioRWLock(runtime=runtime)
        timeouts = []

        async def upgrader(index):
            assert await rwlock.acquire_read(timeout=2.0)
            await asyncio.sleep(0.03)
            if not await rwlock.acquire_write(timeout=0.5):
                timeouts.append(index)
                rwlock.release_read()
                return
            rwlock.release_write()
            rwlock.release_read()

        await asyncio.gather(upgrader(0), upgrader(1))
        return timeouts

    timeouts = asyncio.run(scenario())
    time.sleep(0.08)
    dimmunix.stop()
    return timeouts, dimmunix


class TestAioRunTwiceImmunity:
    def test_counting_semaphore_learned_then_avoided(self):
        history = History(path=None, autosave=False)
        first, _ = _run_aio_sem_trial(history)
        assert first
        assert len(history) >= 1
        second, dimmunix = _run_aio_sem_trial(history)
        assert second == []
        assert dimmunix.stats.snapshot().get("yield_decisions", 0) >= 1

    def test_rwlock_upgrade_learned_then_avoided(self):
        history = History(path=None, autosave=False)
        first, _ = _run_aio_rwlock_trial(history)
        assert first
        assert len(history) >= 1
        assert SHARED in history.signatures()[0].modes
        second, dimmunix = _run_aio_rwlock_trial(history)
        assert second == []
        assert dimmunix.stats.snapshot().get("yield_decisions", 0) >= 1


class TestAioBasics:
    def test_counting_semaphore_engine_tracked(self, config, history):
        dimmunix = Dimmunix(config=config, history=history)
        runtime = AsyncioRuntime(dimmunix)

        async def scenario():
            sem = AioSemaphore(3, runtime=runtime)
            assert await sem.acquire()
            assert await sem.acquire()
            assert len(runtime.engine.cache.holders_of(sem.lock_id)) == 1
            assert runtime.engine.capacity_of(sem.lock_id) == 3
            sem.release()
            sem.release()

        asyncio.run(scenario())

    def test_rwlock_readers_coexist_writer_excludes(self, config, history):
        dimmunix = Dimmunix(config=config, history=history)
        runtime = AsyncioRuntime(dimmunix)

        async def scenario():
            rwlock = AioRWLock(runtime=runtime)

            async def reader(hold):
                async with rwlock.read_lock():
                    await hold.wait()

            release = asyncio.Event()
            tasks = [asyncio.ensure_future(reader(release)) for _ in range(2)]
            await asyncio.sleep(0.02)
            assert rwlock.reader_count() == 2
            assert not await rwlock.acquire_write(timeout=0.05)
            release.set()
            await asyncio.gather(*tasks)
            assert await rwlock.acquire_write(timeout=1.0)
            rwlock.release_write()

        asyncio.run(scenario())

    def test_rwlock_cancellation_rolls_back(self, config, history):
        dimmunix = Dimmunix(config=config, history=history)
        runtime = AsyncioRuntime(dimmunix)

        async def scenario():
            rwlock = AioRWLock(runtime=runtime)
            assert await rwlock.acquire_read()

            async def writer():
                # acquire_write is called *inside* this task so the
                # acquisition carries the writer task's identity (calling
                # it in the spawner would be a legal self-upgrade).
                await rwlock.acquire_write()

            waiter = asyncio.ensure_future(writer())
            await asyncio.sleep(0.02)
            waiter.cancel()
            try:
                await waiter
            except asyncio.CancelledError:
                pass
            assert dimmunix.stats.snapshot().get("cancels", 0) >= 1
            rwlock.release_read()

        asyncio.run(scenario())
