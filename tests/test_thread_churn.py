"""Ended threads and finished tasks leave nothing behind.

A server that runs each request on a short-lived thread or task must not
grow per-unit state without bound: not in the monitor's RAG (whose
starvation search walks every thread state on every pass, in time taken
from the application), not in the stats shards, not in the id registries.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import acquired_event, release_event, yield_event
from repro.instrument.aio import AioLock, AioSemaphore, AsyncioRuntime
from repro.instrument.locks import DimmunixLock, DimmunixSemaphore
from repro.instrument.runtime import InstrumentationRuntime

UNITS, AT_ONCE = 2000, 8


def idle_pass_seconds(dimmunix: Dimmunix, passes: int = 200) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        dimmunix.process_now()
        best = min(best, time.perf_counter() - started)
    return best


def assert_returned_and_gone(dimmunix: Dimmunix, permits) -> None:
    """The permit is free, and its ended taker left the cache and the RAG."""
    assert permits.permits_held() == 0
    dimmunix.process_now()
    assert dimmunix.monitor.rag.thread_ids() == set()
    assert len(dimmunix.engine.cache.slots) == 0


def assert_churn_left_nothing(dimmunix: Dimmunix, fresh_pass: float) -> None:
    dimmunix.process_now()
    assert len(dimmunix.monitor.rag.thread_ids()) <= AT_ONCE
    # Both passes take a few us, so scheduling noise alone can double
    # one; the slack still catches the 0.9 ms pass 1,000 leftovers cost.
    assert idle_pass_seconds(dimmunix) <= 2 * fresh_pass + 20e-6
    totals = dimmunix.stats.snapshot()
    assert totals["requests"] == totals["acquisitions"] == totals["releases"] == UNITS
    assert len(dimmunix.stats._shards) <= 2 * AT_ONCE + 8


class TestChurn:
    def test_short_lived_threads(self):
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        runtime = InstrumentationRuntime(dimmunix)
        lock = DimmunixLock(runtime=runtime)
        fresh_pass = idle_pass_seconds(dimmunix)

        def serve():
            with lock:
                pass

        for _ in range(UNITS // AT_ONCE):
            threads = [threading.Thread(target=serve) for _ in range(AT_ONCE)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            dimmunix.process_now()  # as the monitor thread would, now and then
        assert_churn_left_nothing(dimmunix, fresh_pass)
        assert runtime.threads.known_threads() == {}

    def test_finished_tasks(self):
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        runtime = AsyncioRuntime(dimmunix)
        fresh_pass = idle_pass_seconds(dimmunix)

        async def main():
            lock = AioLock(runtime=runtime)

            async def serve():
                async with lock:
                    await asyncio.sleep(0)

            for _ in range(UNITS // AT_ONCE):
                await asyncio.gather(*(serve() for _ in range(AT_ONCE)))
                await asyncio.sleep(0)  # the done callbacks run
                dimmunix.process_now()

        asyncio.run(main())
        assert_churn_left_nothing(dimmunix, fresh_pass)
        assert runtime.tasks.known_tasks() == {}

    def test_a_thread_that_ended_holding_keeps_its_edges(self):
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        runtime = InstrumentationRuntime(dimmunix)
        lock = DimmunixLock(runtime=runtime)
        thread = threading.Thread(target=lock.acquire)
        thread.start()
        thread.join()
        dimmunix.process_now()
        rag = dimmunix.monitor.rag
        assert rag.holders_of(lock.lock_id) != []
        assert len(rag.thread_ids()) == 1

    def test_a_yield_on_a_thread_that_ended_is_not_starvation(self):
        """The cause released and ended; its yielder has not re-requested yet."""
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        held = CallStack.from_labels(["held:1", "main:0"])
        bus = dimmunix.engine.events
        bus.put(acquired_event(1, 10, held))
        bus.put(yield_event(2, 11, CallStack.from_labels(["wants:2", "main:0"]),
                            causes=((1, 10, held),)))
        bus.put(release_event(1, 10))
        dimmunix.monitor.forget_thread(1)
        assert dimmunix.process_now() == []
        assert dimmunix.monitor.rag.thread_ids() == {2}
        assert len(dimmunix.history) == 0

    def test_a_permit_whose_taker_ended_is_returned_by_another_thread(self):
        """The taker is forgotten when it ends, its hold is not: the return
        made for it is recorded against that hold (it used to raise
        ``AvoidanceError``), and then the taker is gone everywhere."""
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        runtime = InstrumentationRuntime(dimmunix)
        permits = DimmunixSemaphore(2, runtime=runtime)
        taker = threading.Thread(target=permits.acquire)
        taker.start()
        taker.join()
        deadline = time.monotonic() + 5.0
        while runtime.threads.known_threads() and time.monotonic() < deadline:
            time.sleep(0.01)  # the taker's thread-local death token fires
        assert runtime.threads.known_threads() == {}
        permits.release()
        assert_returned_and_gone(dimmunix, permits)

    def test_a_permit_whose_task_ended_is_returned_by_another_task(self):
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        runtime = AsyncioRuntime(dimmunix)

        async def main():
            permits = AioSemaphore(2, runtime=runtime)

            async def take():
                await permits.acquire()  # called in the task: the task holds it

            await asyncio.create_task(take())
            await asyncio.sleep(0)  # the done callback forgets the task
            assert runtime.tasks.known_tasks() == {}
            permits.release()
            return permits

        assert_returned_and_gone(dimmunix, asyncio.run(main()))
