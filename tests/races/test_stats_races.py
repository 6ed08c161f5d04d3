"""The engine's counters under concurrency.

The counters are count columns of the event bus's per-thread rings, and
a ring whose thread has ended retires into the bus totals: a read racing
that retirement must see every ring once, live or retired, so a counter
never goes backwards and no bump is lost.  Then the asyncio parker, which
the engine arms while it decides a task's yield: these tests wake such a
task from another loop's thread and from the monitor, and read the outcome
off the engine's counters.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_ALLOW, EventBus
from repro.core.history import History
from repro.core.signature import Signature
from repro.core.stats import EngineStats
from repro.instrument.aio import AioLock, AsyncioRuntime

from .harness import preemption_pressure, run_threads


async def _hold_at(lock, **options):
    return await lock.acquire(**options)


async def _yield_at(lock, **options):
    return await lock.acquire(**options)


def _site(function) -> CallStack:
    filename = CallStack.capture(skip=0).top().filename  # this file, as a capture names it
    return CallStack([Frame(function.__name__, filename, function.__code__.co_firstlineno + 1)])


def _runtime(start: bool = False) -> AsyncioRuntime:
    history = History(path=None, autosave=False)
    history.add(Signature([_site(_hold_at), _site(_yield_at)], matching_depth=1))
    dimmunix = Dimmunix(DimmunixConfig.for_testing(), history=history)
    if start:
        dimmunix.start()
    return AsyncioRuntime(dimmunix)


def _record_hops(loop, hops) -> None:
    """Note the thread of every ``call_soon_threadsafe`` made to ``loop``."""
    call_soon_threadsafe = loop.call_soon_threadsafe
    loop.call_soon_threadsafe = lambda *args: (
        hops.append(threading.current_thread().name), call_soon_threadsafe(*args))[1]


def _release_once_parked(runtime: AsyncioRuntime, release_now: threading.Event) -> None:
    deadline = time.monotonic() + 10.0
    while not runtime.engine.cache.yielding_threads():
        assert time.monotonic() < deadline, "the task never yielded"
        time.sleep(0.001)
    release_now.set()


async def _armed_then_yield(runtime: AsyncioRuntime, lock: AioLock) -> None:
    """The engine arms the task's wake future as it decides the yield; the task parks on it."""
    assert await _yield_at(lock, timeout=10.0)
    lock.release()


def _churn(stats: EngineStats, threads: int, per_thread: int) -> None:
    """Run ``threads`` short-lived threads in turn, each bumping and emitting ``per_thread`` times."""
    def work():
        for _ in range(per_thread):
            stats.bump("capture_deferred")
            stats.bus.emit(EV_ALLOW, 1, 10)

    for _ in range(threads):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()


class TestColumnsAcrossRetirement:
    def test_reads_never_go_backwards_while_rings_retire(self):
        stats = EngineStats(EventBus(ring_capacity=4))
        churned, done, reads = threading.Event(), threading.Event(), []

        def churner():
            _churn(stats, threads=60, per_thread=50)
            churned.set()

        def drainer():  # the consumer: every drain retires the ended threads' rings
            while not churned.is_set():
                stats.bus.drain_raw()
            stats.bus.drain_raw()
            done.set()

        def reader():
            while not done.is_set():
                reads.append((stats.capture_deferred, stats.requests))

        with preemption_pressure():
            run_threads([churner, drainer, reader])
        for column in (0, 1):
            values = [read[column] for read in reads]
            assert values == sorted(values)
        assert stats.bus.ring_count == 0
        assert (stats.capture_deferred, stats.requests) == (3000, 3000)

    def test_every_bump_is_counted_once(self):
        stats = EngineStats(EventBus(ring_capacity=4))
        stop = threading.Event()

        def churner():
            _churn(stats, threads=20, per_thread=100)

        def bumper():
            for _ in range(2000):
                stats.bump("capture_deferred")
                stats.bus.emit(EV_ALLOW, 2, 20)

        def drainer():
            while not stop.is_set():
                stats.bus.drain_raw()

        consumer = threading.Thread(target=drainer)
        consumer.start()
        try:
            with preemption_pressure():
                run_threads([churner, churner, bumper, bumper])
        finally:
            stop.set()
            consumer.join(10.0)
        stats.bus.drain_raw()
        snapshot = stats.snapshot()
        assert snapshot["capture_deferred"] == snapshot["requests"] == 8000
        assert snapshot["go_decisions"] == 8000 and snapshot["yield_decisions"] == 0


class TestAYieldingTaskWokenFromAnotherThread:
    def test_a_task_is_woken_by_a_release_on_another_loop(self):
        runtime = _runtime()
        held, wanted = AioLock(runtime=runtime), AioLock(runtime=runtime)
        holding, release_now = threading.Event(), threading.Event()
        loop_a, hops = asyncio.new_event_loop(), []
        _record_hops(loop_a, hops)

        async def holder():
            assert await _hold_at(held)
            holding.set()
            while not release_now.is_set():
                await asyncio.sleep(0.001)
            held.release()  # the cause dissolves, on loop B

        def on_loop_a():
            try:
                loop_a.run_until_complete(_armed_then_yield(runtime, wanted))
            finally:
                loop_a.close()

        loop_b = threading.Thread(target=lambda: asyncio.run(holder()), name="loop-b")
        loop_b.start()
        assert holding.wait(10.0)
        run_threads([on_loop_a, lambda: _release_once_parked(runtime, release_now)])
        loop_b.join(10.0)
        stats = runtime.dimmunix.stats
        assert stats.yield_decisions == 1 and stats.aborted_yields == 0
        assert hops == ["loop-b"]

    def test_a_starvation_break_from_the_monitor_wakes_the_task(self):
        runtime = _runtime(start=True)
        hops = []

        async def main():
            _record_hops(asyncio.get_running_loop(), hops)
            held, wanted, mine = (AioLock(runtime=runtime) for _ in range(3))

            async def cause():
                assert await _hold_at(held)
                while not runtime.engine.cache.yielding_threads():
                    await asyncio.sleep(0.001)
                # Blocks on the yielder's lock: the yield starves both.
                assert await mine.acquire(timeout=10.0)
                mine.release()
                held.release()

            async def victim():
                assert await mine.acquire()
                await _armed_then_yield(runtime, wanted)
                mine.release()

            await asyncio.gather(cause(), victim())

        try:
            asyncio.run(main())
        finally:
            runtime.dimmunix.stop()
        stats = runtime.dimmunix.stats
        assert stats.starvations_broken >= 1 and stats.aborted_yields == 0
        assert "dimmunix-monitor" in hops
