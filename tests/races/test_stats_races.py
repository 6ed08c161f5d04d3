"""EngineStats reset races: epochs must prevent resurrection.

The pre-fix ``reset`` cleared every shard dict in place under the stats
lock while ``bump`` wrote lock-free: a bump that read its old value
before the clear and stored after it resurrected the whole pre-reset
total for that counter.  The epoch scheme discards the old generation
wholesale instead; these tests pin the invariant from both ends.

The operation counters are not bumped: they are the engine's event
records, counted by the rings, read against a baseline the reset takes.
An emission racing a reset must be counted exactly once, in the old
epoch or the new one.  Their asyncio half leans on the parker's armed
future, which is reused without asking for the running loop; the last
tests wake such a task from another loop's thread and from the monitor.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.core.avoidance import AvoidanceEngine
from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_ACQUIRED, EV_ALLOW, EV_RELEASE
from repro.core.history import History
from repro.core.signature import Signature
from repro.core.stats import EngineStats
from repro.instrument.aio import AioLock, AsyncioRuntime

from .harness import GatedDict, GatedSeq, preemption_pressure, run_threads


def _install_gated_counts(stats: EngineStats) -> GatedDict:
    """From the calling thread, put a GatedDict behind its own shard.

    Works against both the epoch-based shard objects (``.counts``) and
    the pre-fix plain-dict shards, so the test stays meaningful when the
    fix is reverted for the demonstration run.
    """
    stats.bump("requests", 0)  # force shard creation
    shard = stats._local.shard
    if hasattr(shard, "counts"):
        gated = GatedDict(shard.counts)
        shard.counts = gated
    else:  # pre-fix layout: the shard IS the dict, registered in _shards
        gated = GatedDict(shard)
        stats._local.shard = gated
        stats._shards[stats._shards.index(shard)] = gated
    return gated


class TestDeterministicResurrection:
    def test_reset_never_resurrects_an_inflight_bump(self):
        """Choreography: park a bump inside its read-modify-write window,
        reset while it is parked, release it.  The parked bump belongs to
        the old generation; the post-reset total must not contain any of
        the 500 pre-reset increments (pre-fix code reports 501)."""
        stats = EngineStats()
        gates = {}
        gate_ready = threading.Event()
        resumed = threading.Event()

        def bumper():
            stats.bump("requests", 500)   # pre-reset total to resurrect
            gates["gate"] = _install_gated_counts(stats)
            gate_ready.set()
            stats.bump("requests")        # parks inside counts.get
            resumed.set()

        worker = threading.Thread(target=bumper, name="gated-bumper")
        worker.start()
        # Wait for the worker to be parked mid-bump, then reset.
        assert gate_ready.wait(10.0)
        gate = gates["gate"]
        assert gate.entered.wait(10.0)
        assert stats.requests == 500
        stats.reset()
        assert stats.requests == 0
        gate.release.set()
        assert resumed.wait(10.0)
        worker.join(10.0)
        # The in-flight bump wrote 501 into the *old* generation's dict;
        # a correct reset leaves it there, dead.  It must never surface.
        assert stats.requests <= 1, (
            f"pre-reset total resurrected: requests={stats.requests}")
        # And the next bump lands cleanly in the new generation.
        stats.bump("requests")
        assert 1 <= stats.requests <= 2

    def test_quiescent_reset_zeroes_everything(self):
        stats = EngineStats()
        for name in ("requests", "releases", "acquisitions"):
            stats.bump(name, 7)
        stats.reset()
        assert stats.snapshot() == {name: 0 for name in stats.snapshot()}
        stats.bump("requests")
        assert stats.requests == 1


class TestResetStorm:
    def test_reset_bound_under_concurrent_bumping(self):
        """Stress: W workers bump continuously while the main thread
        resets mid-flight.  Afterwards the aggregate may contain only
        increments issued *after* the reset, plus at most one in-flight
        bump per worker — resurrection of pre-reset totals (the pre-fix
        failure) blows this bound by thousands."""
        workers, bursts, per_burst = 4, 60, 25
        stats = EngineStats()
        progress = [0] * workers
        reset_done = threading.Event()

        def bump_loop(slot):
            for _ in range(bursts):
                for _ in range(per_burst):
                    stats.bump("requests")
                    progress[slot] += 1

        def resetter():
            # Let real contention build, then reset once mid-storm.
            while sum(progress) < (workers * bursts * per_burst) // 3:
                pass
            issued_before = sum(progress)
            stats.reset()
            reset_done.issued_before = issued_before  # type: ignore[attr-defined]
            reset_done.set()

        with preemption_pressure():
            run_threads([lambda slot=slot: bump_loop(slot)
                         for slot in range(workers)] + [resetter])

        assert reset_done.is_set()
        issued_before = reset_done.issued_before  # type: ignore[attr-defined]
        total_issued = sum(progress)
        after = stats.requests
        # progress[] is read racily by the resetter, so allow one burst of
        # slack per worker on top of the one in-flight bump each.
        bound = (total_issued - issued_before) + workers * (per_burst + 1)
        assert after <= bound, (
            f"resurrected pre-reset counts: {after} > {bound} "
            f"(issued_before={issued_before}, total={total_issued})")


def _engine() -> AvoidanceEngine:
    return AvoidanceEngine(History(path=None, autosave=False), DimmunixConfig.for_testing())


class TestResetAgainstEmitters:
    def test_an_emission_counted_before_the_reset_stays_in_the_old_epoch(self):
        """Park a grant after its ALLOW is counted, before its record is
        appended; reset; let it finish.  Counted once, before the reset."""
        engine = _engine()
        stats, bus = engine.stats, engine.events
        gate = bus._next_seq = GatedSeq(bus._next_seq, trap="parked")
        requester = threading.Thread(
            target=lambda: engine.request(1, 1, CallStack.from_labels(["f:1"])),
            name="parked-requester")
        requester.start()
        assert gate.allocated.wait(10.0)
        assert stats.requests == 1
        stats.reset()
        assert stats.requests == 0
        gate.release.set()
        requester.join(10.0)
        assert stats.requests == 0 and len(bus.drain_raw()) == 1
        engine.request(2, 2, CallStack.from_labels(["g:1"]))
        assert stats.requests == stats.go_decisions == 1

    def test_every_operation_is_counted_once_in_one_epoch(self):
        """Stress: W threads run miss triples; one reset lands mid-storm.
        What the reset took as its baseline plus what is counted after it
        is every operation made — nothing lost, nothing counted twice."""
        workers, triples = 4, 1500
        engine = _engine()
        stats = engine.stats
        made = [0] * workers
        reset_done = threading.Event()

        def emit(slot):
            thread_id, stack = slot + 1, CallStack.from_labels([f"worker{slot}:1"])
            while made[slot] < triples or not reset_done.is_set():
                engine.request(thread_id, thread_id, stack)
                engine.acquired(thread_id, thread_id, stack)
                engine.release(thread_id, thread_id)
                made[slot] += 1

        def resetter():
            while sum(made) < workers * triples // 3:
                pass
            stats.reset()
            reset_done.set()

        with preemption_pressure():
            run_threads([lambda slot=slot: emit(slot) for slot in range(workers)]
                        + [resetter])
        (_, baseline), = stats._buses
        after = stats.snapshot()
        for name, code in (("requests", EV_ALLOW), ("acquisitions", EV_ACQUIRED),
                           ("releases", EV_RELEASE)):
            assert baseline[code] > 0 and after[name] > 0, name
            assert baseline[code] + after[name] == sum(made), name


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
    while not runtime.engine.yielding_threads():
        assert time.monotonic() < deadline, "the task never yielded"
        time.sleep(0.001)
    release_now.set()


async def _armed_then_yield(runtime: AsyncioRuntime, lock: AioLock) -> None:
    """An uncontended round arms the task's wake future; the yield then parks on it."""
    warm = AioLock(runtime=runtime)
    assert await warm.acquire()
    warm.release()
    assert await _yield_at(lock, timeout=10.0)
    lock.release()


class TestTheParkersLoopFreeFastPath:
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
                while not runtime.engine.yielding_threads():
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
