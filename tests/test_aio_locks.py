"""Tests of the asyncio runtime: drop-in primitives, parking, edge cases.

The scenario helpers reproduce the section 4 two-lock inversion with
asyncio tasks (the event-loop analogue of ``examples/quickstart.py``):
run one — deadlock, detect, learn; run two — the task that would
re-instantiate the pattern is parked and everything completes.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro
from repro.core.avoidance import Decision
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.errors import InstrumentationError
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument import patching
from repro.instrument.aio import (AioCondition, AioLock, AioSemaphore,
                                  AsyncioRuntime)


def _make_runtime(history=None, start=True, **overrides) -> AsyncioRuntime:
    config = DimmunixConfig.for_testing(**overrides)
    dimmunix = Dimmunix(config=config, history=history)
    if start:
        dimmunix.start()
    return AsyncioRuntime(dimmunix)


async def _update(first: AioLock, second: AioLock,
                  my_ready: asyncio.Event, other_ready: asyncio.Event,
                  outcome: dict) -> None:
    """Half of the two-lock inversion, with bounded recovery."""
    if not await first.acquire(timeout=1.5):
        outcome["deadlocked"] = True
        return
    try:
        my_ready.set()
        try:
            await asyncio.wait_for(other_ready.wait(), 0.2)
        except asyncio.TimeoutError:
            pass
        if not await second.acquire(timeout=1.5):
            outcome["deadlocked"] = True
            return
        try:
            outcome["completed"] += 1
        finally:
            second.release()
    finally:
        first.release()


async def _inversion(runtime: AsyncioRuntime) -> dict:
    lock_a = AioLock(runtime=runtime, name="A")
    lock_b = AioLock(runtime=runtime, name="B")
    outcome = {"deadlocked": False, "completed": 0}
    ready = [asyncio.Event(), asyncio.Event()]
    await asyncio.gather(
        _update(lock_a, lock_b, ready[0], ready[1], outcome),
        update2(lock_b, lock_a, ready[1], ready[0], outcome),
    )
    return outcome


# A second function so the two tasks have distinct call sites, as in the
# paper's s1/s2 statements.
async def update2(first, second, my_ready, other_ready, outcome):
    await _update(first, second, my_ready, other_ready, outcome)


class TestAioLockBasics:
    def test_acquire_release_and_locked(self):
        runtime = _make_runtime(start=False)

        async def main():
            lock = AioLock(runtime=runtime, name="basic")
            assert not lock.locked()
            assert await lock.acquire()
            assert lock.locked()
            assert lock.owner == runtime.current_task_id()
            lock.release()
            assert not lock.locked()
            assert lock.owner is None

        asyncio.run(main())

    def test_nested_async_with(self):
        """Nested ``async with`` over distinct locks acquires and releases
        in LIFO order without engine residue."""
        runtime = _make_runtime(start=False)

        async def main():
            outer = AioLock(runtime=runtime, name="outer")
            inner = AioLock(runtime=runtime, name="inner")
            async with outer:
                assert outer.locked()
                async with inner:
                    assert inner.locked() and outer.locked()
                assert not inner.locked() and outer.locked()
            assert not outer.locked()
            # Nesting again in the opposite task order still works: the
            # engine rolled everything back.
            async with inner:
                async with outer:
                    assert inner.locked() and outer.locked()

        asyncio.run(main())

    def test_release_from_another_task_is_allowed(self):
        """``asyncio.Lock`` parity: any task may release a held lock (the
        engine release is recorded under the acquiring identity), but
        releasing an unheld lock raises."""
        runtime = _make_runtime(start=False)

        async def main():
            lock = AioLock(runtime=runtime)
            await lock.acquire()

            async def other_task():
                lock.release()

            await asyncio.gather(other_task())
            assert not lock.locked()
            with pytest.raises(InstrumentationError):
                lock.release()
            # The engine rolled the hold back: reacquire works.
            assert await lock.acquire(timeout=1.0)
            lock.release()

        asyncio.run(main())

    def test_wait_for_wrapped_acquire_keeps_task_identity(self):
        """``await asyncio.wait_for(lock.acquire(), t)`` — which runs the
        coroutine in a wrapper task on Python ≤ 3.11 — must record engine
        state under the logical caller, end to end: learn, then immune."""
        history = History(path=None, autosave=False)

        async def update(first, second, my_ready, other_ready, outcome):
            try:
                await asyncio.wait_for(first.acquire(), 1.5)
            except asyncio.TimeoutError:
                outcome["deadlocked"] = True
                return
            try:
                my_ready.set()
                try:
                    await asyncio.wait_for(other_ready.wait(), 0.2)
                except asyncio.TimeoutError:
                    pass
                try:
                    await asyncio.wait_for(second.acquire(), 1.5)
                except asyncio.TimeoutError:
                    outcome["deadlocked"] = True
                    return
                try:
                    outcome["completed"] += 1
                finally:
                    second.release()
            finally:
                first.release()

        async def scenario(runtime):
            lock_a = AioLock(runtime=runtime, name="A")
            lock_b = AioLock(runtime=runtime, name="B")
            outcome = {"deadlocked": False, "completed": 0}
            ready = [asyncio.Event(), asyncio.Event()]
            await asyncio.gather(
                update(lock_a, lock_b, ready[0], ready[1], outcome),
                update(lock_b, lock_a, ready[1], ready[0], outcome),
            )
            return outcome

        runtime = _make_runtime(history=history)
        first = asyncio.run(scenario(runtime))
        runtime.dimmunix.stop()
        assert first["deadlocked"]
        assert len(history) == 1  # one two-task cycle, one signature

        runtime = _make_runtime(history=history)
        second = asyncio.run(scenario(runtime))
        runtime.dimmunix.stop()
        assert not second["deadlocked"]
        assert second["completed"] == 2

    def test_wait_for_wrapped_acquire_is_matched_at_full_depth(self):
        """A signature over the caller's path fires through ``wait_for`` as it does without.

        On Python ≤ 3.11 the request runs in ``wait_for``'s wrapper task, where the
        capturing frame is not on the stack: a capture deferred until then degraded to
        one frame, hit no depth-4 bucket, and the known deadlock was answered GO.  A
        site a signature names is walked at capture, in the caller.
        """
        foreign = CallStack.from_labels(["foreign:1", "f:2", "f:3", "f:4", "f:5"])

        async def inner(lock, through_wait_for):
            acquiring = lock.acquire(timeout=0.3)  # the call site, one for both spellings
            taken = await (asyncio.wait_for(acquiring, 5.0) if through_wait_for else acquiring)
            if taken:
                lock.release()
            return taken

        async def outer_a(lock, through_wait_for):
            return await inner(lock, through_wait_for)

        async def outer_b(lock, through_wait_for):
            return await inner(lock, through_wait_for)

        def run(history, outer, through_wait_for, **overrides):
            runtime = _make_runtime(history=history, start=False, **overrides)
            engine = runtime.dimmunix.engine
            request, requests = engine.request, []

            def recording_request(thread_id, lock_id, stack, *rest):
                outcome = request(thread_id, lock_id, stack, *rest)
                requests.append((stack.frames, outcome.decision))
                return outcome

            engine.request = recording_request
            # Another unit holds a lock it took at the signature's other stack.
            assert request(999, 12345, foreign).is_go
            engine.acquired(999, 12345, foreign)
            taken = asyncio.run(outer(AioLock(runtime=runtime), through_wait_for))
            return taken, requests, runtime.dimmunix.stats.yield_decisions

        history = History(path=None, autosave=False)
        taken, ((frames, _),), _ = run(history, outer_a, False, lazy_capture=False)
        assert taken and len(frames) > 4
        history.add(Signature([CallStack(frames), foreign]))
        seen = []
        for through_wait_for in (False, True):
            taken, requests, yields = run(history, outer_a, through_wait_for)
            assert not taken and yields >= 1
            assert requests[0][1] is Decision.YIELD and requests[0][0][:4] == frames[:4]
            seen.append(requests[0][0])
            # Same call site, another caller: no match at depth 4.
            taken, requests, yields = run(history, outer_b, through_wait_for)
            assert taken and yields == 0
            assert [decision for _, decision in requests] == [Decision.GO]
            assert requests[0][0][0] == frames[0] and requests[0][0][:4] != frames[:4]
        assert seen[0] == seen[1] and len(seen[0]) == len(frames)

    def test_contended_handover_is_fifo(self):
        runtime = _make_runtime(start=False)
        order = []

        async def main():
            lock = AioLock(runtime=runtime)

            async def worker(tag):
                async with lock:
                    order.append(tag)
                    await asyncio.sleep(0)

            await asyncio.gather(*(worker(i) for i in range(5)))

        asyncio.run(main())
        assert sorted(order) == list(range(5))

    def test_acquire_timeout_expires(self):
        runtime = _make_runtime(start=False)

        async def main():
            lock = AioLock(runtime=runtime)
            await lock.acquire()

            async def contender():
                assert not await lock.acquire(timeout=0.05)

            await asyncio.gather(contender())
            lock.release()
            assert await lock.acquire(timeout=0.05)
            lock.release()

        asyncio.run(main())

    def test_usage_outside_task_raises(self):
        runtime = _make_runtime(start=False)
        with pytest.raises(InstrumentationError):
            runtime.current_task_id()


class TestAioSemaphoreAndCondition:
    def test_semaphore_counts_and_timeout(self):
        runtime = _make_runtime(start=False)

        async def main():
            semaphore = AioSemaphore(2, runtime=runtime)
            assert await semaphore.acquire()
            assert not semaphore.locked()
            assert await semaphore.acquire()
            assert semaphore.locked()
            assert not await semaphore.acquire(timeout=0.05)
            semaphore.release()
            assert await semaphore.acquire(timeout=0.5)
            semaphore.release()
            semaphore.release()

        asyncio.run(main())

    def test_semaphore_async_with_under_contention(self):
        runtime = _make_runtime(start=False)
        peak = {"now": 0, "max": 0}

        async def main():
            semaphore = AioSemaphore(2, runtime=runtime)

            async def worker():
                async with semaphore:
                    peak["now"] += 1
                    peak["max"] = max(peak["max"], peak["now"])
                    await asyncio.sleep(0)
                    peak["now"] -= 1

            await asyncio.gather(*(worker() for _ in range(6)))

        asyncio.run(main())
        assert peak["max"] <= 2

    def test_condition_wait_notify(self):
        runtime = _make_runtime(start=False)
        results = []

        async def main():
            condition = AioCondition(runtime=runtime)

            async def waiter():
                async with condition:
                    await condition.wait_for(lambda: bool(results))
                    results.append("woke")

            async def notifier():
                await asyncio.sleep(0.01)
                async with condition:
                    results.append("go")
                    condition.notify_all()

            await asyncio.gather(waiter(), notifier())

        asyncio.run(main())
        assert results == ["go", "woke"]

    def test_condition_wait_requires_lock(self):
        runtime = _make_runtime(start=False)

        async def main():
            condition = AioCondition(runtime=runtime)
            with pytest.raises(RuntimeError):
                await condition.wait()

        asyncio.run(main())

    def test_condition_rejects_native_lock(self):
        runtime = _make_runtime(start=False)
        with pytest.raises(InstrumentationError):
            AioCondition(lock=asyncio.Lock(), runtime=runtime)

    def test_semaphore_release_by_non_holder_keeps_engine_consistent(self):
        """A release from another task transfers the recorded hold (like
        AioLock.release): later acquires by other tasks must not trip the
        engine's single-holder bookkeeping, and unpaired extra releases
        only return permits."""
        runtime = _make_runtime(start=False)

        async def main():
            semaphore = AioSemaphore(1, runtime=runtime)
            await semaphore.acquire()          # task A holds (engine hold A)

            async def non_holder_release():
                semaphore.release()            # transfers A's hold

            await asyncio.gather(non_holder_release())
            assert not semaphore.locked()

            async def other_acquirer():
                assert await semaphore.acquire(timeout=1.0)
                semaphore.release()

            await asyncio.gather(other_acquirer())
            semaphore.release()                # A's unpaired release: permit only

            async def prober():
                assert await semaphore.acquire(timeout=1.0)
                semaphore.release()

            await asyncio.gather(prober())

        asyncio.run(main())


class TestAsyncioImmunity:
    def test_run_twice_immunity(self):
        """Run 1 deadlocks the loop and learns; run 2 is immune."""
        history = History(path=None, autosave=False)

        runtime = _make_runtime(history=history)
        first = asyncio.run(_inversion(runtime))
        runtime.dimmunix.stop()
        assert first["deadlocked"]
        assert len(history) >= 1

        runtime = _make_runtime(history=history)
        second = asyncio.run(_inversion(runtime))
        report = runtime.dimmunix.report()
        runtime.dimmunix.stop()
        assert not second["deadlocked"]
        assert second["completed"] == 2
        assert report["stats"]["yield_decisions"] >= 1

    def test_yield_bound_expiry_aborts_the_avoidance(self):
        """With a short yield bound (section 5.7) a parked task gives up
        avoiding instead of starving; the abort is counted."""
        history = History(path=None, autosave=False)
        runtime = _make_runtime(history=history)
        assert asyncio.run(_inversion(runtime))["deadlocked"]
        runtime.dimmunix.stop()

        runtime = _make_runtime(history=history, yield_timeout=0.05)
        asyncio.run(_inversion(runtime))
        stats = runtime.dimmunix.stats
        runtime.dimmunix.stop()
        assert stats.yield_decisions >= 1
        assert stats.aborted_yields >= 1

    def test_two_event_loops_sequential_share_immunity(self):
        """A signature learned on one event loop protects the next loop —
        the runtime survives loop teardown (fresh loop, fresh tasks)."""
        history = History(path=None, autosave=False)
        runtime = _make_runtime(history=history)
        try:
            first = asyncio.run(_inversion(runtime))   # loop 1: learn
            second = asyncio.run(_inversion(runtime))  # loop 2: immune
        finally:
            runtime.dimmunix.stop()
        assert first["deadlocked"]
        assert not second["deadlocked"]
        assert second["completed"] == 2

    def test_two_event_loops_concurrently_in_one_process(self):
        """Two loops in two threads share one runtime without cross-talk."""
        runtime = _make_runtime()
        outcomes = {}
        errors = []

        def loop_thread(tag: str) -> None:
            async def independent():
                lock_x = AioLock(runtime=runtime, name=f"{tag}-x")
                lock_y = AioLock(runtime=runtime, name=f"{tag}-y")
                done = 0
                for _ in range(25):
                    async with lock_x:
                        async with lock_y:
                            done += 1
                return done

            try:
                outcomes[tag] = asyncio.run(independent())
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((tag, exc))

        threads = [threading.Thread(target=loop_thread, args=(f"loop{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        runtime.dimmunix.stop()
        assert not errors
        assert outcomes == {"loop0": 25, "loop1": 25}


class TestCancellation:
    def test_cancel_while_parked_rolls_back_and_frees_locks(self):
        """Cancelling a task parked by a YIELD decision must roll the
        pending request back and leave the locks acquirable."""
        history = History(path=None, autosave=False)
        runtime = _make_runtime(history=history)
        first = asyncio.run(_inversion(runtime))  # learn the signature
        runtime.dimmunix.stop()
        assert first["deadlocked"] and len(history) >= 1

        runtime = _make_runtime(history=history)
        dimmunix = runtime.dimmunix
        cancelled = {"count": 0}

        async def main():
            lock_a = AioLock(runtime=runtime, name="A")
            lock_b = AioLock(runtime=runtime, name="B")
            outcome = {"deadlocked": False, "completed": 0}
            ready = [asyncio.Event(), asyncio.Event()]
            tasks = [
                asyncio.ensure_future(
                    _update(lock_a, lock_b, ready[0], ready[1], outcome)),
                asyncio.ensure_future(
                    update2(lock_b, lock_a, ready[1], ready[0], outcome)),
            ]
            # Wait for the avoidance to park one of the tasks...
            for _ in range(200):
                if dimmunix.stats.yield_decisions >= 1:
                    break
                await asyncio.sleep(0.005)
            else:  # pragma: no cover - diagnostic
                raise AssertionError("no avoidance yield was observed")
            # ...then cancel both (the parked one is cancelled mid-park).
            for task in tasks:
                task.cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            cancelled["count"] = sum(
                1 for r in results if isinstance(r, asyncio.CancelledError))

            # The engine must have rolled everything back: a fresh task
            # can take both locks immediately.
            async def prober():
                assert await lock_a.acquire(timeout=1.0)
                assert await lock_b.acquire(timeout=1.0)
                lock_b.release()
                lock_a.release()

            await asyncio.wait_for(prober(), 2.0)

        asyncio.run(main())
        runtime.dimmunix.stop()
        assert cancelled["count"] >= 1

    def test_parker_cancellation_direct(self):
        """Cancelling a task awaiting ``park_async`` propagates cleanly."""
        runtime = _make_runtime(start=False)
        parker = runtime.parker

        async def main():
            task_id_box = {}

            async def sleeper():
                task_id = runtime.current_task_id()
                task_id_box["id"] = task_id
                parker.prepare(task_id)
                await parker.park_async(task_id, None)

            task = asyncio.ensure_future(sleeper())
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # A later wake for the dead task must be a harmless no-op.
            parker._wake(task_id_box["id"])
            await asyncio.sleep(0)

        asyncio.run(main())

    def test_parked_task_woken_by_release_from_other_task(self):
        """The wake path through the waker registry un-parks a live task."""
        runtime = _make_runtime(start=False)
        parker = runtime.parker

        async def main():
            woken = {}

            async def sleeper():
                task_id = runtime.current_task_id()
                parker.prepare(task_id)
                woken["result"] = await parker.park_async(task_id, 1.0)
                return task_id

            task = asyncio.ensure_future(sleeper())
            await asyncio.sleep(0.01)
            # Wake through the registry, as RuntimeCore.release would.
            runtime.dimmunix.wake([1])
            await task
            assert woken["result"] is True

        asyncio.run(main())


class TestMonkeyPatching:
    def test_install_uninstall_roundtrip(self):
        native = asyncio.Lock
        engine = Dimmunix(config=DimmunixConfig.for_testing())
        handle = repro.immunize(runtime="asyncio", dimmunix=engine)
        try:
            assert patching._installed == {"asyncio"}
            assert isinstance(asyncio.Lock(), AioLock)
            assert isinstance(asyncio.Semaphore(3), AioSemaphore)
            assert isinstance(asyncio.Condition(), AioCondition)
            # A condition over a lock made before the install stays native.
            assert not isinstance(asyncio.Condition(native()), AioCondition)
            assert not isinstance(asyncio.Condition(lock=native()), AioCondition)

            async def main():
                lock = asyncio.Lock()
                async with lock:
                    assert lock.locked()

            asyncio.run(main())
            with pytest.raises(InstrumentationError):
                repro.immunize(runtime="asyncio")
        finally:
            handle.stop()
        assert not patching._installed
        assert asyncio.Lock is asyncio.locks.Lock is native
        assert handle.aio.dimmunix is engine

    def test_native_callers_are_path_components_not_substrings(
            self, evaluate_at):
        native_lock, native_condition = asyncio.Lock, asyncio.Condition
        with repro.immunize(runtime="asyncio", config=DimmunixConfig.for_testing()):
            for path in ("/srv/myasyncio/app.py", "/srv/myrepro/core/app.py"):
                assert isinstance(evaluate_at(path, "asyncio.Lock()"), AioLock)
                assert isinstance(evaluate_at(path, "asyncio.Semaphore(2)"),
                                  AioSemaphore)
            for path in ("/usr/lib/python3.11/asyncio/streams.py",
                         "asyncio/locks.py",
                         "C:\\Python311\\Lib\\asyncio\\queues.py"):
                assert isinstance(evaluate_at(path, "asyncio.Lock()"), native_lock)
            # The asyncio machinery's own primitives: a native condition
            # makes its lock inside asyncio/locks.py, and a queue works.
            condition = native_condition()
            assert isinstance(condition._lock, native_lock)

            async def main():
                queue = asyncio.Queue()
                await queue.put(1)
                assert await queue.get() == 1
                queue.task_done()
                await queue.join()

            asyncio.run(main())

    def test_patched_asyncio_context_manager(self):
        with repro.immunize(runtime="asyncio",
                            config=DimmunixConfig.for_testing()) as handle:
            assert patching._installed == {"asyncio"}
            assert handle.dimmunix.running
        assert not patching._installed
        assert not handle.dimmunix.running

    def test_immunize_asyncio_one_call(self, tmp_path):
        history_path = str(tmp_path / "aio.history")
        handle = repro.immunize(runtime="asyncio", history_path=history_path)
        try:
            assert patching._installed == {"asyncio"}
            assert handle.dimmunix.running
            assert handle.config.history_path == history_path

            async def main():
                lock = asyncio.Lock()
                async with lock:
                    pass

            asyncio.run(main())
        finally:
            handle.stop()
        assert not patching._installed


class TestTaskRegistry:
    def test_task_ids_are_stable_within_and_distinct_across_tasks(self):
        runtime = _make_runtime(start=False)
        seen = {}

        async def main():
            async def worker(tag):
                first = runtime.current_task_id()
                await asyncio.sleep(0)
                assert runtime.current_task_id() == first
                seen[tag] = first

            await asyncio.gather(worker("a"), worker("b"))

        asyncio.run(main())
        assert seen["a"] != seen["b"]

    def test_finished_tasks_are_forgotten(self):
        runtime = _make_runtime(start=False)

        async def main():
            async def worker():
                return runtime.current_task_id()

            task_id = await asyncio.ensure_future(worker())
            await asyncio.sleep(0)  # let the done callback run
            return task_id

        task_id = asyncio.run(main())
        assert task_id not in runtime.tasks._ids.values()
        assert task_id not in runtime.tasks._names
        assert task_id not in runtime.parker._futures
