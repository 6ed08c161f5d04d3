"""The miss round settles an acquisition exactly as the protocol generator would.

The thread and asyncio drivers offer every acquisition to
``RuntimeCore.settle_miss`` first; where the engine accepts it, one call
stands in for ``request`` + the native take + ``acquired``.  Here
hypothesis drives sequences of acquisitions, trylocks, releases and
forced GOs at call sites no signature names, over every engine-tracked
primitive of both runtimes, twice: once with the round on and once with
it forced to decline, so every acquisition goes through
``acquisition()``.  The two runs must leave the same records (code,
thread, lock, mode, capacity), counters, cache and monitor graph.

Below them, each condition under which the engine declines the round,
and a contended native take, is pinned as "nothing recorded, nothing taken".
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.avoidance import MODE_INSTRUMENTATION_ONLY
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_ACQUIRED, EV_ALLOW
from repro.core.history import History
from repro.core.signature import EXCLUSIVE, SHARED, Signature
from repro.instrument import (AioCondition, AioLock, AioRWLock, AioSemaphore,
                              AsyncioRuntime, DimmunixBoundedSemaphore, DimmunixLock,
                              DimmunixRLock, DimmunixRWLock, DimmunixSemaphore,
                              InstrumentationRuntime)

ACTORS = 3


def stack(*labels):
    return CallStack.from_labels(list(labels))


def foreign_world(detection_only=False) -> Dimmunix:
    """An engine whose history names sites no test acquisition is made at."""
    history = History(path=None, autosave=False)
    history.add(Signature([stack("foreign:1", "far:2"), stack("foreign:3", "far:4")],
                          matching_depth=2))
    dimmunix = Dimmunix(config=DimmunixConfig.for_testing(detection_only=detection_only),
                        history=history)
    hand_over_the_filter(dimmunix.engine)
    return dimmunix


def hand_over_the_filter(engine) -> None:
    """What any first request does: the cache is handed the index's filter."""
    assert engine.request(99, 99, stack("syncer:1")).is_go
    engine.cancel(99, 99)
    engine.forget_thread(99)


def switch(core, on: bool) -> list:
    """Leave the round on, counting acceptances, or force it to decline."""
    accepted = []
    settle_miss = core.settle_miss
    if on:
        def counted(*args):
            taken = settle_miss(*args)
            accepted.append(taken)
            return taken
        core.settle_miss = counted
    else:
        core.settle_miss = lambda *args: False
    return accepted


def spy_on_the_monitor(dimmunix) -> list:
    """Copy every record the monitor drains."""
    drained = []
    drain_raw = dimmunix.engine.events.drain_raw

    def copy(*args, **kwargs):
        records = drain_raw(*args, **kwargs)
        drained.extend((code, thread, lock, mode, capacity)
                       for _seq, code, thread, lock, _stack, _causes, _ts, mode, capacity
                       in records)
        return records

    dimmunix.engine.events.drain_raw = copy
    return drained


def what_is_left(dimmunix, drained) -> dict:
    dimmunix.process_now()
    rag = dimmunix.monitor.rag
    assert rag.order_violations == 0
    return {"records": list(drained), "stats": dimmunix.stats.snapshot(),
            "cache": dimmunix.engine.cache.snapshot(), "rag": rag.snapshot()}


# -- the sequences ------------------------------------------------------------------------

#: (op, actor, primitive, shared): op is "acquire", "release" (the actor's
#: n-th standing hold, n = primitive) or "force_go"; shared asks a reader
#: lock's read side.
OPS = st.lists(st.tuples(st.sampled_from(["acquire", "acquire", "release", "force_go"]),
                         st.integers(0, ACTORS - 1), st.integers(0, 4), st.booleans()),
               max_size=24)


class Model:
    """Which actor holds what, so a busy primitive is only ever tried, never waited on."""

    def __init__(self):
        self.holds = []  # (actor, primitive index, shared)
        self.forced = set()
        #: Acquisitions the round must have accepted: a free primitive, nothing forced.
        self.sure_rounds = 0

    def free(self, index) -> bool:
        return all(held != index for _actor, held, _shared in self.holds)

    def attempt(self, actor, index, reentrant=False) -> bool:
        """Note an attempt; True when it must take a free primitive through the round."""
        free = self.free(index)
        if reentrant and any(held == (actor, index, False) for held in self.holds):
            return free  # reentrant re-acquisition: no request, nothing consumed
        if free and actor not in self.forced:
            self.sure_rounds += 1
        self.forced.discard(actor)
        return free

    def release(self, actor, nth):
        mine = [held for held in self.holds if held[0] == actor]
        if not mine:
            return None
        held = mine[nth % len(mine)]
        self.holds.remove(held)
        return held


def thread_primitives(runtime):
    return [DimmunixLock(runtime=runtime), DimmunixRLock(runtime=runtime),
            DimmunixSemaphore(2, runtime=runtime),
            DimmunixBoundedSemaphore(1, runtime=runtime), DimmunixRWLock(runtime=runtime)]


def thread_acquire(primitive, shared, free):
    if isinstance(primitive, DimmunixRWLock):
        take = primitive.acquire_read if shared else primitive.acquire_write
        return take(None if free else 0)
    return primitive.acquire() if free else primitive.acquire(False)


def thread_release(primitive, shared):
    if isinstance(primitive, DimmunixRWLock):
        (primitive.release_read if shared else primitive.release_write)()
    else:
        primitive.release()


def run_threads(ops, on: bool):
    dimmunix = foreign_world()
    runtime = InstrumentationRuntime(dimmunix)
    accepted = switch(runtime.core, on)
    drained = spy_on_the_monitor(dimmunix)
    primitives = thread_primitives(runtime)
    actors = [ThreadPoolExecutor(1) for _ in range(ACTORS)]
    ids = [actor.submit(runtime.current_thread_id).result(10) for actor in actors]
    model, outcomes = Model(), []
    try:
        for op, actor, index, shared in ops:
            primitive = primitives[index]
            shared = shared and isinstance(primitive, DimmunixRWLock)
            if op == "acquire":
                free = model.attempt(actor, index, isinstance(primitive, DimmunixRLock))
                got = actors[actor].submit(thread_acquire, primitive, shared, free).result(10)
                if got:
                    model.holds.append((actor, index, shared))
                outcomes.append(got)
            elif op == "release":
                held = model.release(actor, index)
                if held is not None:
                    actors[actor].submit(thread_release, primitives[held[1]],
                                         held[2]).result(10)
            else:
                dimmunix.engine.force_go(ids[actor])
                model.forced.add(actor)
        left = what_is_left(dimmunix, drained)
    finally:
        for actor in actors:
            actor.shutdown()
    return outcomes, left, accepted, model


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_thread_primitives_leave_the_same_world_with_the_round_on_or_off(ops):
    outcomes, left, accepted, model = run_threads(ops, on=True)
    assert (outcomes, left) == run_threads(ops, on=False)[:2]
    assert sum(accepted) >= model.sure_rounds


def aio_primitives(runtime):
    return [AioLock(runtime=runtime), AioSemaphore(2, runtime=runtime),
            AioRWLock(runtime=runtime), AioCondition(runtime=runtime)]


async def aio_acquire(primitive, shared, free):
    timeout = None if free else 0
    if isinstance(primitive, AioRWLock):
        take = primitive.acquire_read if shared else primitive.acquire_write
        return await take(timeout)
    return await primitive.acquire(timeout)


async def aio_release(primitive, shared):
    if isinstance(primitive, AioRWLock):
        (primitive.release_read if shared else primitive.release_write)()
    else:
        primitive.release()


async def aio_cycle(condition, waiter, notifier):
    """``waiter`` waits on ``condition``, ``notifier`` wakes it: the wait's reacquisition."""
    assert await waiter(condition.acquire)
    waiting = asyncio.ensure_future(waiter(condition.wait))
    while not condition._waiters:
        await asyncio.sleep(0)
    assert await notifier(condition.acquire)
    await notifier(condition.notify)
    await notifier(condition.release)
    assert await waiting
    await waiter(condition.release)


def run_aio(ops, on: bool):
    dimmunix = foreign_world()
    runtime = AsyncioRuntime(dimmunix)
    accepted = switch(runtime.core, on)
    drained = spy_on_the_monitor(dimmunix)

    async def main():
        primitives = aio_primitives(runtime)
        inboxes = [asyncio.Queue() for _ in range(ACTORS)]

        async def serve(inbox):
            while True:
                job, done = await inbox.get()
                try:
                    done.set_result(await job())
                except Exception as exc:  # re-raised by the driver
                    done.set_exception(exc)

        def on_actor(actor):
            async def run(call, *args):
                done = asyncio.get_running_loop().create_future()

                async def job():
                    result = call(*args)
                    return await result if asyncio.iscoroutine(result) else result
                await inboxes[actor].put((job, done))
                return await done
            return run

        servers = [asyncio.ensure_future(serve(inbox)) for inbox in inboxes]
        ids = [await on_actor(actor)(runtime.current_task_id) for actor in range(ACTORS)]
        model, outcomes = Model(), []
        try:
            for op, actor, index, shared in ops:
                index %= len(primitives)
                primitive = primitives[index]
                cycle = shared and isinstance(primitive, AioCondition) and model.free(index)
                shared = shared and isinstance(primitive, AioRWLock)
                if op == "acquire" and cycle:
                    # Free for the waiter's acquisition and the notifier's; the wait's
                    # reacquisition may find the notifier still holding it.
                    other = (actor + 1) % ACTORS
                    for taker in (actor, other):
                        model.attempt(taker, index)
                    await aio_cycle(primitive, on_actor(actor), on_actor(other))
                elif op == "acquire":
                    free = model.attempt(actor, index)
                    got = await on_actor(actor)(aio_acquire, primitive, shared, free)
                    if got:
                        model.holds.append((actor, index, shared))
                    outcomes.append(got)
                elif op == "release":
                    held = model.release(actor, index)
                    if held is not None:
                        await on_actor(actor)(aio_release, primitives[held[1]], held[2])
                else:
                    dimmunix.engine.force_go(ids[actor])
                    model.forced.add(actor)
            return outcomes, what_is_left(dimmunix, drained), model
        finally:
            for server in servers:
                server.cancel()

    outcomes, left, model = asyncio.run(main())
    return outcomes, left, accepted, model


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_aio_primitives_leave_the_same_world_with_the_round_on_or_off(ops):
    outcomes, left, accepted, model = run_aio(ops, on=True)
    assert (outcomes, left) == run_aio(ops, on=False)[:2]
    assert sum(accepted) >= model.sure_rounds


# -- where the round declines --------------------------------------------------------------


class Native:
    """A non-blocking take that answers ``free`` and counts its calls."""

    def __init__(self, free=True):
        self.free = free
        self.calls = 0

    def __call__(self, thread_id, mode):
        self.calls += 1
        return self.free


def state_of(dimmunix, thread_id):
    """Records since the last call, counters, cache, lock 5's learned spec and the thread's slot."""
    engine = dimmunix.engine
    slot = engine.cache.slots.get(thread_id)  # a fresh slot is no state: made if missing
    fields = (slot.forced_go, slot.yield_cause, slot.yield_state, slot.waiting,
              {lock: list(stacks) for lock, stacks in slot.holds.items()})
    return (engine.events.drain_raw(), dimmunix.stats.snapshot(), engine.cache.snapshot(),
            engine.is_multiholder(5), fields)


def late_signature():
    return Signature([stack("late:1", "x:2"), stack("late:3", "x:4")])


# Each sets one decline condition up for thread ``tid`` and returns the stack to offer;
# the rest take the capture of the calling test, at a site no signature names.

def named_site(dimmunix, runtime, tid):
    return stack("named:1", "caller:2")  # eager: no capture verdict


def republished_since_the_capture(dimmunix, runtime, tid):
    offered = runtime.capture_stack()
    dimmunix.history.add(late_signature())
    return offered


def not_handed_to_the_cache(dimmunix, runtime, tid):
    dimmunix.history.add(late_signature())
    return runtime.capture_stack()  # the verdict of the index's filter, not yet the cache's


def forced_go(dimmunix, runtime, tid):
    dimmunix.engine.force_go(tid)
    return runtime.capture_stack()


def yield_cause(dimmunix, runtime, tid):
    dimmunix.engine.cache.set_yield_cause(tid, [(tid + 1, 77, stack("cause:1"))])
    return runtime.capture_stack()


def yield_state(dimmunix, runtime, tid):
    dimmunix.engine.cache.slots.get(tid).yield_state = object()
    return runtime.capture_stack()


def allow_edge_pending(dimmunix, runtime, tid):
    assert dimmunix.engine.request(tid, 78, stack("other:1")).is_go
    return runtime.capture_stack()


def instrumentation_only(dimmunix, runtime, tid):
    dimmunix.engine.mode = MODE_INSTRUMENTATION_ONLY
    return runtime.capture_stack()


class TestTheRoundDeclines:
    @pytest.mark.parametrize("condition", [
        named_site, republished_since_the_capture, not_handed_to_the_cache, forced_go,
        yield_cause, yield_state, allow_edge_pending, instrumentation_only])
    def test_nothing_is_recorded_and_nothing_taken(self, condition):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered = condition(dimmunix, runtime, tid)
        before = state_of(dimmunix, tid)
        native = Native()
        for mode, capacity in ((EXCLUSIVE, 1), (EXCLUSIVE, 3), (SHARED, 1)):
            assert runtime.core.settle_miss(tid, 5, offered, mode, capacity, native) is False
        assert native.calls == 0
        assert state_of(dimmunix, tid) == ([],) + before[1:]

    def test_in_detection_only_mode(self):
        dimmunix = foreign_world(detection_only=True)
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered, native = runtime.capture_stack(), Native()
        before = state_of(dimmunix, tid)
        assert runtime.core.settle_miss(tid, 5, offered, EXCLUSIVE, 1, native) is False
        assert native.calls == 0 and state_of(dimmunix, tid) == ([],) + before[1:]

    @pytest.mark.parametrize("mode, capacity", [(EXCLUSIVE, 1), (EXCLUSIVE, 3), (SHARED, 1)])
    def test_a_contended_native_take_is_tried_once_and_nothing_recorded(self, mode, capacity):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered, native = runtime.capture_stack(), Native(free=False)
        before = state_of(dimmunix, tid)
        assert runtime.core.settle_miss(tid, 5, offered, mode, capacity, native) is False
        assert native.calls == 1 and state_of(dimmunix, tid) == ([],) + before[1:]

    def test_where_it_applies_one_call_records_the_hold(self):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered, native = runtime.capture_stack(), Native()
        state_of(dimmunix, tid)  # drain the hand-over's records
        assert runtime.core.settle_miss(tid, 5, offered, SHARED, 1, native) is True
        records, _stats, cache, multiholder, fields = state_of(dimmunix, tid)
        assert native.calls == 1 and multiholder
        assert [(r[1], r[2], r[3], r[4], r[7]) for r in records] == [
            (EV_ALLOW, tid, 5, offered, SHARED), (EV_ACQUIRED, tid, 5, offered, SHARED)]
        assert records[0][6] == records[1][6]  # one timestamp
        assert cache["holders"] == {5: (tid, 1)}
        assert fields == (False, frozenset(), None, None, {5: [offered]})
