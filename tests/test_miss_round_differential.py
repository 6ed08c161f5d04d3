"""A request that takes the primitive leaves what request, take and ``acquired`` leave.

Every driver hands its first request the primitive's non-blocking take
(``request(..., take)``); where the engine grants and the take succeeds,
that one call stands in for ``request()`` + the native take +
``acquired()``.  Here hypothesis drives sequences of acquisitions,
trylocks, releases and forced GOs over every engine-tracked primitive of
both runtimes, at call sites no signature names and at one a signature
names (its other stack at a foreign site, so the cover search runs and
finds no instance), twice: once as the drivers make them and once with
the take withheld from the request, so every acquisition goes through
``acquisition()``.  The two runs must leave the same records (code,
thread, lock, mode, capacity; REQUEST included), counters, cache (the
Allowed bindings at named sites and the owner map too) and monitor graph.

Below them, the same comparison is made for one acquisition under each
pending condition a thread's slot or the filter can be in; and the three
ways a request does not take: the take fails (an allow edge, then the
protocol waits), detection-only mode (it takes, but without a search),
and an instance stands (YIELD, the parker armed, nothing taken).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.avoidance import (GO_OUTCOME, MODE_INSTRUMENTATION_ONLY, TAKEN_OUTCOME,
                                  Decision)
from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import (EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE, EV_REQUEST,
                               EV_YIELD)
from repro.core.history import History
from repro.core.runtime_api import PARK, WAIT_NATIVE, acquisition
from repro.core.signature import EXCLUSIVE, SHARED, Signature
from repro.instrument import (AioCondition, AioLock, AioRWLock, AioSemaphore,
                              AsyncioRuntime, DimmunixBoundedSemaphore, DimmunixLock,
                              DimmunixRLock, DimmunixRWLock, DimmunixSemaphore,
                              InstrumentationRuntime)

ACTORS = 3


def stack(*labels):
    return CallStack.from_labels(list(labels))


def at_named_site(take, *args):
    return take(*args)  # the call site NAMED names


async def at_named_site_aio(take, *args):
    return await take(*args)  # the call site NAMED names


def _site(function) -> CallStack:
    filename = CallStack.capture(skip=0).top().filename  # this file, as a capture names it
    return CallStack([Frame(function.__name__, filename, function.__code__.co_firstlineno + 1)])


#: A signature over the named helpers' call sites and a foreign one: a request there hits
#: the index and runs the cover search, which never finds the foreign site occupied.
NAMED = Signature([_site(at_named_site), _site(at_named_site_aio), stack("foreign:5", "far:6")],
                  matching_depth=1)


def foreign_world(detection_only=False) -> Dimmunix:
    """An engine whose history names sites no test acquisition is made at, and NAMED."""
    history = History(path=None, autosave=False)
    history.add(Signature([stack("foreign:1", "far:2"), stack("foreign:3", "far:4")],
                          matching_depth=2))
    history.add(NAMED)
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
    """Leave the drivers' take in their request, noting what took, or withhold it."""
    taken = []
    request = core.request

    def counted(thread_id, lock_id, stack, mode=EXCLUSIVE, capacity=1, take=None):
        outcome = request(thread_id, lock_id, stack, mode, capacity, take if on else None)
        taken.append(outcome is TAKEN_OUTCOME)
        return outcome

    core.request = counted
    return taken


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
    rag, cache = dimmunix.monitor.rag, dimmunix.engine.cache
    assert rag.order_violations == 0
    allowed = {site: [binding[:2] for binding in bindings]
               for site, bindings in cache.allowed.items()}
    return {"records": list(drained), "stats": dimmunix.stats.snapshot(),
            "cache": cache.snapshot(), "allowed": allowed, "owners": dict(cache._owners),
            "rag": rag.snapshot()}


# -- the sequences ------------------------------------------------------------------------

#: (op, actor, primitive, shared, named): op is "acquire", "release" (the
#: actor's n-th standing hold, n = primitive) or "force_go"; shared asks a
#: reader lock's read side, named an acquisition at NAMED's call site.
OPS = st.lists(st.tuples(st.sampled_from(["acquire", "acquire", "release", "force_go"]),
                         st.integers(0, ACTORS - 1), st.integers(0, 4), st.booleans(),
                         st.booleans()),
               max_size=24)


class Model:
    """Which actor holds what, so a busy primitive is only ever tried, never waited on."""

    def __init__(self):
        self.holds = []  # (actor, primitive index, shared)
        self.forced = set()
        #: Acquisitions whose request must have taken: a free primitive.
        self.sure_takes = 0

    def free(self, index) -> bool:
        return all(held != index for _actor, held, _shared in self.holds)

    def attempt(self, actor, index, reentrant=False) -> bool:
        """Note an attempt; True when its request must take a free primitive."""
        free = self.free(index)
        if reentrant and any(held == (actor, index, False) for held in self.holds):
            return free  # reentrant re-acquisition: no request, nothing consumed
        self.sure_takes += free  # a forced GO takes too
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


def thread_acquire(primitive, shared, free, named):
    if isinstance(primitive, DimmunixRWLock):
        take = primitive.acquire_read if shared else primitive.acquire_write
        args = (None if free else 0,)
    else:
        take, args = primitive.acquire, (() if free else (False,))
    return at_named_site(take, *args) if named else take(*args)


def thread_release(primitive, shared):
    if isinstance(primitive, DimmunixRWLock):
        (primitive.release_read if shared else primitive.release_write)()
    else:
        primitive.release()


def run_threads(ops, on: bool):
    dimmunix = foreign_world()
    runtime = InstrumentationRuntime(dimmunix)
    taken = switch(runtime.core, on)
    drained = spy_on_the_monitor(dimmunix)
    primitives = thread_primitives(runtime)
    actors = [ThreadPoolExecutor(1) for _ in range(ACTORS)]
    ids = [actor.submit(runtime.current_thread_id).result(10) for actor in actors]
    model, outcomes = Model(), []
    try:
        for op, actor, index, shared, named in ops:
            primitive = primitives[index]
            shared = shared and isinstance(primitive, DimmunixRWLock)
            if op == "acquire":
                free = model.attempt(actor, index, isinstance(primitive, DimmunixRLock))
                got = actors[actor].submit(thread_acquire, primitive, shared, free,
                                           named).result(10)
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
    return outcomes, left, taken, model


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_thread_primitives_leave_the_same_world_whether_the_request_takes_or_not(ops):
    outcomes, left, taken, model = run_threads(ops, on=True)
    assert (outcomes, left) == run_threads(ops, on=False)[:2]
    assert sum(taken) >= model.sure_takes


def aio_primitives(runtime):
    return [AioLock(runtime=runtime), AioSemaphore(2, runtime=runtime),
            AioRWLock(runtime=runtime), AioCondition(runtime=runtime)]


async def aio_acquire(primitive, shared, free, named):
    timeout = None if free else 0
    if isinstance(primitive, AioRWLock):
        take = primitive.acquire_read if shared else primitive.acquire_write
    else:
        take = primitive.acquire
    return await (at_named_site_aio(take, timeout) if named else take(timeout))


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
    taken = switch(runtime.core, on)
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
            for op, actor, index, shared, named in ops:
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
                    got = await on_actor(actor)(aio_acquire, primitive, shared, free, named)
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
    return outcomes, left, taken, model


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_aio_primitives_leave_the_same_world_whether_the_request_takes_or_not(ops):
    outcomes, left, taken, model = run_aio(ops, on=True)
    assert (outcomes, left) == run_aio(ops, on=False)[:2]
    assert sum(taken) >= model.sure_takes


# -- one acquisition, under each pending condition ------------------------------------------


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


# Each sets one condition up for thread ``tid`` and returns the stack to offer; the
# rest take the capture of the calling test, at a site no signature names.

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


def named_site(dimmunix, runtime, tid):
    return stack("foreign:1", "far:2")  # foreign:3 stands empty: searched, no instance


def comparable(state):
    """``state_of`` without the records' sequence numbers and timestamps."""
    records = [record[1:6] + record[7:] for record in state[0]]
    return (records,) + state[1:]


class TestUnderEachCondition:
    """One acquisition, made both ways from the same engine state, leaves the same state."""

    @pytest.mark.parametrize("condition", [
        republished_since_the_capture, not_handed_to_the_cache, forced_go,
        yield_cause, yield_state, allow_edge_pending, instrumentation_only, named_site])
    def test_one_request_leaves_what_request_take_and_acquired_leave(self, condition):
        for mode, capacity in ((EXCLUSIVE, 1), (EXCLUSIVE, 3), (SHARED, 1)):
            left = []
            for one_call in (True, False):
                dimmunix = foreign_world()
                runtime = InstrumentationRuntime(dimmunix)
                tid, core = runtime.current_thread_id(), runtime.core
                offered = condition(dimmunix, runtime, tid)
                state_of(dimmunix, tid)  # drain the set-up's records
                native = Native()
                outcome = core.request(tid, 5, offered, mode, capacity,
                                       native if one_call else None)
                if outcome is not TAKEN_OUTCOME:  # what the protocol does after a GO
                    assert outcome.is_go and native(tid, mode)
                    core.acquired(tid, 5, offered, mode, capacity)
                assert native.calls == 1
                left.append(comparable(state_of(dimmunix, tid)))
            assert left[0] == left[1]


class TestOneRequestTakes:
    def test_at_an_unnamed_site_it_records_the_hold(self):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered, native = runtime.capture_stack(), Native()
        state_of(dimmunix, tid)  # drain the hand-over's records
        assert runtime.core.request(tid, 5, offered, SHARED, 1, native) is TAKEN_OUTCOME
        records, _stats, cache, multiholder, fields = state_of(dimmunix, tid)
        assert native.calls == 1 and multiholder
        assert [(r[1], r[2], r[3], r[4], r[7]) for r in records] == [
            (EV_ALLOW, tid, 5, offered, SHARED), (EV_ACQUIRED, tid, 5, offered, SHARED)]
        assert records[0][6] == records[1][6]  # one timestamp
        assert cache["holders"] == {5: (tid, 1)}
        assert fields == (False, frozenset(), None, None, {5: [offered]})

    @pytest.mark.parametrize("mode, capacity", [(EXCLUSIVE, 1), (EXCLUSIVE, 3), (SHARED, 1)])
    def test_at_a_named_site_with_no_instance_it_records_the_request_too(self, mode, capacity):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered, native = stack("foreign:1", "far:2"), Native()  # foreign:3 stands empty
        state_of(dimmunix, tid)
        assert runtime.core.request(tid, 5, offered, mode, capacity, native) is TAKEN_OUTCOME
        records, _stats, cache, _multiholder, fields = state_of(dimmunix, tid)
        assert native.calls == 1
        assert [(r[1], r[2], r[3], r[4], r[7]) for r in records] == [
            (code, tid, 5, offered, mode) for code in (EV_REQUEST, EV_ALLOW, EV_ACQUIRED)]
        assert len({record[6] for record in records}) == 1  # one timestamp
        assert cache["holders"] == {5: (tid, 1)}
        assert [binding[:2] for binding in dimmunix.engine.cache.allowed[offered.top()]] == [
            (tid, 5)]
        assert fields == (False, frozenset(), None, None, {5: [offered]})


def hold_the_other_site(dimmunix, thread_id):
    """Stand at foreign:3, so a request at foreign:1 instantiates NAMED's sibling."""
    engine = dimmunix.engine
    assert engine.request(thread_id, 6, stack("foreign:3", "far:4")).is_go
    engine.acquired(thread_id, 6, stack("foreign:3", "far:4"))


class TestTheRequestDoesNotTake:
    @pytest.mark.parametrize("mode, capacity", [(EXCLUSIVE, 1), (EXCLUSIVE, 3), (SHARED, 1)])
    def test_a_failed_take_leaves_the_allow_edge_and_the_protocol_waits(self, mode, capacity):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        offered, native = runtime.capture_stack(), Native(free=False)
        state_of(dimmunix, tid)
        outcome = runtime.core.request(tid, 5, offered, mode, capacity, native)
        assert outcome is GO_OUTCOME and native.calls == 1
        records, _stats, cache, _multiholder, fields = state_of(dimmunix, tid)
        assert [(r[1], r[2], r[3]) for r in records] == [(EV_ALLOW, tid, 5)]
        assert cache["holders"] == {} and fields[3] == (5, offered)
        steps = acquisition(runtime.core, tid, 5, offered, mode, capacity, True, None, None,
                            outcome, native)
        assert next(steps) == (WAIT_NATIVE, None)  # after the protocol's own take
        assert native.calls == 2
        with pytest.raises(StopIteration):
            steps.send(True)
        records, _stats, cache, _multiholder, fields = state_of(dimmunix, tid)
        assert [(r[1], r[2], r[3]) for r in records] == [(EV_ACQUIRED, tid, 5)]
        assert fields[3:] == (None, {5: [offered]})

    def test_in_detection_only_mode_it_takes_without_a_search(self):
        """No search, so no REQUEST and no YIELD: not even where an instance stands."""
        dimmunix = foreign_world(detection_only=True)
        runtime = InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        hold_the_other_site(dimmunix, tid + 1)
        offered, native = stack("foreign:1", "far:2"), Native()
        state_of(dimmunix, tid)
        assert runtime.core.request(tid, 5, offered, EXCLUSIVE, 1, native) is TAKEN_OUTCOME
        records, _stats, cache, _multiholder, _fields = state_of(dimmunix, tid)
        assert native.calls == 1
        assert [(r[1], r[2]) for r in records] == [(EV_ALLOW, tid), (EV_ACQUIRED, tid)]
        assert cache["holders"] == {5: (tid, 1), 6: (tid + 1, 1)}
        assert dimmunix.stats.yield_decisions == 0

    def test_where_an_instance_stands_it_yields_with_the_parker_armed(self):
        dimmunix = foreign_world()
        runtime = InstrumentationRuntime(dimmunix)
        tid, engine = runtime.current_thread_id(), dimmunix.engine
        hold_the_other_site(dimmunix, tid + 1)
        armed, prepare = [], runtime.yields.prepare
        runtime.yields.prepare = lambda thread_id: armed.append(thread_id) or prepare(thread_id)
        offered, native = stack("foreign:1", "far:2"), Native()
        state_of(dimmunix, tid)
        outcome = runtime.core.request(tid, 5, offered, EXCLUSIVE, 1, native)
        assert outcome.is_yield and outcome.causes == ((tid + 1, 6, stack("foreign:3", "far:4")),)
        assert native.calls == 0 and armed == [tid]
        assert engine.cache.waiting_of(tid) is None
        steps = acquisition(runtime.core, tid, 5, offered, EXCLUSIVE, 1, True, None, None,
                            outcome, native)
        assert next(steps) == (PARK, dimmunix.config.yield_timeout)
        assert not runtime.yields.event_for(tid).is_set()
        runtime.core.release(tid + 1, 6)  # the cause dissolves: the armed event is set
        assert runtime.yields.event_for(tid).is_set()
        steps.close()
        assert dimmunix.stats.yield_decisions == 1
        assert [record[1] for record in engine.events.drain_raw()] == [
            EV_REQUEST, EV_YIELD, EV_RELEASE, EV_CANCEL]


@pytest.mark.parametrize("takes", [True, False])
def test_record_requests_sees_the_request_that_takes(record_requests, takes):
    dimmunix = foreign_world()
    runtime = InstrumentationRuntime(dimmunix)
    taken = switch(runtime.core, takes)
    seen = record_requests(dimmunix.engine, lambda stack, outcome: (stack.top(), outcome.decision))
    lock = DimmunixLock(runtime=runtime)
    assert at_named_site(lock.acquire)
    lock.release()
    assert seen == [(_site(at_named_site).top(), Decision.GO)]
    assert taken == [takes]
