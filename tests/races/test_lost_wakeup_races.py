"""A yield's wake is never lost between the engine's decision and the driver's park.

The engine arms the requester's parker itself, under its match mutex,
just before it publishes the yield's causes; the driver parks only after
the request returned.  A release of a cause, or a forced GO from the
monitor, may land anywhere in between.  Here the yielder is parked at a
gate in front of its park (``core.park`` / ``core.park_async``) while
another thread releases the cause or forces a GO, and again with the
release made once the park has begun: either way the park must return
woken, on the thread driver and on the asyncio driver.  A forced GO may
also land while the engine is still searching, before it arms: the gate
is then the parker's ``prepare``, and the request must grant rather than
publish a yield whose wake the arming just cleared.

Lost wakeups would hang, so every yielder runs in a daemon thread with no
yield bound and is joined with a timeout: a lost wake fails, it never hangs.
Last, a seeded storm: threads at both sites of one signature yield on each
other's bindings, round after round, under preemption pressure, with a
yield bound long enough that only a lost wake ever reaches it.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument import AioLock, AsyncioRuntime, DimmunixLock, InstrumentationRuntime

from .harness import Trap, preemption_pressure, run_threads


def hold_at(acquire):
    return acquire()  # the call site the first signature's first stack names


def yield_at(acquire):
    return acquire()  # the call site its second stack names


async def hold_at_aio(acquire):
    return await acquire()  # the call site the second signature's first stack names


async def yield_at_aio(acquire):
    return await acquire()  # the call site its second stack names


def _site(function) -> CallStack:
    filename = CallStack.capture(skip=0).top().filename  # this file, as a capture names it
    return CallStack([Frame(function.__name__, filename, function.__code__.co_firstlineno + 1)])


def _dimmunix(first, second, **config) -> Dimmunix:
    history = History(path=None, autosave=False)
    history.add(Signature([_site(first), _site(second)], matching_depth=1))
    return Dimmunix(DimmunixConfig.for_testing(**config), history=history)


def force_go_as_the_monitor_does(dimmunix: Dimmunix, thread_id: int) -> None:
    """What the monitor's starvation handler does to its victim."""
    dimmunix.engine.force_go(thread_id)
    dimmunix.monitor.wake_callback([thread_id])


def _join(thread: threading.Thread) -> None:
    thread.join(10.0)
    assert not thread.is_alive(), f"{thread.name} never woke: its wake was lost"


# -- the thread driver ----------------------------------------------------------------------


class ThreadWorld:
    """A holder thread standing at ``hold_at``; a yielder thread to request at ``yield_at``."""

    def __init__(self):
        self.dimmunix = dimmunix = _dimmunix(hold_at, yield_at)
        self.runtime = runtime = InstrumentationRuntime(dimmunix)
        self.held, self.wanted = DimmunixLock(runtime=runtime), DimmunixLock(runtime=runtime)
        self.parks = []
        self.holding, self.let_go, self.done = (threading.Event() for _ in range(3))
        self.holder = threading.Thread(target=self._hold, name="holder", daemon=True)
        self.holder.start()
        assert self.holding.wait(10.0)

    def _hold(self):
        assert hold_at(self.held.acquire)
        self.holding.set()
        assert self.let_go.wait(10.0)
        self.held.release()
        self.done.set()

    def gate_the_park(self, trap: Trap) -> None:
        park = self.runtime.core.park
        self.runtime.core.park = lambda thread_id, timeout: self._noted(
            trap.here() or park(thread_id, timeout))

    def _noted(self, woken):
        self.parks.append(woken)
        return woken

    def start_yielder(self) -> threading.Thread:
        def body():
            self.yielder_id = self.runtime.current_thread_id()
            assert yield_at(self.wanted.acquire)
            self.wanted.release()

        yielder = threading.Thread(target=body, name="trapped-yielder", daemon=True)
        yielder.start()
        return yielder


class TestTheThreadDriver:
    @pytest.mark.parametrize("release", ["at-the-gate", "once-parked"])
    def test_a_release_of_the_cause_wakes_the_yielder(self, release):
        world, trap = ThreadWorld(), Trap("trapped")
        world.gate_the_park(trap)
        yielder = world.start_yielder()
        assert trap.reached.wait(10.0)  # armed and published, not yet parked
        assert world.dimmunix.engine.yielding_threads() == [world.yielder_id]
        if release == "at-the-gate":
            world.let_go.set()
            assert world.done.wait(10.0)
            trap.release.set()
        else:
            trap.release.set()
            time.sleep(0.05)  # into the park
            world.let_go.set()
        _join(yielder)
        world.holder.join(10.0)
        stats = world.dimmunix.stats
        assert world.parks == [True]
        assert stats.yield_decisions == 1 and stats.aborted_yields == 0

    def test_a_forced_go_at_the_gate_wakes_the_yielder(self):
        world, trap = ThreadWorld(), Trap("trapped")
        world.gate_the_park(trap)
        yielder = world.start_yielder()
        assert trap.reached.wait(10.0)
        force_go_as_the_monitor_does(world.dimmunix, world.yielder_id)
        trap.release.set()
        _join(yielder)  # forced through while the cause still stands
        world.let_go.set()
        world.holder.join(10.0)
        stats = world.dimmunix.stats
        assert world.parks == [True]
        assert stats.forced_go == 1 and stats.aborted_yields == 0

    def test_a_forced_go_before_the_arming_is_granted_at_once(self):
        """The arming clears the forced GO's wake; the engine sees the flag instead."""
        world, trap = ThreadWorld(), Trap("trapped")
        world.gate_the_park(Trap("nobody"))
        prepare = world.runtime.yields.prepare
        world.runtime.yields.prepare = lambda thread_id: trap.here() or prepare(thread_id)
        yielder = world.start_yielder()
        assert trap.reached.wait(10.0)  # searched, the instance found, not yet armed
        force_go_as_the_monitor_does(world.dimmunix, world.yielder_id)
        trap.release.set()
        _join(yielder)
        world.let_go.set()
        world.holder.join(10.0)
        stats = world.dimmunix.stats
        assert world.parks == [] and stats.yield_decisions == 0
        assert stats.forced_go == 1


# -- the asyncio driver ---------------------------------------------------------------------


class AioWorld:
    """A holder task on loop B at ``hold_at_aio``; a yielder task on loop A, in another thread.

    The gate blocks loop A's thread, so what lands there comes from loop B's
    thread or from the test's.
    """

    def __init__(self):
        self.dimmunix = _dimmunix(hold_at_aio, yield_at_aio)
        self.runtime = runtime = AsyncioRuntime(self.dimmunix)
        self.held, self.wanted = AioLock(runtime=runtime), AioLock(runtime=runtime)
        self.parks = []
        self.holding, self.let_go, self.done = (threading.Event() for _ in range(3))
        self.loop_b = threading.Thread(target=lambda: asyncio.run(self._hold()), name="loop-b",
                                       daemon=True)
        self.loop_b.start()
        assert self.holding.wait(10.0)

    async def _hold(self):
        assert await hold_at_aio(self.held.acquire)
        self.holding.set()
        while not self.let_go.is_set():
            await asyncio.sleep(0.001)
        self.held.release()  # the cause dissolves, on loop B
        self.done.set()

    def gate_the_park(self, trap: Trap) -> None:
        park_async = self.runtime.core.park_async

        async def gated(task_id, timeout):
            trap.here()
            woken = await park_async(task_id, timeout)
            self.parks.append(woken)
            return woken

        self.runtime.core.park_async = gated

    def start_yielder(self) -> threading.Thread:
        async def body():
            self.yielder_id = self.runtime.current_task_id()
            assert await yield_at_aio(self.wanted.acquire)
            self.wanted.release()

        loop_a = threading.Thread(target=lambda: asyncio.run(body()), name="trapped-loop-a",
                                  daemon=True)
        loop_a.start()
        return loop_a


class TestTheAsyncioDriver:
    @pytest.mark.parametrize("release", ["at-the-gate", "once-parked"])
    def test_a_release_of_the_cause_wakes_the_yielder(self, release):
        world, trap = AioWorld(), Trap("trapped")
        world.gate_the_park(trap)
        loop_a = world.start_yielder()
        assert trap.reached.wait(10.0)  # armed and published, not yet parked
        assert world.dimmunix.engine.yielding_threads() == [world.yielder_id]
        if release == "at-the-gate":
            world.let_go.set()
            assert world.done.wait(10.0)
            trap.release.set()
        else:
            trap.release.set()
            time.sleep(0.05)  # into the park
            world.let_go.set()
        _join(loop_a)
        world.loop_b.join(10.0)
        stats = world.dimmunix.stats
        assert world.parks == [True]
        assert stats.yield_decisions == 1 and stats.aborted_yields == 0

    def test_a_forced_go_at_the_gate_wakes_the_yielder(self):
        world, trap = AioWorld(), Trap("trapped")
        world.gate_the_park(trap)
        loop_a = world.start_yielder()
        assert trap.reached.wait(10.0)
        force_go_as_the_monitor_does(world.dimmunix, world.yielder_id)
        trap.release.set()
        _join(loop_a)
        world.let_go.set()
        world.loop_b.join(10.0)
        stats = world.dimmunix.stats
        assert world.parks == [True]
        assert stats.forced_go == 1 and stats.aborted_yields == 0

    def test_a_forced_go_before_the_arming_is_granted_at_once(self):
        world, trap = AioWorld(), Trap("trapped")
        world.gate_the_park(Trap("nobody"))
        parker = world.runtime.core.parker
        prepare = parker.prepare
        parker.prepare = lambda task_id: trap.here() or prepare(task_id)
        loop_a = world.start_yielder()
        assert trap.reached.wait(10.0)
        force_go_as_the_monitor_does(world.dimmunix, world.yielder_id)
        trap.release.set()
        _join(loop_a)
        world.let_go.set()
        world.loop_b.join(10.0)
        stats = world.dimmunix.stats
        assert world.parks == [] and stats.yield_decisions == 0
        assert stats.forced_go == 1


class TestAWakeStorm:
    def test_every_yield_is_woken_before_its_bound(self):
        """Three threads take ``held`` at ``hold_at``, three ``wanted`` at ``yield_at``:
        each side's binding is the other side's yield cause, and each is released
        unconditionally, so every yield must end woken; an aborted yield is a lost wake."""
        dimmunix = _dimmunix(hold_at, yield_at, yield_timeout=5.0)
        runtime = InstrumentationRuntime(dimmunix)
        held, wanted = DimmunixLock(runtime=runtime), DimmunixLock(runtime=runtime)

        def worker(site, lock):
            for _ in range(150):
                assert site(lock.acquire)
                time.sleep(0)  # hand the interpreter over, the binding standing
                lock.release()

        with preemption_pressure():
            run_threads([lambda: worker(hold_at, held)] * 3
                        + [lambda: worker(yield_at, wanted)] * 3, timeout=60.0)
        stats = dimmunix.stats
        assert stats.yield_decisions > 0 and stats.aborted_yields == 0
        assert dimmunix.engine.yielding_threads() == []
