"""Thread programs: plain synchronous code as a simulator program (``repro.sim.threads``)."""

from __future__ import annotations

import threading

import pytest

from repro.core.avoidance import GO_OUTCOME
from repro.core.config import DimmunixConfig
from repro.core.errors import SimulationError
from repro.sim import (DimmunixBackend, Explorer, NullBackend, ReplayPolicy,
                       SimScheduler)
from repro.sim.aio import async_program, new_aio_lock
from repro.sim.threads import ThreadPrograms


def world(build):
    """A scheduler whose thread programs ``build(programs)`` returns."""
    scheduler = SimScheduler(backend=NullBackend())
    programs = ThreadPrograms(scheduler)
    for body in build(programs):
        programs.add(body)
    return scheduler


def test_code_between_lock_operations_runs_one_thread_at_a_time():
    log = []

    def build(programs):
        lock = programs.rlock("L")

        def body(tag):
            def run():
                for step in range(3):
                    lock.acquire()
                    log.append((tag, step, "in"))
                    log.append((tag, step, "out"))
                    lock.release()
            return run
        return [body("a"), body("b")]

    result = Explorer(lambda: world(build), strategy="dfs").explore()
    assert result.exhausted and result.completed == result.runs > 1
    # Every critical section is entered and left with no other code between.
    assert all(entered[:2] == left[:2]
               for entered, left in zip(log[::2], log[1::2]))


def test_a_plain_lock_is_not_reentrant_and_an_rlock_is():
    def build(make):
        def build_with(programs):
            lock = make(programs)

            def twice():
                lock.acquire()
                lock.acquire()
                lock.release()
                lock.release()
            return [twice]
        return build_with

    assert world(build(lambda programs: programs.lock("L"))).run().deadlocked
    assert world(build(lambda programs: programs.rlock("R"))).run().completed


def test_try_acquire_answers_without_blocking():
    answers = []

    def build(programs):
        lock = programs.lock("L")

        def holder():
            lock.acquire()
            answers.append(lock.acquire(blocking=False))
            lock.release()
        return [holder]

    assert world(build).run().completed
    assert answers == [False]


def test_set_up_lock_operations_take_nothing():
    def build(programs):
        lock = programs.lock("L")
        lock.acquire()  # on the caller's thread, before any program runs
        return [lambda: (lock.acquire(), lock.release())]

    assert world(build).run().completed


def test_stacks_are_the_application_frames():
    class Recording(NullBackend):
        stacks = []

        def request(self, thread_id, lock_id, stack, *resource):
            self.stacks.append(stack)
            return GO_OUTCOME

    def app_method(lock):
        lock.acquire()
        lock.release()

    scheduler = world(lambda programs: [lambda: app_method(programs.lock("L"))])
    scheduler.backend = Recording()
    assert scheduler.run().completed
    [stack] = Recording.stacks
    assert stack.top().function == "app_method"
    assert not any(frame.filename.endswith("sim/threads.py") for frame in stack)


def test_stacks_are_captured_at_the_backend_depth():
    """A program 8 calls deep requests with the backend's configured depth,
    as the shipped runtimes capture, not the configuration default of 10."""
    class Recording(DimmunixBackend):
        depths = []

        def request(self, thread_id, lock_id, stack, *resource):
            self.depths.append(len(stack))
            return super().request(thread_id, lock_id, stack, *resource)

    def nested(lock, calls):
        if calls:
            return nested(lock, calls - 1)
        lock.acquire()
        lock.release()

    scheduler = world(lambda programs: [lambda: nested(programs.lock("L"), 8)])
    scheduler.backend = Recording(config=DimmunixConfig.for_testing(max_stack_depth=4))
    assert scheduler.run().completed
    assert Recording.depths == [4]


def test_an_ended_run_unwinds_its_threads_past_except_exception():
    unwound = []

    def build(programs):
        first, second = programs.lock("A"), programs.lock("B")

        def ordered(one, other, tag):
            def run():
                try:
                    with_both(one, other)
                except Exception:  # the abort is not an application error
                    unwound.append((tag, "swallowed"))
                finally:
                    unwound.append((tag, "finally"))
            return run
        return [ordered(first, second, "ab"), ordered(second, first, "ba")]

    def with_both(one, other):
        one.acquire()
        other.acquire()

    before = set(threading.enumerate())
    scheduler = world(build)
    scheduler.policy = ReplayPolicy(Explorer(lambda: world(build)).explore(
        stop_on_first_deadlock=True).deadlocks[0].trace, strict=True)
    unwound.clear()
    assert scheduler.run().deadlocked
    assert sorted(unwound) == [("ab", "finally"), ("ba", "finally")]
    assert set(threading.enumerate()) <= before


# The garbage collector reports the same error when it finalizes the
# stalled coroutines; only a raise out of the exploration would be a fault.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_a_stalled_coroutine_inside_async_with_is_left_unclosed():
    # Closing such a coroutine would run __aexit__, which awaits a Release:
    # only thread programs are closed when a run ends unfinished.
    def build():
        scheduler = SimScheduler(backend=NullBackend())
        first, second = new_aio_lock(scheduler, "A"), new_aio_lock(scheduler, "B")

        async def nested(outer, inner):
            async with outer:
                async with inner:
                    pass

        scheduler.add_thread(async_program(nested, first, second))
        scheduler.add_thread(async_program(nested, second, first))
        return scheduler

    result = Explorer(build, strategy="dfs").explore()
    assert result.exhausted and result.deadlock_count > 0
    result = Explorer(build).explore()
    assert result.exhausted and result.deadlock_count > 0


def test_an_application_error_is_raised_by_the_run():
    def build(programs):
        def broken():
            raise KeyError("app bug")
        return [broken]

    before = set(threading.enumerate())
    with pytest.raises(SimulationError) as raised:
        world(build).run()
    assert isinstance(raised.value.__cause__, KeyError)
    assert set(threading.enumerate()) <= before
