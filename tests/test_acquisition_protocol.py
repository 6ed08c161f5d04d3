"""One acquisition protocol, three runtimes.

``repro.core.runtime_api.acquisition`` is the only place the
request / park / abort / try / note_blocked / wait / cancel / acquired
sequence is written.  These tests script the engine's answers with a
recording :class:`RuntimeCore`, run the same *shape* of acquisition
through the thread driver, the asyncio driver and the simulator's
independent ``SimScheduler`` model, and require the same engine-call
sequence from each — for a mutex, a two-permit semaphore, and both sides
of a reader-writer lock.

The simulator has no parker, no yield bound and no deadlines, so it never
calls ``prepare_wait`` / ``park`` / ``abort_yield`` / ``note_blocked``;
it is compared on the calls every runtime makes (``request``,
``acquired``, ``cancel``, ``release``).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.avoidance import GO_OUTCOME, Decision, RequestOutcome
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.runtime_api import RuntimeCore
from repro.core.signature import EXCLUSIVE, SHARED
from repro.instrument import (AioLock, AioRWLock, AioSemaphore, AsyncioRuntime,
                              DimmunixLock, DimmunixRWLock, DimmunixSemaphore,
                              InstrumentationRuntime)
from repro.sim import (Acquire, Compute, DimmunixBackend, Release, SimLock,
                       SimRWLock, SimScheduler, SimSemaphore, TryAcquire)

YIELD_OUTCOME = RequestOutcome(Decision.YIELD)

#: Calls the simulator's model makes too.
COMMON = ("request", "acquired", "cancel", "release")


class ScriptedCore(RuntimeCore):
    """Records the subject's engine calls and answers them from a script.

    Nothing reaches the real engine.  Threads other than ``subject`` (the
    ones that make the resource busy) always get GO and are not recorded.
    """

    def __init__(self, decisions=("go",), park="woken", yield_timeout=None):
        super().__init__(Dimmunix(config=DimmunixConfig.for_testing(
            yield_timeout=yield_timeout)))
        self.subject = None
        self.calls = []
        self._decisions = list(decisions)
        self._park = park
        #: Set when the subject is about to block on the native primitive.
        self.on_blocked = None
        #: Thread ids the next release by a non-subject reports as woken.
        self.wake_on_release = []

    def _mine(self, thread_id):
        return thread_id == self.subject

    def prepare_wait(self, thread_id):
        if self._mine(thread_id):
            self.calls.append("prepare_wait")

    def request(self, thread_id, lock_id, stack, mode=EXCLUSIVE, capacity=1):
        if not self._mine(thread_id):
            return GO_OUTCOME
        self.calls.append(("request", mode, capacity))
        return GO_OUTCOME if self._decisions.pop(0) == "go" else YIELD_OUTCOME

    def acquired(self, thread_id, lock_id, stack=None, mode=EXCLUSIVE,
                 capacity=1):
        if self._mine(thread_id):
            self.calls.append(("acquired", mode, capacity))

    def release(self, thread_id, lock_id):
        if self._mine(thread_id):
            self.calls.append("release")
            return []
        woken, self.wake_on_release = self.wake_on_release, []
        return woken

    def cancel(self, thread_id, lock_id):
        if self._mine(thread_id):
            self.calls.append("cancel")

    def note_blocked(self, thread_id):
        if self._mine(thread_id):
            self.calls.append("note_blocked")
            if self.on_blocked is not None:
                self.on_blocked()

    def abort_yield(self, thread_id):
        self.calls.append("abort_yield")

    def park(self, thread_id, timeout):
        self.calls.append("park")
        if self._park == "expire":
            time.sleep(timeout)
        return self._park == "woken"

    async def park_async(self, thread_id, timeout):
        self.calls.append("park")
        if self._park == "expire":
            await asyncio.sleep(timeout)
        elif self._park == "forever":
            await asyncio.get_running_loop().create_future()
        return self._park == "woken"


# -- the four primitives, per runtime ----------------------------------------------------

KINDS = {
    # kind: (mode, capacity) the engine is told about
    "mutex": (EXCLUSIVE, 1),
    "semaphore2": (EXCLUSIVE, 2),
    "rw-shared": (SHARED, 1),
    "rw-exclusive": (EXCLUSIVE, 1),
}


class ThreadPrimitive:
    def __init__(self, kind, runtime):
        self.kind = kind
        if kind == "mutex":
            self.lock = DimmunixLock(runtime=runtime)
        elif kind == "semaphore2":
            self.lock = DimmunixSemaphore(2, runtime=runtime)
        else:
            self.lock = DimmunixRWLock(runtime=runtime)

    def acquire(self, blocking=True, timeout=None):
        if self.kind == "rw-shared":
            return self.lock.acquire_read(timeout)
        if self.kind == "rw-exclusive":
            return self.lock.acquire_write(timeout)
        if self.kind == "mutex":
            return self.lock.acquire(blocking, -1 if timeout is None else timeout)
        return self.lock.acquire(blocking, timeout)

    def release(self):
        if self.kind == "rw-shared":
            self.lock.release_read()
        elif self.kind == "rw-exclusive":
            self.lock.release_write()
        else:
            self.lock.release()

    def make_busy(self):
        """Take, from the calling thread, what the subject will wait for."""
        if self.kind == "rw-shared":
            self.lock.acquire_write()
            return self.lock.release_write
        if self.kind == "rw-exclusive":
            self.lock.acquire_read()
            return self.lock.release_read
        permits = 2 if self.kind == "semaphore2" else 1
        for _ in range(permits):
            self.lock.acquire()
        return lambda: [self.lock.release() for _ in range(permits)]


class AioPrimitive:
    def __init__(self, kind, runtime):
        self.kind = kind
        if kind == "mutex":
            self.lock = AioLock(runtime=runtime)
        elif kind == "semaphore2":
            self.lock = AioSemaphore(2, runtime=runtime)
        else:
            self.lock = AioRWLock(runtime=runtime)

    def acquire(self, timeout=None):
        if self.kind == "rw-shared":
            return self.lock.acquire_read(timeout)
        if self.kind == "rw-exclusive":
            return self.lock.acquire_write(timeout)
        return self.lock.acquire(timeout)

    def release(self):
        if self.kind == "rw-shared":
            self.lock.release_read()
        elif self.kind == "rw-exclusive":
            self.lock.release_write()
        else:
            self.lock.release()

    async def make_busy(self):
        if self.kind == "rw-shared":
            await self.lock.acquire_write()
            return self.lock.release_write
        if self.kind == "rw-exclusive":
            await self.lock.acquire_read()
            return self.lock.release_read
        permits = 2 if self.kind == "semaphore2" else 1
        for _ in range(permits):
            await self.lock.acquire()
        return lambda: [self.lock.release() for _ in range(permits)]


# -- one shape, one runtime -> the subject's call sequence --------------------------------


def run_threads(kind, core, busy=None, blocking=True, timeout=None):
    """``busy``: None (free), "held" (stays busy) or "freed" (released once
    the subject is about to block)."""
    runtime = InstrumentationRuntime(core.dimmunix)
    runtime.core = core
    primitive = ThreadPrimitive(kind, runtime)
    holding, let_go = threading.Event(), threading.Event()

    def holder():
        give_back = primitive.make_busy()
        holding.set()
        assert let_go.wait(5)
        give_back()

    helper = None
    if busy:
        helper = threading.Thread(target=holder)
        helper.start()
        assert holding.wait(5)
        if busy == "freed":
            core.on_blocked = let_go.set
    core.subject = runtime.current_thread_id()
    try:
        got = primitive.acquire(blocking, timeout)
        if got:
            primitive.release()
    finally:
        let_go.set()
        if helper is not None:
            helper.join(5)
            assert not helper.is_alive()
    return got, core.calls


def run_aio(kind, core, busy=None, timeout=None, cancel=False):
    async def main():
        runtime = AsyncioRuntime(core.dimmunix)
        runtime.core = core
        primitive = AioPrimitive(kind, runtime)
        holding, let_go = asyncio.Event(), asyncio.Event()
        suspended = asyncio.Event()

        async def holder():
            give_back = await primitive.make_busy()
            holding.set()
            await let_go.wait()
            give_back()

        async def subject():
            core.subject = runtime.current_task_id()
            got = await primitive.acquire(timeout)
            if got:
                primitive.release()
            return got

        helper = None
        if busy:
            helper = asyncio.ensure_future(holder())
            await holding.wait()
            core.on_blocked = let_go.set if busy == "freed" else suspended.set
        task = asyncio.ensure_future(subject())
        if cancel:
            if not busy:  # parked by the scripted YIELD
                while "park" not in core.calls:
                    await asyncio.sleep(0)
            else:
                await suspended.wait()
                await asyncio.sleep(0)  # let it join the native wait queue
            task.cancel()
        try:
            got = await asyncio.wait_for(task, 5)
        except asyncio.CancelledError:
            got = "cancelled"
        let_go.set()
        if helper is not None:
            await asyncio.wait_for(helper, 5)
        return got

    return asyncio.run(main()), core.calls


def run_sim(kind, core, busy=None, trylock=False, wake=False):
    mode, _capacity = KINDS[kind]
    backend = DimmunixBackend(dimmunix=core.dimmunix)
    backend.core = core
    scheduler = SimScheduler(backend=backend)
    lock = scheduler.register_lock(
        SimLock() if kind == "mutex"
        else SimSemaphore(2) if kind == "semaphore2" else SimRWLock())
    other = scheduler.new_lock("other")
    outcome = {}

    def subject():
        yield Compute(0.5)
        if trylock:
            outcome["got"] = yield TryAcquire(lock, mode=mode)
        else:
            yield Acquire(lock, mode=mode)
            outcome["got"] = True
        if outcome["got"]:
            yield Release(lock)

    def holder():
        blocker = SHARED if kind == "rw-exclusive" else EXCLUSIVE
        permits = 2 if kind == "semaphore2" else 1
        for _ in range(permits):
            yield Acquire(lock, mode=blocker)
        yield Compute(1.0)
        if busy == "freed":
            for _ in range(permits):
                yield Release(lock)
        else:
            yield Compute(10.0)
            for _ in range(permits):
                yield Release(lock)

    def waker():
        yield Compute(1.0)
        yield Acquire(other)
        core.wake_on_release = [core.subject]
        yield Release(other)

    core.subject = scheduler.add_thread(subject, name="subject").thread_id
    if busy:
        scheduler.add_thread(holder, name="holder")
    if wake:
        scheduler.add_thread(waker, name="waker")
    result = scheduler.run()
    assert result.completed
    return outcome["got"], core.calls


def common(calls):
    return [call for call in calls
            if (call if isinstance(call, str) else call[0]) in COMMON]


# -- the shapes --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
class TestSameSequenceOnEveryRuntime:
    def test_go(self, kind):
        m = KINDS[kind]
        expected = ["prepare_wait", ("request", *m), ("acquired", *m), "release"]
        assert run_threads(kind, ScriptedCore()) == (True, expected)
        assert run_aio(kind, ScriptedCore()) == (True, expected)
        assert run_sim(kind, ScriptedCore()) == (True, common(expected))

    def test_yield_then_woken_then_go(self, kind):
        m = KINDS[kind]
        script = dict(decisions=("yield", "go"), park="woken")
        expected = ["prepare_wait", ("request", *m), "park",
                    "prepare_wait", ("request", *m), ("acquired", *m), "release"]
        assert run_threads(kind, ScriptedCore(**script)) == (True, expected)
        assert run_aio(kind, ScriptedCore(**script)) == (True, expected)
        assert run_sim(kind, ScriptedCore(**script), wake=True) == (
            True, common(expected))

    def test_yield_bound_expires_and_the_yield_is_aborted(self, kind):
        m = KINDS[kind]
        script = dict(decisions=("yield", "go"), park="unwoken",
                      yield_timeout=0.01)
        expected = ["prepare_wait", ("request", *m), "park", "abort_yield",
                    "prepare_wait", ("request", *m), ("acquired", *m), "release"]
        assert run_threads(kind, ScriptedCore(**script)) == (True, expected)
        assert run_aio(kind, ScriptedCore(**script)) == (True, expected)

    def test_unwoken_park_without_a_bound_just_retries(self, kind):
        m = KINDS[kind]
        script = dict(decisions=("yield", "go"), park="unwoken")
        expected = ["prepare_wait", ("request", *m), "park",
                    "prepare_wait", ("request", *m), ("acquired", *m), "release"]
        assert run_threads(kind, ScriptedCore(**script)) == (True, expected)
        assert run_aio(kind, ScriptedCore(**script)) == (True, expected)

    def test_contended_then_granted(self, kind):
        m = KINDS[kind]
        expected = ["prepare_wait", ("request", *m), "note_blocked",
                    ("acquired", *m), "release"]
        assert run_threads(kind, ScriptedCore(), busy="freed") == (True, expected)
        assert run_aio(kind, ScriptedCore(), busy="freed") == (True, expected)
        assert run_sim(kind, ScriptedCore(), busy="freed") == (
            True, common(expected))

    def test_deadline_expires_during_park(self, kind):
        m = KINDS[kind]
        script = dict(decisions=("yield", "yield"), park="expire")
        expected = ["prepare_wait", ("request", *m), "park",
                    "prepare_wait", ("request", *m), "cancel"]
        assert run_threads(kind, ScriptedCore(**script), timeout=0.01) == (
            False, expected)
        assert run_aio(kind, ScriptedCore(**script), timeout=0.01) == (
            False, expected)

    def test_deadline_expires_during_native_wait(self, kind):
        m = KINDS[kind]
        expected = ["prepare_wait", ("request", *m), "note_blocked", "cancel"]
        assert run_threads(kind, ScriptedCore(), busy="held", timeout=0.01) == (
            False, expected)
        assert run_aio(kind, ScriptedCore(), busy="held", timeout=0.01) == (
            False, expected)

    def test_trylock_refused_by_the_engine(self, kind):
        m = KINDS[kind]
        expected = ["prepare_wait", ("request", *m), "cancel"]
        if not kind.startswith("rw"):  # DimmunixRWLock has no trylock
            assert run_threads(kind, ScriptedCore(decisions=("yield",)),
                               blocking=False) == (False, expected)
        assert run_sim(kind, ScriptedCore(decisions=("yield",)),
                       trylock=True) == (False, common(expected))

    def test_trylock_refused_by_the_native_primitive(self, kind):
        m = KINDS[kind]
        expected = ["prepare_wait", ("request", *m), "cancel"]
        if not kind.startswith("rw"):
            assert run_threads(kind, ScriptedCore(), busy="held",
                               blocking=False) == (False, expected)
        assert run_sim(kind, ScriptedCore(), busy="held", trylock=True) == (
            False, common(expected))

    def test_task_cancelled_while_parked(self, kind):
        m = KINDS[kind]
        core = ScriptedCore(decisions=("yield",), park="forever")
        assert run_aio(kind, core, cancel=True) == (
            "cancelled", ["prepare_wait", ("request", *m), "park", "cancel"])

    def test_task_cancelled_while_queued_on_the_native_primitive(self, kind):
        m = KINDS[kind]
        assert run_aio(kind, ScriptedCore(), busy="held", cancel=True) == (
            "cancelled", ["prepare_wait", ("request", *m), "note_blocked", "cancel"])


class TestRollBackLivesInTheProtocol:
    def test_a_driver_side_failure_cancels_the_request(self):
        """Whatever the native half raises, ``close()`` rolls back."""
        core = ScriptedCore()
        runtime = InstrumentationRuntime(core.dimmunix)
        runtime.core = core
        lock = DimmunixLock(runtime=runtime)
        core.subject = runtime.current_thread_id()

        def broken(thread_id, mode):
            raise OSError("native primitive failed")

        lock._try_native = broken
        with pytest.raises(OSError):
            lock.acquire()
        assert core.calls == ["prepare_wait", ("request", EXCLUSIVE, 1), "cancel"]
