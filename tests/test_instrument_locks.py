"""Tests for the real-thread lock wrappers and monkey-patching."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.errors import InstrumentationError
from repro.instrument import patching
from repro.instrument.locks import (Condition, DimmunixCondition, DimmunixLock,
                                    DimmunixRLock, Lock, RLock)
from repro.instrument.patching import default_runtime, reset_default_runtimes
from repro.instrument.runtime import (InstrumentationRuntime, ThreadRegistry,
                                      YieldManager)


@pytest.fixture
def runtime(config, history):
    return InstrumentationRuntime(Dimmunix(config=config, history=history))


class TestDimmunixLock:
    def test_basic_acquire_release(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_context_manager(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_timeout_with_nonblocking_is_rejected_like_threading(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        with pytest.raises(ValueError):
            threading.Lock().acquire(False, 1)
        with pytest.raises(ValueError):
            lock.acquire(blocking=False, timeout=1)
        assert not lock.locked()
        assert runtime.engine.stats.snapshot()["requests"] == 0
        # threading's own spelling of "no timeout" stays accepted.
        assert lock.acquire(blocking=False, timeout=-1)
        lock.release()

    def test_trylock_fails_when_held_elsewhere(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        lock.acquire()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(lock.acquire(blocking=False)))
        thread.start()
        thread.join()
        assert result == [False]
        lock.release()

    def test_timeout_expires(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        lock.acquire()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(lock.acquire(timeout=0.05)))
        thread.start()
        thread.join()
        assert result == [False]
        # A cancel event must have rolled the request back.
        assert runtime.engine.stats.cancels >= 1
        lock.release()

    def test_release_by_non_owner_raises(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        lock.acquire()
        errors = []

        def bad_release():
            try:
                lock.release()
            except InstrumentationError as exc:
                errors.append(exc)

        thread = threading.Thread(target=bad_release)
        thread.start()
        thread.join()
        assert len(errors) == 1
        lock.release()

    def test_engine_sees_hold_state(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        lock.acquire()
        holder = runtime.engine.cache.holder_of(lock.lock_id)
        assert holder == runtime.current_thread_id()
        lock.release()
        assert runtime.engine.cache.holder_of(lock.lock_id) is None

    def test_contention_serializes_correctly(self, runtime):
        lock = DimmunixLock(runtime=runtime)
        counter = {"v": 0}

        def worker():
            for _ in range(100):
                with lock:
                    counter["v"] += 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["v"] == 400

    def test_repr_mentions_state(self, runtime):
        lock = DimmunixLock(runtime=runtime, name="mylock")
        assert "mylock" in repr(lock)


class TestDimmunixRLock:
    def test_reentrant_acquire(self, runtime):
        lock = DimmunixRLock(runtime=runtime)
        assert lock.acquire()
        assert lock.acquire()
        lock.release()
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_condition_wait_notify(self, runtime):
        condition = DimmunixCondition(runtime=runtime)
        flags = []

        def waiter():
            with condition:
                condition.wait(timeout=2.0)
                flags.append("woken")

        thread = threading.Thread(target=waiter)
        thread.start()
        # Give the waiter time to enter the wait.
        import time
        time.sleep(0.05)
        with condition:
            condition.notify_all()
        thread.join()
        assert flags == ["woken"]


class TestFactoriesAndPatching:
    def test_factories_use_default_runtime(self, config):
        with repro.immunize(dimmunix=Dimmunix(config=config)) as handle:
            lock, rlock, condition = Lock(), RLock(), Condition()
            assert default_runtime("threads") is handle.threads
            assert lock._runtime is rlock._runtime is handle.threads
        assert isinstance(lock, DimmunixLock)
        assert isinstance(rlock, DimmunixRLock)
        assert isinstance(condition, DimmunixCondition)

    def test_get_default_creates_lazily(self):
        reset_default_runtimes()
        runtime = default_runtime("threads")
        assert runtime is default_runtime("threads")
        assert DimmunixLock()._runtime is runtime

    def test_install_patches_threading(self, config):
        engine = Dimmunix(config=config)
        with repro.immunize(dimmunix=engine) as handle:
            lock = threading.Lock()
            assert isinstance(lock, DimmunixLock)
            assert lock._runtime.dimmunix is engine
            rlock = threading.RLock()
            assert isinstance(rlock, DimmunixRLock)
            assert patching._installed == {"threads"}
        assert handle.stopped and not patching._installed
        assert not isinstance(threading.Lock(), DimmunixLock)

    def test_double_install_rejected(self, config):
        with repro.immunize(dimmunix=Dimmunix(config=config)):
            with pytest.raises(InstrumentationError):
                repro.immunize(dimmunix=Dimmunix(config=config))
            # The live handle's patch is not the failed call's to undo.
            assert isinstance(threading.Lock(), DimmunixLock)

    def test_patched_context_manager(self, config):
        with repro.immunize(config=config) as handle:
            assert patching._installed == {"threads"}
            assert handle.dimmunix.running
            lock = threading.Lock()
            with lock:
                pass
        assert not patching._installed
        assert not handle.dimmunix.running

    def test_immunize_returns_started_runtime(self, tmp_path):
        handle = repro.immunize(history_path=str(tmp_path / "h.json"))
        try:
            assert patching._installed == {"threads"}
            assert handle.dimmunix.running
            assert handle.dimmunix.config.history_path is not None
        finally:
            handle.stop()
        assert not patching._installed


class TestRuntimeHelpers:
    def test_thread_registry_assigns_stable_ids(self):
        registry = ThreadRegistry()
        first = registry.current_thread_id()
        assert registry.current_thread_id() == first
        ids = []
        thread = threading.Thread(target=lambda: ids.append(registry.current_thread_id()))
        thread.start()
        thread.join()
        assert ids[0] != first
        assert registry.name_of(first) is not None
        assert len(registry.known_threads()) == 2

    def test_yield_manager_wake(self, config):
        dimmunix = Dimmunix(config=config)
        manager = YieldManager(dimmunix)
        event = manager.prepare(5)
        assert not event.is_set()
        # Wakes arrive through the waker the manager registered with the facade.
        dimmunix.wake([5])
        assert event.is_set()
        manager.forget(5)

    def test_capture_stack_never_empty(self, runtime):
        stack = runtime.capture_stack()
        assert len(stack) >= 1

    def test_end_to_end_immunity_with_patched_threading(self, tmp_path):
        """The full monkey-patching path: deadlock once, immune afterwards."""
        history_path = str(tmp_path / "patched.json")

        def run_once():
            config = DimmunixConfig(history_path=history_path,
                                    monitor_interval=0.02)
            with repro.immunize(config=config) as runtime:
                lock_a = threading.Lock()
                lock_b = threading.Lock()
                ready = [threading.Event(), threading.Event()]
                outcome = {"timeouts": 0}

                def update(first, second, index):
                    if not first.acquire(timeout=1.0):
                        outcome["timeouts"] += 1
                        return
                    ready[index].set()
                    ready[1 - index].wait(0.2)
                    if not second.acquire(timeout=1.0):
                        outcome["timeouts"] += 1
                        first.release()
                        return
                    second.release()
                    first.release()

                threads = [
                    threading.Thread(target=update, args=(lock_a, lock_b, 0)),
                    threading.Thread(target=update, args=(lock_b, lock_a, 1)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                stats = runtime.dimmunix.stats.snapshot()
            return outcome, stats

        first_outcome, first_stats = run_once()
        assert first_outcome["timeouts"] >= 1
        assert first_stats["deadlocks_detected"] >= 1
        second_outcome, second_stats = run_once()
        assert second_outcome["timeouts"] == 0
        assert second_stats["yield_decisions"] >= 1
