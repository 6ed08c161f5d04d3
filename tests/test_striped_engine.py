"""Concurrency stress tests for the striped avoidance engine.

The engine no longer serializes every lock operation through one global
mutex: per-thread state is slot-owned, the cache is lock-striped, and only
the signature-matching slow path takes a mutex.  These tests hammer the
engine from many real threads and then check that the event stream it
emitted replays serially into a coherent, quiescent RAG and that the
statistics agree exactly with the serialized replay.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.avoidance import AvoidanceEngine
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EventType
from repro.core.history import History
from repro.core.rag import ResourceAllocationGraph
from repro.core.runtime_api import RuntimeCore
from repro.core.signature import Signature
from repro.instrument.locks import DimmunixLock
from repro.instrument.runtime import InstrumentationRuntime


def stack(*labels):
    return CallStack.from_labels(list(labels))


THREADS = 8
OPS = 400


def _build_engine(with_signatures: bool) -> AvoidanceEngine:
    history = History(path=None, autosave=False)
    if with_signatures:
        # Signatures over the workers' own stacks, so the matching slow
        # path (and its mutex) is exercised alongside the lock-free fast
        # path.
        for left in range(0, THREADS, 2):
            history.add(Signature(
                [stack(f"hot:{left}", "caller:0"),
                 stack(f"hot:{left + 1}", "caller:0")],
                matching_depth=2))
    return AvoidanceEngine(history, DimmunixConfig.for_testing())


def _hammer(engine: AvoidanceEngine, threads: int = THREADS,
            ops: int = OPS) -> None:
    """Drive request/acquired/release (+ yields/aborts) from real threads.

    Each worker owns a disjoint set of locks, so the native mutual
    exclusion the engine normally piggybacks on is preserved by
    construction; stacks overlap so Allowed sets and signature matching
    see real cross-thread contention.
    """
    barrier = threading.Barrier(threads)
    errors = []

    def work(worker: int) -> None:
        thread_id = worker + 1
        hot = stack(f"hot:{worker}", "caller:0", "main:0")
        cold = stack(f"cold:{worker % 3}", "caller:1", "main:0")
        barrier.wait()
        try:
            for op in range(ops):
                use = hot if op % 2 == 0 else cold
                lock_id = 100 * thread_id + (op % 5)
                outcome = engine.request(thread_id, lock_id, use)
                if outcome.is_yield:
                    # A real runtime would park; the stress driver aborts
                    # the yield and retries, exercising the forced-GO path.
                    engine.abort_yield(thread_id)
                    outcome = engine.request(thread_id, lock_id, use)
                    assert outcome.is_go
                engine.acquired(thread_id, lock_id, use)
                engine.release(thread_id, lock_id)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    pool = [threading.Thread(target=work, args=(w,)) for w in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert errors == []


class TestConcurrentStress:
    @pytest.mark.parametrize("with_signatures", [False, True])
    def test_event_stream_replays_to_quiescent_rag(self, with_signatures):
        engine = _build_engine(with_signatures)
        _hammer(engine)
        events = engine.events.drain()
        rag = ResourceAllocationGraph()
        rag.apply_batch(events)
        # Serialized replay of the concurrent stream: every hold, allow,
        # and request edge must have dissolved — the RAG is quiescent.
        for thread in rag.threads():
            assert thread.holds == {}, thread
            assert thread.allow is None, thread
            assert thread.request is None, thread
        for lock in rag.locks():
            assert lock.holder_ids() == [], lock
            assert lock.waiters == set(), lock

    @pytest.mark.parametrize("with_signatures", [False, True])
    def test_stats_identical_to_serialized_replay(self, with_signatures):
        engine = _build_engine(with_signatures)
        _hammer(engine)
        events = engine.events.drain()
        by_type = {}
        for event in events:
            by_type[event.type] = by_type.get(event.type, 0) + 1
        snap = engine.stats.snapshot()
        # REQUEST events are published only for requests that enter the
        # cover search; granted fast-path requests emit just the ALLOW.
        assert by_type.get(EventType.REQUEST, 0) <= snap["requests"]
        assert by_type.get(EventType.YIELD, 0) <= by_type.get(EventType.REQUEST, 0)
        assert snap["go_decisions"] == by_type.get(EventType.ALLOW, 0)
        assert snap["yield_decisions"] == by_type.get(EventType.YIELD, 0)
        assert snap["acquisitions"] == by_type.get(EventType.ACQUIRED, 0)
        assert snap["releases"] == by_type.get(EventType.RELEASE, 0)
        assert snap["acquisitions"] == snap["releases"] == THREADS * OPS
        # Every yield was aborted by the driver and re-granted with a
        # forced GO, so the decision counters must balance exactly.
        assert snap["aborted_yields"] == snap["yield_decisions"]
        assert snap["forced_go"] == snap["aborted_yields"]
        assert snap["requests"] == snap["go_decisions"] + snap["yield_decisions"]

    @pytest.mark.parametrize("with_signatures", [False, True])
    def test_cache_is_empty_after_stress(self, with_signatures):
        engine = _build_engine(with_signatures)
        _hammer(engine)
        snap = engine.cache.snapshot()
        assert snap["holders"] == {}
        assert snap["waiting"] == {}
        assert snap["yielding"] == {}
        assert snap["distinct_stacks"] == 0
        assert engine.cache.allowed_set_sizes() == {}


class TestRealLockStress:
    def test_instrumented_locks_with_immune_history(self):
        """Real DimmunixLocks, shared between threads, with the deadlock
        pattern already in the history: every thread must complete (the
        avoidance yields and wakes instead of deadlocking or hanging)."""
        history = History(path=None, autosave=False)
        config = DimmunixConfig.for_testing(yield_timeout=0.05)
        dimmunix = Dimmunix(config=config, history=history)
        runtime = InstrumentationRuntime(dimmunix)
        lock_a = DimmunixLock(runtime=runtime, name="A")
        lock_b = DimmunixLock(runtime=runtime, name="B")
        done = []
        errors = []

        def worker(first, second, rounds=40):
            try:
                for _ in range(rounds):
                    first.acquire()
                    second.acquire()
                    second.release()
                    first.release()
                done.append(1)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        # Ordered acquisition (no deadlock possible), many threads, with
        # the monitor polling concurrently.
        dimmunix.start()
        try:
            pool = [threading.Thread(target=worker, args=(lock_a, lock_b))
                    for _ in range(6)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
            assert all(not t.is_alive() for t in pool)
        finally:
            dimmunix.stop()
        assert errors == []
        assert len(done) == 6
        snap = dimmunix.stats.snapshot()
        assert snap["acquisitions"] == snap["releases"]


class TestRuntimeApiUnification:
    def test_both_runtimes_use_runtime_core(self):
        from repro.sim.backends import DimmunixBackend

        backend = DimmunixBackend()
        assert isinstance(backend.core, RuntimeCore)
        runtime = InstrumentationRuntime(Dimmunix(DimmunixConfig.for_testing()))
        assert isinstance(runtime.core, RuntimeCore)

    def test_core_release_wakes_through_registry(self):
        history = History(path=None, autosave=False)
        history.add(Signature([stack("lock:4", "update:1"),
                               stack("lock:4", "update:2")], matching_depth=2))
        dimmunix = Dimmunix(DimmunixConfig.for_testing(), history=history)
        core = dimmunix.runtime_core
        woken_ids = []
        dimmunix.register_waker(2, lambda: woken_ids.append(2))
        s1 = stack("lock:4", "update:1", "main:0")
        s2 = stack("lock:4", "update:2", "main:0")
        assert core.request(1, 2, s2).is_go
        core.acquired(1, 2, s2)
        assert core.request(2, 1, s1).is_yield
        woken = core.release(1, 2)
        assert woken == [2]
        assert woken_ids == [2]
        assert core.request(2, 1, s1).is_go


class TestPerThreadStateLifecycle:
    def test_thread_death_drops_engine_state(self):
        """Terminated threads must not accumulate engine slots, wake
        events, or wakers (thread-per-request servers would otherwise grow
        without bound)."""
        import gc

        dimmunix = Dimmunix(DimmunixConfig.for_testing())
        runtime = InstrumentationRuntime(dimmunix)
        lock = DimmunixLock(runtime=runtime, name="L")
        seen_ids = []

        def worker():
            lock.acquire()
            seen_ids.append(runtime.current_thread_id())
            lock.release()

        for _ in range(5):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        gc.collect()
        engine = dimmunix.engine
        assert len(engine.cache.slots) == 0  # the one registry: engine and cache state
        for thread_id in seen_ids:
            assert engine.cache.hold_count(thread_id, lock.lock_id) == 0

    def test_history_observers_are_weak(self):
        """A history outlives the engines attached to it; dead engines'
        indexes must not stay registered (or alive) as observers."""
        import gc

        history = History(path=None, autosave=False)
        for _ in range(3):
            engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
            del engine
        gc.collect()
        # The next mutation prunes dead references.
        history.add(Signature([stack("a:1"), stack("b:2")], matching_depth=1))
        assert len(history._observers) == 0
        live = AvoidanceEngine(history, DimmunixConfig.for_testing())
        history.add(Signature([stack("c:3"), stack("d:4")], matching_depth=1))
        assert len(live.index) == 2


class TestLastAvoidedSignature:
    def test_most_recent_not_most_avoided(self):
        """Section 5.7: "disable the last avoided signature" must target
        the most *recently* avoided signature, even when another signature
        has been avoided far more often."""
        history = History(path=None, autosave=False)
        often = Signature([stack("lock:4", "update:1"),
                           stack("lock:4", "update:2")], matching_depth=2)
        often.avoidance_count = 99
        recent = Signature([stack("lock:9", "fetch:1"),
                            stack("lock:9", "fetch:2")], matching_depth=2)
        history.add(often)
        history.add(recent)
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        r1 = stack("lock:9", "fetch:1", "main:0")
        r2 = stack("lock:9", "fetch:2", "main:0")
        engine.request(1, 2, r2)
        engine.acquired(1, 2, r2)
        assert engine.request(2, 1, r1).is_yield
        # The yielding thread aborts; nobody is parked any more, so the
        # engine must rely on its explicitly tracked fingerprint.
        engine.abort_yield(2)
        last = engine.last_avoided_signature()
        assert last is not None
        assert last.fingerprint == recent.fingerprint
        assert often.avoidance_count > recent.avoidance_count

    def test_facade_disables_most_recent(self):
        history = History(path=None, autosave=False)
        often = Signature([stack("lock:4", "update:1"),
                           stack("lock:4", "update:2")], matching_depth=2)
        often.avoidance_count = 99
        recent = Signature([stack("lock:9", "fetch:1"),
                            stack("lock:9", "fetch:2")], matching_depth=2)
        history.add(often)
        history.add(recent)
        dimmunix = Dimmunix(DimmunixConfig.for_testing(), history=history)
        r1 = stack("lock:9", "fetch:1", "main:0")
        r2 = stack("lock:9", "fetch:2", "main:0")
        dimmunix.request(1, 2, r2)
        dimmunix.acquired(1, 2, r2)
        dimmunix.request(2, 1, r1)
        dimmunix.engine.abort_yield(2)
        disabled = dimmunix.disable_last_signature()
        assert disabled.fingerprint == recent.fingerprint
        assert history.get(recent.fingerprint).disabled
        assert not history.get(often.fingerprint).disabled
