"""Tests for the allocation-free GO fast path.

Covers the three pooling/fast-path mechanisms: the singleton GO outcome,
the pooled per-thread/per-task parkers, the signature index's top-frame
miss filter, the sharded statistics counters, and the simulator's use of
the same ring-buffered event path as the real runtimes.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.avoidance import (AvoidanceEngine, Decision, GO_OUTCOME,
                                  MODE_INSTRUMENTATION_ONLY)
from repro.core.calibration import Calibrator
from repro.core.callstack import CallStack, LazyCallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_ACQUIRED, EV_ALLOW, EV_RELEASE, EV_REQUEST, EventBus
from repro.core.history import History
from repro.core.sigindex import SignatureIndex
from repro.core.signature import Signature
from repro.core.stats import EngineStats
from repro.instrument.aio import AsyncioParker
from repro.instrument.locks import DimmunixLock
from repro.instrument.runtime import InstrumentationRuntime, YieldManager
from repro.share import MemoryHub, SignaturePool
from repro.sim.backends import DimmunixBackend


def stack(labels=("f:1", "g:2")):
    return CallStack.from_labels(list(labels))


def make_engine(history=None):
    return AvoidanceEngine(history or History(path=None, autosave=False),
                           DimmunixConfig.for_testing())


class TestGoOutcomeSingleton:
    def test_grants_reuse_one_frozen_outcome(self):
        engine = make_engine()
        s = stack()
        first = engine.request(1, 10, s)
        engine.acquired(1, 10, s)
        engine.release(1, 10)
        second = engine.request(2, 20, s)
        assert first is GO_OUTCOME
        assert second is GO_OUTCOME
        assert first.decision is Decision.GO

    def test_instrumentation_only_mode_reuses_it_too(self):
        engine = make_engine()
        engine.mode = MODE_INSTRUMENTATION_ONLY
        assert engine.request(1, 10, stack()) is GO_OUTCOME

    def test_outcome_is_immutable(self):
        try:
            GO_OUTCOME.decision = Decision.YIELD
            mutated = True
        except Exception:
            mutated = False
        assert not mutated


class TestPooledThreadParker:
    def test_same_event_object_across_rounds(self):
        yields = YieldManager(Dimmunix(config=DimmunixConfig.for_testing()))
        first = yields.prepare(1)
        second = yields.prepare(1)
        assert first is second

    def test_event_is_reset_after_a_wake(self):
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        yields = YieldManager(dimmunix)
        event = yields.prepare(1)
        dimmunix.wake([1])
        assert event.is_set()
        again = yields.prepare(1)
        assert again is event
        assert not again.is_set()

    def test_never_shared_between_threads(self):
        yields = YieldManager(Dimmunix(config=DimmunixConfig.for_testing()))
        events = {}

        def grab(thread_id: int) -> None:
            events[thread_id] = yields.prepare(thread_id)

        pool = [threading.Thread(target=grab, args=(tid,))
                for tid in range(1, 9)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len({id(event) for event in events.values()}) == 8

    def test_forget_releases_the_pooled_event(self):
        yields = YieldManager(Dimmunix(config=DimmunixConfig.for_testing()))
        event = yields.prepare(1)
        yields.forget(1)
        assert yields.prepare(1) is not event


class TestPooledTaskParker:
    def test_pending_future_is_reused_until_resolved(self):
        parker = AsyncioParker(Dimmunix(config=DimmunixConfig.for_testing()))

        async def scenario():
            parker.prepare(1)
            first = parker._futures[1][1]
            parker.prepare(1)
            assert parker._futures[1][1] is first, "pending future re-made"
            # A wake resolves the round; the next prepare must re-arm.
            parker._wake(1)
            assert first.done()
            parker.prepare(1)
            assert parker._futures[1][1] is not first

        asyncio.run(scenario())

    def test_distinct_tasks_get_distinct_futures(self):
        parker = AsyncioParker(Dimmunix(config=DimmunixConfig.for_testing()))

        async def scenario():
            parker.prepare(1)
            parker.prepare(2)
            assert parker._futures[1][1] is not parker._futures[2][1]

        asyncio.run(scenario())


class TestTopFrameMissFilter:
    def _signature(self, labels_a, labels_b, depth=2):
        return Signature([stack(labels_a), stack(labels_b)],
                         matching_depth=depth)

    def test_unknown_call_site_misses_without_bucket_lookup(self):
        history = History(path=None, autosave=False)
        history.add(self._signature(("a:1", "m:0"), ("b:2", "m:0")))
        index = SignatureIndex(history)
        assert index.candidates(stack(("zzz:9", "m:0"))) == []
        assert index.candidates(stack(("a:1", "m:0"))) != []

    def test_filter_tracks_add_remove_refresh_churn(self):
        history = History(path=None, autosave=False)
        index = SignatureIndex(history)
        signatures = [self._signature((f"a{i}:1", "m:0"), (f"b{i}:2", "m:0"))
                      for i in range(6)]
        for signature in signatures:
            history.add(signature)
            assert index.filter_consistent()
        history.remove(signatures[0].fingerprint)
        assert index.filter_consistent()
        signatures[1].matching_depth = 1
        index.refresh(signatures[1])
        assert index.filter_consistent()
        history.clear()
        assert index.filter_consistent()
        assert index.candidates(stack(("a2:1", "m:0"))) == []

    def test_engine_miss_path_returns_go(self):
        history = History(path=None, autosave=False)
        history.add(self._signature(("a:1", "m:0"), ("b:2", "m:0")))
        engine = make_engine(history)
        outcome = engine.request(1, 10, stack(("elsewhere:5", "m:0")))
        assert outcome is GO_OUTCOME


class _CountingMutex:
    """Stands in for a stripe mutex and records every entry."""

    def __init__(self, mutex, entries):
        self._mutex = mutex
        self._entries = entries

    def __enter__(self):
        self._entries.append(self._mutex)
        return self._mutex.__enter__()

    def __exit__(self, *exc_info):
        return self._mutex.__exit__(*exc_info)


class TestVacantSitesOnTheHitPath:
    def test_candidates_with_vacant_other_sites_cost_no_mutex_and_no_foreign_stack(self):
        """Fig. 4's case: k signatures hit, nobody stands at their other stacks.

        The search must learn that from k lock-free probes — no stripe
        mutex, and no look at (let alone deep walk of) the stacks other
        threads hold elsewhere.
        """
        k = 5
        wanted = stack(("take:1", "m:0"))
        history = History(path=None, autosave=False)
        for index in range(k):
            history.add(Signature([wanted, stack((f"never{index}:1", "m:0"))],
                                  matching_depth=2))
        stats = EngineStats()
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing(), stats=stats)
        bystander = CallStack.capture_lazy(skip=0, stats=stats)
        assert engine.request(2, 20, bystander) is GO_OUTCOME
        engine.acquired(2, 20, bystander)
        entries = []
        for stripe in engine.cache._stripes:
            stripe.mutex = _CountingMutex(stripe.mutex, entries)

        candidates = engine.index.candidates(wanted)
        assert len(candidates) == k
        assert engine._match_candidates(candidates, 1, 10, wanted) is None
        assert entries == []
        assert not bystander.materialized()
        assert stats.capture_materialized == 0


class _CountingSlots:
    """Stands in for the cache's slot registry and records every lookup."""

    def __init__(self, slots, lookups):
        self._slots = slots
        self._lookups = lookups

    def get(self, key):
        self._lookups.append(key)
        return self._slots.get(key)

    def peek(self, key):
        self._lookups.append(key)
        return self._slots.peek(key)

    def __getattr__(self, name):
        return getattr(self._slots, name)


class _CountingCalibrator(Calibrator):
    """Records the acquisitions and releases the engine reports."""

    def __init__(self, config):
        super().__init__(config)
        self.reported = []

    def on_lock_acquired(self, thread_id, lock_id, held_before, stack):
        self.reported.append(("acquired", thread_id, lock_id, held_before))
        super().on_lock_acquired(thread_id, lock_id, held_before, stack)

    def on_lock_released(self, thread_id, lock_id):
        self.reported.append(("released", thread_id, lock_id))
        super().on_lock_released(thread_id, lock_id)


class TestTheMissFilterDecidesOnce:
    """A request at a call site no signature names pays for nothing it cannot need."""

    def test_a_miss_triple_enters_two_mutexes_looks_its_slot_up_thrice_and_reports_to_nobody(self):
        history = History(path=None, autosave=False)
        history.add(Signature([stack(("a:1", "m:0")), stack(("b:2", "m:0"))],
                              matching_depth=2))
        config = DimmunixConfig.for_testing()
        calibrator = _CountingCalibrator(config)
        bus = EventBus()
        engine = AvoidanceEngine(history, config, event_queue=bus, calibrator=calibrator)
        elsewhere = stack(("elsewhere:5", "m:0"))
        entries, lookups = [], []
        for stripe in engine.cache._stripes:
            stripe.mutex = _CountingMutex(stripe.mutex, entries)
        engine.cache.slots = _CountingSlots(engine.cache.slots, lookups)

        assert engine.request(1, 10, elsewhere) is GO_OUTCOME
        engine.acquired(1, 10, elsewhere)
        engine.release(1, 10)
        # The holder record, written and erased (with its double-acquire check);
        # no Allowed set is entered for a site the cover search can never probe.
        assert len(entries) == 2
        assert engine.cache.allowed_set_sizes() == {}
        assert lookups == [1, 1, 1]  # one per engine entry
        assert calibrator.reported == []  # no episode is open
        assert [record[1] for record in bus.drain_raw()] == [EV_ALLOW, EV_ACQUIRED, EV_RELEASE]

    @pytest.mark.parametrize("way", ["added", "installed-by-the-pool", "re-enabled"])
    def test_a_hold_taken_at_an_unnamed_site_is_found_once_a_signature_names_it(self, way):
        """The engine notices the republished filter and indexes what predates it.

        The history is not empty before, so no empty -> non-empty transition helps.
        """
        held = stack(("held:1", "caller:5", "main:0"))
        wants = stack(("wants:2", "caller:6", "main:0"))
        signature = Signature([held, wants], matching_depth=2)
        history = History(path=None, autosave=False)
        history.add(Signature([stack(("a:1", "m:0")), stack(("b:2", "m:0"))]))
        if way == "re-enabled":
            history.add(signature)
            history.disable(signature.fingerprint)
        engine = make_engine(history)
        assert engine.request(1, 10, held) is GO_OUTCOME
        engine.acquired(1, 10, held)
        assert engine.cache.allowed_set_sizes() == {}

        if way == "added":
            history.add(signature)
        elif way == "installed-by-the-pool":
            hub = MemoryHub()
            pool = SignaturePool(history, hub.channel())
            hub.channel().publish(signature)
            assert pool.pump() == 1
        else:
            history.enable(signature.fingerprint)
        outcome = engine.request(2, 11, wants)
        assert outcome.is_yield and outcome.causes == ((1, 10, held),)
        assert engine.cache.allowed_set_sizes() == {held: 1}


class _CountingSites(frozenset):
    """Stands in for the index's published filter and counts the probes made of it."""

    probes = 0

    def __contains__(self, site):
        self.probes += 1
        return super().__contains__(site)


class TestTheCaptureAsksTheFilterOnce:
    """``runtime.capture_stack`` probes the filter; the engine and the cache reuse the verdict."""

    @staticmethod
    def _world():
        history = History(path=None, autosave=False)
        history.add(Signature([stack(("a:1", "m:0")), stack(("b:2", "m:0"))], matching_depth=2))
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing(), history=history)
        runtime = InstrumentationRuntime(dimmunix)
        return dimmunix, runtime, DimmunixLock(runtime=runtime)

    @staticmethod
    def _kinds(dimmunix):
        return [record[1] for record in dimmunix.engine.events.drain_raw()]

    def test_a_miss_path_acquisition_probes_the_filter_once(self):
        dimmunix, _runtime, lock = self._world()
        index = dimmunix.engine.index
        index.sites = _CountingSites(index.sites)
        lock.acquire()
        lock.release()
        # The capture's probe; the engine's and the cache's were the second and third.
        assert index.sites.probes == 1
        assert self._kinds(dimmunix) == [EV_ALLOW, EV_ACQUIRED, EV_RELEASE]
        assert dimmunix.engine.cache.allowed_set_sizes() == {}

    def test_a_named_site_is_walked_at_capture_and_never_scanned_for_liveness(self, monkeypatch):
        dimmunix, runtime, lock = self._world()
        engine, stats = dimmunix.engine, dimmunix.stats
        scans = []
        deep_frames = LazyCallStack._deep_frames
        monkeypatch.setattr(LazyCallStack, "_deep_frames",
                            lambda self, origin: scans.append(self) or deep_frames(self, origin))

        def name_this_site():
            held, = engine.cache.held_stacks(runtime.current_thread_id())
            assert isinstance(held, LazyCallStack)
            dimmunix.history.add(Signature([CallStack(held.frames), stack(("never:1", "m:0"))]))
            assert scans == [held] and len(held.frames) > 4

        def check_it_was_walked_in_place():
            held, = engine.cache.held_stacks(runtime.current_thread_id())
            assert type(held) is CallStack and engine.cache.allowed_set_sizes() == {held: 1}
            assert engine.index.candidates(held)

        for between in (name_this_site, check_it_was_walked_in_place):
            self._kinds(dimmunix)
            stats.reset()
            del scans[:]
            lock.acquire()  # one call instruction: both rounds share their call path
            between()
            lock.release()
        assert scans == []
        assert stats.capture_deferred == stats.capture_materialized == 1
        assert self._kinds(dimmunix) == [EV_REQUEST, EV_ALLOW, EV_ACQUIRED, EV_RELEASE]
        assert engine.cache.allowed_set_sizes() == {}


class TestShardedStats:
    def test_concurrent_bumps_sum_exactly(self):
        stats = EngineStats()
        threads, per_thread = 8, 5000

        def work():
            for _ in range(per_thread):
                stats.bump("requests")

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert stats.requests == threads * per_thread
        assert stats.snapshot()["requests"] == threads * per_thread

    def test_reset_zeroes_every_shard(self):
        stats = EngineStats()
        stats.bump("requests", 3)
        other = threading.Thread(target=lambda: stats.bump("releases", 2))
        other.start()
        other.join()
        stats.reset()
        assert stats.requests == 0
        assert stats.releases == 0

    def test_unknown_attribute_still_raises(self):
        stats = EngineStats()
        try:
            stats.no_such_counter
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestSimulatorRingPath:
    def test_sim_backend_emits_through_the_ring_bus(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        assert isinstance(backend.dimmunix.engine.events, EventBus)
        fork = backend.fork()
        assert isinstance(fork.dimmunix.engine.events, EventBus)
