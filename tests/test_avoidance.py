"""Unit tests for the avoidance engine (GO/YIELD decisions)."""

from __future__ import annotations

import pytest

from repro.core.avoidance import AvoidanceEngine, Decision, MODE_INSTRUMENTATION_ONLY
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.errors import AvoidanceError
from repro.core.events import EventType
from repro.core.history import History
from repro.core.signature import Signature


def stack(*labels):
    return CallStack.from_labels(list(labels))


#: Stacks of the paper's section 4 example: update(A, B) vs update(B, A).
S1 = stack("lock:4", "update:1", "main:0")   # called update() from s1
S2 = stack("lock:4", "update:2", "main:0")   # called update() from s2


def paper_signature() -> Signature:
    """A fresh copy of the section 4 signature (signatures carry mutable counters)."""
    return Signature([stack("lock:4", "update:1"), stack("lock:4", "update:2")],
                     matching_depth=2)


#: Immutable reference copy used only for equality assertions.
PAPER_SIGNATURE = paper_signature()


@pytest.fixture
def engine():
    history = History(path=None, autosave=False)
    return AvoidanceEngine(history, DimmunixConfig.for_testing())


@pytest.fixture
def immune_engine():
    history = History(path=None, autosave=False)
    history.add(paper_signature())
    return AvoidanceEngine(history, DimmunixConfig.for_testing())


class TestEmptyHistory:
    def test_requests_are_granted(self, engine):
        outcome = engine.request(1, 10, S1)
        assert outcome.decision is Decision.GO

    def test_acquire_release_cycle(self, engine):
        engine.request(1, 10, S1)
        engine.acquired(1, 10, S1)
        assert engine.cache.holder_of(10) == 1
        woken = engine.release(1, 10)
        assert woken == []
        assert engine.cache.holder_of(10) is None

    def test_release_without_hold_raises(self, engine):
        with pytest.raises(AvoidanceError):
            engine.release(1, 10)

    def test_events_are_emitted_in_order(self, engine):
        # No REQUEST event on the granted fast path: the ALLOW that the
        # grant publishes supersedes it in the RAG, so the engine skips
        # the redundant emit (and the monitor the redundant apply).
        engine.request(1, 10, S1)
        engine.acquired(1, 10, S1)
        engine.release(1, 10)
        types = [event.type for event in engine.events.drain()]
        assert types == [EventType.ALLOW, EventType.ACQUIRED,
                         EventType.RELEASE]

    def test_stats_counters(self, engine):
        engine.request(1, 10, S1)
        engine.acquired(1, 10, S1)
        engine.release(1, 10)
        snap = engine.stats.snapshot()
        assert snap["requests"] == 1
        assert snap["go_decisions"] == 1
        assert snap["acquisitions"] == 1
        assert snap["releases"] == 1


class TestSignatureAvoidance:
    def test_paper_example_yields_second_thread(self, immune_engine):
        engine = immune_engine
        # Thread 1 takes B via the s2 path.
        assert engine.request(1, 2, S2).is_go
        engine.acquired(1, 2, S2)
        # Thread 2 now attempts A via the s1 path: this would instantiate
        # the signature, so it must yield.
        outcome = engine.request(2, 1, S1)
        assert outcome.is_yield
        assert outcome.signature == PAPER_SIGNATURE
        assert outcome.causes and outcome.causes[0][0] == 1

    def test_non_dangerous_path_is_not_serialized(self, immune_engine):
        engine = immune_engine
        # Both threads take the same path (s1): the pattern {S1, S1} is not
        # in the history, so no yield happens (finer grain than gate locks).
        assert engine.request(1, 1, S1).is_go
        engine.acquired(1, 1, S1)
        assert engine.request(2, 2, S1).is_go

    def test_yield_then_release_wakes_and_allows(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        assert engine.request(2, 1, S1).is_yield
        assert engine.yielding_threads() == [2]
        woken = engine.release(1, 2)
        assert woken == [2]
        # After the cause dissolved, the retry is granted.
        assert engine.request(2, 1, S1).is_go

    def test_same_thread_does_not_match_itself(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        # The same thread asking for the other lock is not a deadlock risk.
        assert engine.request(1, 1, S1).is_go

    def test_distinct_locks_required(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        # Thread 2 requests the very same lock: instance needs distinct locks.
        assert engine.request(2, 2, S1).is_go

    def test_disabled_signature_is_ignored(self, immune_engine):
        engine = immune_engine
        engine.history.disable(PAPER_SIGNATURE.fingerprint)
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        assert engine.request(2, 1, S1).is_go

    def test_avoidance_counter_increments(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        engine.request(2, 1, S1)
        stored = engine.history.get(PAPER_SIGNATURE.fingerprint)
        assert stored.avoidance_count == 1

    def test_matching_respects_depth(self):
        history = History(path=None, autosave=False)
        shallow = Signature([stack("lock:4"), stack("lock:4")], matching_depth=1)
        history.add(shallow)
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        engine.request(1, 2, stack("lock:4", "other:9"))
        engine.acquired(1, 2, stack("lock:4", "other:9"))
        # Depth 1 matches any path ending in lock:4 -> yields.
        assert engine.request(2, 1, stack("lock:4", "different:3")).is_yield


class TestYieldManagement:
    def test_abort_yield_forces_next_go(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        assert engine.request(2, 1, S1).is_yield
        signature = engine.abort_yield(2)
        assert signature == PAPER_SIGNATURE
        assert signature.abort_count == 1
        assert engine.request(2, 1, S1).is_go

    def test_abort_auto_disables_after_threshold(self):
        history = History(path=None, autosave=False)
        history.add(paper_signature())
        config = DimmunixConfig.for_testing(auto_disable_abort_threshold=2)
        engine = AvoidanceEngine(history, config)
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        for _ in range(2):
            assert engine.request(2, 1, S1).is_yield
            engine.abort_yield(2)
            # After the abort the thread proceeds: forced GO, acquire, release.
            assert engine.request(2, 1, S1).is_go
            engine.acquired(2, 1, S1)
            engine.release(2, 1)
        stored = history.get(PAPER_SIGNATURE.fingerprint)
        assert stored.disabled

    def test_force_go(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        engine.request(2, 1, S1)
        engine.force_go(2)
        assert engine.request(2, 1, S1).is_go

    def test_last_avoided_signature(self, immune_engine):
        engine = immune_engine
        assert engine.last_avoided_signature() is None
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        engine.request(2, 1, S1)
        assert engine.last_avoided_signature() == PAPER_SIGNATURE


class TestBypasses:
    def test_detection_only_never_yields(self):
        history = History(path=None, autosave=False)
        history.add(paper_signature())
        engine = AvoidanceEngine(history,
                                 DimmunixConfig.for_testing(detection_only=True))
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        assert engine.request(2, 1, S1).is_go

    def test_reentrant_request_bypasses_matching(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        engine.request(2, 1, S1)  # thread 2 yields
        # Thread 1 re-acquiring lock 2 reentrantly is always allowed.
        assert engine.request(1, 2, S1).is_go

    def test_external_synchronization_bypass(self):
        history = History(path=None, autosave=False)
        history.add(paper_signature())
        config = DimmunixConfig.for_testing(
            external_synchronization=("lock",))
        engine = AvoidanceEngine(history, config)
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        assert engine.request(2, 1, S1).is_go

    def test_updates_only_mode_never_matches(self):
        history = History(path=None, autosave=False)
        history.add(paper_signature())
        # Figure 8's "updates only" stage: no matching, every structure kept.
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing(detection_only=True))
        engine.request(1, 2, S2)
        engine.acquired(1, 2, S2)
        assert engine.request(2, 1, S1).is_go
        assert engine.cache.holder_of(2) == 1
        assert len(engine.events) > 0  # the monitor still hears of everything

    def test_instrumentation_only_mode_does_nothing(self):
        history = History(path=None, autosave=False)
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing(),
                                 mode=MODE_INSTRUMENTATION_ONLY)
        assert engine.request(1, 2, S2).is_go
        engine.acquired(1, 2, S2)
        assert engine.cache.holder_of(2) is None
        assert len(engine.events) == 0


class TestCancel:
    def test_cancel_removes_allow_edge(self, engine):
        engine.request(1, 10, S1)
        engine.cancel(1, 10)
        assert engine.cache.waiting_of(1) is None

    def test_cancelled_waiter_no_longer_matches(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)   # allowed to wait (not yet acquired)
        engine.cancel(1, 2)        # trylock gave up
        # Without the allow edge there is no instance, so thread 2 gets GO.
        assert engine.request(2, 1, S1).is_go

    def test_allow_edge_alone_can_instantiate(self, immune_engine):
        engine = immune_engine
        engine.request(1, 2, S2)   # thread 1 allowed to wait for lock 2
        # Even before thread 1 acquires, the commitment counts (allow edge).
        assert engine.request(2, 1, S1).is_yield


class TestExploredImmunity:
    """The section 4 scenario checked over *all* bounded interleavings.

    The unit tests above pin the engine's GO/YIELD decisions on
    hand-picked event orders; these close the loop by quantifying over
    the schedule space of the full simulated scenario: without avoidance
    the deadlock manifests in some interleaving, and with the paper
    signature in the history it manifests in none.
    """

    def _scenario(self, backend):
        from repro.sim import build_two_lock_inversion
        return build_two_lock_inversion(backend)

    def test_paper_deadlock_manifests_without_avoidance(self):
        from repro.sim import Explorer, NullBackend
        result = Explorer(lambda: self._scenario(NullBackend()),
                          name="paper-section4").explore()
        assert result.exhausted
        assert result.deadlock_count >= 1
        assert result.completed >= 1

    def test_paper_signature_immunizes_every_interleaving(self):
        from repro.sim import DimmunixBackend, Explorer

        # Learn the signature once (any deadlocking run archives it) ...
        learner = DimmunixBackend(config=DimmunixConfig.for_testing())
        self._scenario(learner).run()
        if len(learner.history) == 0:
            # The sampled schedule dodged the deadlock; force one via DFS.
            explorer = Explorer(lambda: self._scenario(
                DimmunixBackend(config=DimmunixConfig.for_testing(),
                                history=learner.history)))
            explorer.explore(stop_on_first_deadlock=True)
        assert len(learner.history) >= 1

        # ... then no bounded interleaving re-manifests it.
        prototype = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                    history=learner.history)
        immune = Explorer(lambda: self._scenario(prototype.fork()),
                          name="paper-section4-immune").explore()
        assert immune.exhausted
        assert immune.deadlock_count == 0
        assert immune.completed == immune.runs

    def test_disabled_signature_restores_vulnerability_in_exploration(self):
        from repro.sim import DimmunixBackend, Explorer
        learner = DimmunixBackend(config=DimmunixConfig.for_testing())
        Explorer(lambda: self._scenario(
            DimmunixBackend(config=DimmunixConfig.for_testing(),
                            history=learner.history))).explore(
                                stop_on_first_deadlock=True)
        assert len(learner.history) >= 1
        for signature in learner.history.signatures():
            learner.history.disable(signature.fingerprint)
        prototype = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                    history=learner.history)
        result = Explorer(lambda: self._scenario(prototype.fork())).explore()
        assert result.deadlock_count >= 1


class TestThreeThreadSignature:
    def test_three_stack_signature_requires_three_bindings(self):
        sig = Signature([stack("a:1"), stack("b:2"), stack("c:3")], matching_depth=1)
        history = History(path=None, autosave=False)
        history.add(sig)
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        engine.request(1, 101, stack("a:1", "x:0"))
        engine.acquired(1, 101, stack("a:1", "x:0"))
        # Only one of the other two stacks is present: no instance yet.
        assert engine.request(2, 102, stack("b:2", "y:0")).is_go
        engine.acquired(2, 102, stack("b:2", "y:0"))
        # Now the third binding would complete the cover -> yield.
        assert engine.request(3, 103, stack("c:3", "z:0")).is_yield
