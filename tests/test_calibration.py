"""Unit tests for matching-depth calibration and the FP heuristic.

The calibrator reads the records the monitor drains, each just before the
RAG applies it; the lifecycle tests feed it encoded records the same way.
"""

from __future__ import annotations

import pytest

from repro.core.avoidance import TAKEN_OUTCOME
from repro.core.calibration import Calibrator, LockOp, find_lock_inversion
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_ACQUIRED, EV_RELEASE, EV_YIELD
from repro.core.history import History
from repro.core.rag import ResourceAllocationGraph
from repro.core.sigindex import SignatureIndex
from repro.core.signature import EXCLUSIVE, Signature
from repro.instrument import DimmunixLock, InstrumentationRuntime


def stack(*labels):
    return CallStack.from_labels(list(labels))


REQUEST = ("a:1", "b:2", "c:3")
CAUSE = ("a:4", "b:5", "c:6")


def make_signature(depth=1, request=REQUEST, cause=CAUSE):
    return Signature([stack(*request), stack(*cause)], matching_depth=depth)


def reaching(labels, depth):
    """A runtime stack that matches ``labels`` at ``depth`` and no deeper."""
    return stack(*labels) if depth >= len(labels) else stack(*labels[:depth], "zz:0")


class Feed:
    """A calibrator over its own history, fed encoded records as the monitor feeds it."""

    def __init__(self, *signatures, **overrides):
        self.history = History(path=None, autosave=False)
        for signature in signatures:
            self.history.add(signature)
        config = DimmunixConfig.for_testing(calibration_enabled=True,
                                            calibration_na=2, calibration_nt=10,
                                            matching_depth=1, max_stack_depth=3,
                                            **overrides)
        self.index = SignatureIndex(self.history)
        self.calibrator = Calibrator(self.history, self.index, config)
        self.rag = ResourceAllocationGraph()
        self.seq = 0

    def record(self, code, thread_id, lock_id, stack=None, causes=()):
        self.seq += 1
        record = (self.seq, code, thread_id, lock_id, stack, tuple(causes), 0.0, EXCLUSIVE, 1)
        self.calibrator.observe(record, self.rag)
        self.rag.apply_encoded((record,))

    def yielded(self, depth=3, thread_id=1, lock_id=10, cause_lock=20,
                request=REQUEST, cause=CAUSE):
        """Thread 1 yields on lock 10, caused by thread 2's binding at lock 20."""
        self.record(EV_YIELD, thread_id, lock_id, reaching(request, depth),
                    [(2, cause_lock, reaching(cause, depth))])

    def acquired(self, thread_id, lock_id):
        self.record(EV_ACQUIRED, thread_id, lock_id, stack("x:1", "m:0"))

    def released(self, thread_id, lock_id):
        self.record(EV_RELEASE, thread_id, lock_id)

    def resume(self):
        """The yielded thread takes its lock and lets it go: the episode closes."""
        self.acquired(1, 10)
        self.released(1, 10)

    def inversion_then_resume(self):
        """Thread 2 takes 10 inside 20, then thread 1 takes 20 inside 10: a lock inversion."""
        self.acquired(2, 20)
        self.acquired(2, 10)
        self.released(2, 10)
        self.released(2, 20)
        self.acquired(1, 10)
        self.acquired(1, 20)
        self.released(1, 20)
        self.released(1, 10)


class TestLockInversionHeuristic:
    def test_detects_inversion(self):
        ops = [
            LockOp(thread_id=1, lock_id=100, held_before=()),
            LockOp(thread_id=1, lock_id=200, held_before=(100,)),
            LockOp(thread_id=2, lock_id=200, held_before=()),
            LockOp(thread_id=2, lock_id=100, held_before=(200,)),
        ]
        assert find_lock_inversion(ops) is not None

    def test_no_inversion_same_order(self):
        ops = [
            LockOp(thread_id=1, lock_id=200, held_before=(100,)),
            LockOp(thread_id=2, lock_id=200, held_before=(100,)),
        ]
        assert find_lock_inversion(ops) is None

    def test_single_thread_never_inverts(self):
        ops = [
            LockOp(thread_id=1, lock_id=200, held_before=(100,)),
            LockOp(thread_id=1, lock_id=100, held_before=(200,)),
        ]
        assert find_lock_inversion(ops) is None

    def test_empty_log(self):
        assert find_lock_inversion([]) is None


class TestCalibratorLifecycle:
    def test_disabled_calibration_is_noop(self):
        """With calibration off no calibrator exists: the monitor pass keeps the depth."""
        config = DimmunixConfig.for_testing(calibration_enabled=False)
        signature = Signature([stack("lock:1", "f:1", "main:0"), stack("lock:2", "g:1", "main:0")],
                              matching_depth=3)
        history = History()
        history.add(signature)
        dimmunix = Dimmunix(config, history=history)
        engine = dimmunix.engine
        engine.request(1, 10, signature.stacks[1])
        engine.acquired(1, 10, signature.stacks[1])
        assert engine.request(2, 11, signature.stacks[0]).is_yield
        dimmunix.process_now()
        assert dimmunix.calibrator is None and dimmunix.monitor.calibrator is None
        assert signature.matching_depth == 3

    def test_new_signature_starts_at_depth_one(self):
        signature = make_signature(depth=3)
        feed = Feed(signature)
        feed.yielded()
        assert signature.matching_depth == 1

    def test_false_positive_recorded_when_no_inversion(self):
        signature = make_signature()
        feed = Feed(signature)
        feed.yielded(depth=1)
        # The yielded thread resumes, acquires, then releases: episode closes.
        feed.resume()
        assert feed.calibrator.state_of(signature)["judged"] == 1
        assert feed.calibrator.false_positive_rate(signature) == 1.0  # was a false positive
        assert feed.calibrator.stats.false_positives == 1

    def test_true_positive_when_inversion_seen(self):
        signature = make_signature()
        feed = Feed(signature)
        feed.yielded(depth=1)
        feed.inversion_then_resume()
        assert feed.calibrator.state_of(signature)["judged"] == 1
        assert feed.calibrator.false_positive_rate(signature) == 0.0
        assert feed.calibrator.stats.true_positives == 1

    def test_held_locks_are_read_from_the_graph(self):
        """A hold taken before the episode opened still counts as held."""
        feed = Feed(make_signature())
        feed.acquired(2, 30)
        feed.yielded(depth=1)
        episode = feed.calibrator._episodes[0]
        feed.acquired(2, 31)
        feed.acquired(3, 32)  # a bystander
        assert [(op.thread_id, op.lock_id, op.held_before) for op in episode.ops] \
            == [(2, 31, (30,))]

    def test_depth_advances_after_na_avoidances(self):
        signature = make_signature()
        feed = Feed(signature)
        for _ in range(2):  # NA = 2 avoidances at depth 1
            feed.yielded(depth=1)
            feed.resume()
        assert signature.matching_depth == 2

    def test_calibration_completes_and_selects_lowest_fp_depth(self):
        signature = make_signature()
        feed = Feed(signature)
        # Depth 1 and 2: false positives; depth 3: true positives.
        for _round in range(6):
            depth = signature.matching_depth
            feed.yielded(depth=depth)
            if depth < 3:
                feed.resume()
            else:
                feed.inversion_then_resume()
        state = feed.calibrator.state_of(signature)
        assert state["completed"]
        # Depth 3 had the lowest FP rate, so it must have been selected.
        assert signature.matching_depth == 3

    def test_deeper_depths_charged_for_fp(self):
        signature = make_signature()
        feed = Feed(signature)
        feed.yielded(depth=3)
        feed.resume()
        state = feed.calibrator.state_of(signature)
        assert state["fps_at_depth"] == {1: 1, 2: 1, 3: 1}

    def test_only_the_depths_the_yields_own_instance_reaches_are_charged(self):
        signature = make_signature()
        feed = Feed(signature)
        feed.yielded(depth=2)
        feed.resume()
        state = feed.calibrator.state_of(signature)
        assert state["avoidances_at_depth"] == {1: 1, 2: 1}
        assert state["fps_at_depth"] == {1: 1, 2: 1}

    def test_a_yield_on_no_signature_at_its_depth_opens_no_episode(self):
        """Decided at a depth calibration has since deepened: not counted."""
        signature = make_signature()
        feed = Feed(signature)
        feed.yielded(depth=1)
        feed.resume()
        feed.history.set_depth(signature.fingerprint, 3)
        feed.yielded(depth=1)
        assert feed.calibrator.open_episodes() == 0
        assert feed.calibrator.state_of(signature)["avoidances_at_depth"] == {1: 1}

    def test_episode_closes_at_window_limit(self):
        feed = Feed(make_signature(), fp_window=3)
        feed.yielded(depth=1)
        for lock_id in (30, 31, 32):
            feed.acquired(2, lock_id)
        assert feed.calibrator.open_episodes() == 0

    def test_recalibrate_all_resets_depth(self):
        signature = make_signature(depth=3)
        feed = Feed(signature)
        feed.yielded()
        feed.history.set_depth(signature.fingerprint, 3)
        feed.calibrator.recalibrate_all([signature])
        assert signature.matching_depth == 1
        assert not feed.calibrator.state_of(signature)["completed"]

    def test_false_positive_rate(self):
        signature = make_signature()
        feed = Feed(signature)
        assert feed.calibrator.false_positive_rate(signature) is None
        feed.yielded(depth=1)
        feed.resume()
        assert feed.calibrator.false_positive_rate(signature) == 1.0

    def test_state_stays_bounded_by_the_signatures(self):
        """Verdicts are counted per signature: nothing grows with the yields."""
        stories = [(REQUEST, CAUSE), (("p:1", "q:2", "r:3"), ("p:4", "q:5", "r:6"))]
        signatures = [make_signature(request=request, cause=cause) for request, cause in stories]
        feed = Feed(*signatures)
        judged = {signature: [] for signature in signatures}
        for round_index in range(300):
            signature, (request, cause) = signatures[round_index % 2], stories[round_index % 2]
            feed.yielded(request=request, cause=cause)
            true_positive = round_index % 3 == 0
            if true_positive:
                feed.inversion_then_resume()
            else:
                feed.resume()
            judged[signature].append(not true_positive)
        calibrator = feed.calibrator
        assert len(calibrator._states) == 2 and calibrator._episodes == []
        assert not hasattr(calibrator, "verdicts")
        for signature, verdicts in judged.items():
            assert calibrator.state_of(signature)["judged"] == len(verdicts) == 150
            assert calibrator.false_positive_rate(signature) \
                == pytest.approx(sum(verdicts) / len(verdicts))


def calibrating_world(signature=None, **overrides):
    config = DimmunixConfig.for_testing(**{**dict(
        calibration_enabled=True, calibration_na=2, matching_depth=1, max_stack_depth=3),
        **overrides})
    history = History()
    signature = signature or Signature([stack("lock:1", "f:1"), stack("lock:2", "g:1")],
                                       matching_depth=2)
    history.add(signature)
    return Dimmunix(config, history=history), signature


class TestCalibrationWithEngine:
    def test_the_monitor_pass_reports_avoidances_to_calibrator(self):
        dimmunix, _signature = calibrating_world()
        engine = dimmunix.engine
        # Calibration resets the depth to 1 on first contact; drive a yield.
        engine.request(1, 10, stack("lock:2", "g:1", "main:0"))
        engine.acquired(1, 10, stack("lock:2", "g:1", "main:0"))
        outcome = engine.request(2, 11, stack("lock:1", "f:1", "main:0"))
        assert outcome.is_yield
        assert dimmunix.calibrator.open_episodes() == 0  # not the engine: the monitor reports
        dimmunix.process_now()
        assert dimmunix.calibrator.open_episodes() == 1

    def test_a_yield_runs_one_cover_search_with_calibration_on(self, monkeypatch):
        """The deeper depths are a pure check of the YIELD's instance, not cover searches."""
        held = stack("lock:2", "g:1", "h:1", "main:0")
        wants = stack("lock:1", "f:1", "h:2", "main:0")
        dimmunix, signature = calibrating_world(Signature([held, wants], matching_depth=4),
                                                max_stack_depth=10)
        engine = dimmunix.engine
        engine.request(1, 10, held)
        engine.acquired(1, 10, held)
        depths, find_instance = [], engine._find_instance
        monkeypatch.setattr(engine, "_find_instance",
                            lambda *args: depths.append(args[-1]) or find_instance(*args))
        assert engine.request(2, 11, wants).is_yield
        dimmunix.process_now()
        assert depths == [4]
        assert dimmunix.calibrator.state_of(signature)["avoidances_at_depth"] \
            == {depth: 1 for depth in range(1, 11)}

    def test_an_open_episode_still_sees_every_acquisition_and_release(self):
        """The monitor hands the calibrator every record while an episode is open."""
        dimmunix, signature = calibrating_world()
        engine, calibrator = dimmunix.engine, dimmunix.calibrator
        held, wants = stack("lock:2", "g:1", "main:0"), stack("lock:1", "f:1", "main:0")
        other = stack("other:9", "main:0")
        engine.request(1, 10, held)
        engine.acquired(1, 10, held)
        dimmunix.process_now()
        assert calibrator.open_episodes() == 0  # nothing was avoided yet: nothing to log
        assert engine.request(2, 11, wants).is_yield
        dimmunix.process_now()
        assert calibrator.open_episodes() == 1
        episode = calibrator._episodes[0]

        engine.request(1, 12, other)  # a participant, while it holds lock 10
        engine.acquired(1, 12, other)
        engine.request(3, 13, other)  # a bystander
        engine.acquired(3, 13, other)
        dimmunix.process_now()
        assert [(op.thread_id, op.lock_id, op.held_before) for op in episode.ops] \
            == [(1, 12, (10,))]
        engine.release(1, 12)
        engine.release(1, 10)
        assert engine.request(2, 11, wants).is_go
        engine.acquired(2, 11, wants)
        dimmunix.process_now()
        assert episode.yielded_thread_resumed and not episode.closed
        engine.release(2, 11)  # the yielded thread's critical section is over
        dimmunix.process_now()
        assert episode.closed and calibrator.open_episodes() == 0
        assert episode.depths[0] == 1
        state = calibrator.state_of(signature)
        assert state["judged"] == 1 and calibrator.false_positive_rate(signature) == 1.0
        assert state["fps_at_depth"] == {1: 1, 2: 1}

    def test_an_uncontended_acquisition_taken_by_its_request_is_still_logged(self, monkeypatch):
        """An open episode does not keep a request from taking: the monitor sees its records."""
        dimmunix, _signature = calibrating_world()
        engine, runtime = dimmunix.engine, InstrumentationRuntime(dimmunix)
        tid = runtime.current_thread_id()
        held, wants = stack("lock:2", "g:1", "main:0"), stack("lock:1", "f:1", "main:0")
        engine.request(tid, 10, held)
        engine.acquired(tid, 10, held)
        assert engine.request(2, 11, wants).is_yield
        dimmunix.process_now()
        episode, = dimmunix.calibrator._episodes
        # The first-contact depth change republished the filter: hand it to the cache.
        assert engine.request(3, 99, stack("syncer:1", "m:0")).is_go
        engine.cancel(3, 99)
        outcomes, request = [], engine.request
        monkeypatch.setattr(engine, "request",
                            lambda *args: outcomes.append(request(*args)) or outcomes[-1])
        lock = DimmunixLock(runtime=runtime)
        lock.acquire()
        lock.release()
        dimmunix.process_now()
        assert outcomes == [TAKEN_OUTCOME] and outcomes[0] is TAKEN_OUTCOME
        assert [(op.thread_id, op.held_before) for op in episode.ops] == [(tid, (10,))]

    def test_with_calibration_off_the_monitor_applies_each_drain_in_one_batch(self, monkeypatch):
        dimmunix = Dimmunix(DimmunixConfig.for_testing())
        batches, apply_encoded = [], dimmunix.monitor.rag.apply_encoded
        monkeypatch.setattr(dimmunix.monitor.rag, "apply_encoded",
                            lambda records: batches.append(len(records)) or apply_encoded(records))
        for lock_id in (10, 11):
            dimmunix.engine.request(1, lock_id, stack("here:1", "m:0"))
            dimmunix.engine.acquired(1, lock_id, stack("here:1", "m:0"))
        dimmunix.process_now()
        assert batches == [4]
