"""Unit tests for matching-depth calibration and the FP heuristic."""

from __future__ import annotations


from repro.core.calibration import Calibrator, LockOp, find_lock_inversion
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.signature import Signature


def stack(*labels):
    return CallStack.from_labels(list(labels))


def make_signature(depth=1):
    return Signature([stack("a:1", "b:2", "c:3"), stack("a:4", "b:5", "c:6")],
                     matching_depth=depth)


def make_calibrator(**overrides):
    config = DimmunixConfig.for_testing(calibration_enabled=True,
                                        calibration_na=2, calibration_nt=10,
                                        matching_depth=1, max_stack_depth=3,
                                        **overrides)
    return Calibrator(config)


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
        calibrator = Calibrator(DimmunixConfig.for_testing(calibration_enabled=False))
        signature = make_signature(depth=4)
        assert calibrator.on_avoidance(signature, 1, 10, stack("a:1"), [], []) is None
        assert signature.matching_depth == 4

    def test_new_signature_starts_at_depth_one(self):
        calibrator = make_calibrator()
        signature = make_signature(depth=3)
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"), [], [1, 2, 3])
        assert signature.matching_depth == 1

    def test_false_positive_recorded_when_no_inversion(self):
        calibrator = make_calibrator()
        signature = make_signature()
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"),
                                [(2, 20, stack("a:4"))], [1])
        # The yielded thread resumes, acquires, then releases: episode closes.
        calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
        calibrator.on_lock_released(1, 10)
        assert calibrator.verdicts[-1][2] is True  # was a false positive
        assert calibrator.stats.false_positives == 1

    def test_true_positive_when_inversion_seen(self):
        calibrator = make_calibrator()
        signature = make_signature()
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"),
                                [(2, 20, stack("a:4"))], [1])
        # Thread 2 acquires 10 while holding 20; thread 1 acquires 20 while
        # holding 10: a lock inversion, so the avoidance was justified.
        calibrator.on_lock_acquired(2, 10, (20,), stack("x:1"))
        calibrator.on_lock_acquired(1, 20, (10,), stack("y:1"))
        calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
        calibrator.on_lock_released(1, 10)
        assert calibrator.verdicts[-1][2] is False
        assert calibrator.stats.true_positives == 1

    def test_depth_advances_after_na_avoidances(self):
        calibrator = make_calibrator()
        signature = make_signature()
        for _ in range(2):  # NA = 2 avoidances at depth 1
            calibrator.on_avoidance(signature, 1, 10, stack("a:1"), [], [1])
            calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
            calibrator.on_lock_released(1, 10)
        assert signature.matching_depth == 2

    def test_calibration_completes_and_selects_lowest_fp_depth(self):
        calibrator = make_calibrator()
        signature = make_signature()
        # Depth 1 and 2: false positives; depth 3: true positives.
        for round_index in range(6):
            depth = signature.matching_depth
            calibrator.on_avoidance(signature, 1, 10, stack("a:1"),
                                    [(2, 20, stack("a:4"))], [depth])
            if depth < 3:
                calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
            else:
                calibrator.on_lock_acquired(2, 10, (20,), stack("x:1"))
                calibrator.on_lock_acquired(1, 20, (10,), stack("y:1"))
                calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
            calibrator.on_lock_released(1, 10)
        state = calibrator.state_of(signature)
        assert state["completed"]
        # Depth 3 had the lowest FP rate, so it must have been selected.
        assert signature.matching_depth == 3

    def test_deeper_depths_charged_for_fp(self):
        calibrator = make_calibrator()
        signature = make_signature()
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"), [], [1, 2, 3])
        calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
        calibrator.on_lock_released(1, 10)
        state = calibrator.state_of(signature)
        assert state["fps_at_depth"] == {1: 1, 2: 1, 3: 1}

    def test_episode_closes_at_window_limit(self):
        calibrator = make_calibrator(fp_window=3)
        signature = make_signature()
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"),
                                [(2, 20, stack("a:4"))], [1])
        for _ in range(3):
            calibrator.on_lock_acquired(2, 30, (), stack("z:1"))
        assert calibrator.open_episodes() == 0

    def test_recalibrate_all_resets_depth(self):
        calibrator = make_calibrator()
        signature = make_signature(depth=3)
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"), [], [])
        calibrator.recalibrate_all([signature])
        assert signature.matching_depth == 1
        assert not calibrator.state_of(signature)["completed"]

    def test_false_positive_rate(self):
        calibrator = make_calibrator()
        signature = make_signature()
        assert calibrator.false_positive_rate(signature) is None
        calibrator.on_avoidance(signature, 1, 10, stack("a:1"), [], [1])
        calibrator.on_lock_acquired(1, 10, (), stack("a:1"))
        calibrator.on_lock_released(1, 10)
        assert calibrator.false_positive_rate(signature) == 1.0


class TestCalibrationWithEngine:
    def test_engine_reports_avoidances_to_calibrator(self):
        from repro.core.avoidance import AvoidanceEngine
        from repro.core.history import History

        config = DimmunixConfig.for_testing(calibration_enabled=True,
                                            calibration_na=2, matching_depth=1,
                                            max_stack_depth=3)
        history = History()
        signature = Signature([stack("lock:1", "f:1"), stack("lock:2", "g:1")],
                              matching_depth=2)
        history.add(signature)
        calibrator = Calibrator(config)
        engine = AvoidanceEngine(history, config, calibrator=calibrator)
        # Calibration resets the depth to 1 on first contact; drive a yield.
        engine.request(1, 10, stack("lock:2", "g:1", "main:0"))
        engine.acquired(1, 10, stack("lock:2", "g:1", "main:0"))
        outcome = engine.request(2, 11, stack("lock:1", "f:1", "main:0"))
        assert outcome.is_yield
        assert calibrator.open_episodes() == 1

    def test_an_open_episode_still_sees_every_acquisition_and_release(self):
        """The engine consults the calibrator only while it is ``watching()``: then, always."""
        from repro.core.avoidance import AvoidanceEngine
        from repro.core.history import History

        config = DimmunixConfig.for_testing(calibration_enabled=True,
                                            calibration_na=2, matching_depth=1,
                                            max_stack_depth=3)
        history = History()
        signature = Signature([stack("lock:1", "f:1"), stack("lock:2", "g:1")],
                              matching_depth=2)
        history.add(signature)
        calibrator = Calibrator(config)
        engine = AvoidanceEngine(history, config, calibrator=calibrator)
        held, wants = stack("lock:2", "g:1", "main:0"), stack("lock:1", "f:1", "main:0")
        other = stack("other:9", "main:0")
        engine.request(1, 10, held)
        engine.acquired(1, 10, held)
        assert not calibrator.watching()  # nothing was avoided yet: nothing to log
        assert engine.request(2, 11, wants).is_yield
        assert calibrator.watching()
        episode = calibrator._episodes[0]

        engine.request(1, 12, other)  # a participant, while it holds lock 10
        engine.acquired(1, 12, other)
        engine.request(3, 13, other)  # a bystander
        engine.acquired(3, 13, other)
        assert [(op.thread_id, op.lock_id, op.held_before) for op in episode.ops] \
            == [(1, 12, (10,))]
        engine.release(1, 12)
        engine.release(1, 10)
        assert engine.request(2, 11, wants).is_go
        engine.acquired(2, 11, wants)
        assert episode.yielded_thread_resumed and not episode.closed
        engine.release(2, 11)  # the yielded thread's critical section is over
        assert episode.closed and not calibrator.watching()
        assert calibrator.verdicts == [(signature.fingerprint, 1, True)]
