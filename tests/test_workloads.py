"""Tests for the microbenchmark drivers and synthetic history generation."""

from __future__ import annotations

import pytest

from repro.core.callstack import CallStack
from repro.core.history import History
from repro.workloads import microbench
from repro.workloads.microbench import (MicrobenchConfig, PATH_DEPTH,
                                        call_through_path, capture_path_stack,
                                        random_path, run_simulated_microbench,
                                        run_threaded_microbench)
from repro.workloads.synth_history import (synthesize_history,
                                           synthesize_microbench_history)


class TestCallPaths:
    def test_call_through_path_reaches_leaf(self):
        marker = []
        call_through_path([0, 1, 2], lambda: marker.append(True))
        assert marker == [True]

    def test_random_path_length_and_range(self):
        import random
        path = random_path(random.Random(1))
        assert len(path) == PATH_DEPTH
        assert all(0 <= step < 4 for step in path)

    def test_different_paths_give_different_stacks(self):
        stack_a = capture_path_stack([0, 0, 1, 2])
        stack_b = capture_path_stack([0, 1, 0, 2])
        assert isinstance(stack_a, CallStack)
        assert stack_a != stack_b

    def test_same_path_gives_same_stack(self):
        assert capture_path_stack([1, 2, 3]) == capture_path_stack([1, 2, 3])


class TestThreadedMicrobench:
    def test_baseline_mode_runs(self):
        result = run_threaded_microbench(MicrobenchConfig(
            threads=2, locks=2, iterations=10, delta_out=0.0, mode="baseline"))
        assert result.lock_ops == 20
        assert result.throughput > 0
        assert result.stats == {}

    def test_full_mode_collects_stats(self):
        result = run_threaded_microbench(MicrobenchConfig(
            threads=2, locks=2, iterations=10, delta_out=0.0, mode="full"))
        assert result.lock_ops == 20
        assert result.stats["acquisitions"] == 20

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_threaded_microbench(MicrobenchConfig(threads=1, mode="bogus"))

    def test_history_is_matched(self):
        history = synthesize_microbench_history(count=8, matching_depth=1,
                                                simulated=False, seed=3)
        result = run_threaded_microbench(MicrobenchConfig(
            threads=4, locks=4, iterations=15, delta_out=0.0, mode="full",
            history=history, matching_depth=1))
        # With depth-1 signatures over the same site universe, at least some
        # requests should have been matched (GO or YIELD both count work).
        assert result.stats["requests"] == 60


class TestSimulatedMicrobench:
    def test_baseline_and_full_do_same_work(self):
        base = run_simulated_microbench(MicrobenchConfig(
            threads=8, locks=4, iterations=10, mode="baseline"))
        full = run_simulated_microbench(MicrobenchConfig(
            threads=8, locks=4, iterations=10, mode="full"))
        assert base.lock_ops == full.lock_ops == 80
        assert base.duration > 0

    def test_detection_only_mode(self):
        result = run_simulated_microbench(MicrobenchConfig(
            threads=4, locks=4, iterations=10, mode="detection_only"))
        assert result.lock_ops == 40
        assert result.yields == 0


#: Each mode's engine as ``(engine mode, detection_only)``; ``None``: no Dimmunix.
MODE_ENGINES = {
    "baseline": None,
    "full": ("full", False),
    "instrumentation_only": ("instrumentation_only", False),
    "updates_only": ("full", True),
    "detection_only": ("full", True),
}
DRIVERS = {"threaded": run_threaded_microbench, "simulated": run_simulated_microbench}


class TestModes:
    """Both drivers build the engine each mode names and refuse a misspelt one."""

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("mode", sorted(MODE_ENGINES))
    def test_each_mode_builds_its_engine(self, driver, mode, monkeypatch):
        built, construct = [], microbench.Dimmunix

        def spy(*args, **kwargs):
            dimmunix = construct(*args, **kwargs)
            built.append((dimmunix.engine.mode, dimmunix.config.detection_only))
            return dimmunix
        monkeypatch.setattr(microbench, "Dimmunix", spy)
        result = DRIVERS[driver](MicrobenchConfig(
            threads=2, locks=2, iterations=5, delta_out=0.0, mode=mode))
        assert result.lock_ops == 10
        assert built == ([] if MODE_ENGINES[mode] is None else [MODE_ENGINES[mode]])

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_a_misspelt_mode_is_refused(self, driver):
        with pytest.raises(ValueError, match="'ful'"):
            DRIVERS[driver](MicrobenchConfig(threads=2, locks=2, iterations=5,
                                             delta_out=0.0, mode="ful"))

    @pytest.mark.parametrize("mode", sorted(MODE_ENGINES))
    def test_only_full_avoidance_yields_on_the_simulator(self, mode):
        history = synthesize_microbench_history(count=64, size=2, matching_depth=2,
                                                simulated=True, seed=1)
        result = run_simulated_microbench(MicrobenchConfig(
            threads=8, locks=4, iterations=20, mode=mode, history=history,
            matching_depth=2))
        assert result.lock_ops == 160
        assert (result.yields > 0) == (mode == "full")
        # Neither no engine nor an instrumentation-only one answers a request.
        answered = mode not in ("baseline", "instrumentation_only")
        assert result.stats.get("requests", 0) == answered * (160 + result.yields)


class TestSyntheticHistory:
    def test_exact_count_and_dedup(self):
        stacks = [CallStack.from_labels([f"f{i}:0", "g:1"]) for i in range(32)]
        history = synthesize_history(stacks, count=16, size=2, seed=1)
        assert len(history) == 16
        fingerprints = {sig.fingerprint for sig in history}
        assert len(fingerprints) == 16

    def test_signature_size_respected(self):
        stacks = [CallStack.from_labels([f"f{i}:0"]) for i in range(8)]
        history = synthesize_history(stacks, count=4, size=3, seed=2)
        assert all(sig.size == 3 for sig in history)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            synthesize_history([], count=1)

    def test_merges_into_existing_history(self):
        stacks = [CallStack.from_labels([f"f{i}:0"]) for i in range(8)]
        existing = History()
        synthesize_history(stacks, count=3, history=existing, seed=3)
        assert len(existing) == 3

    def test_microbench_history_simulated_matches_sim_stacks(self):
        history = synthesize_microbench_history(count=8, simulated=True, seed=4)
        assert len(history) == 8
        sample = history.signatures()[0].stacks[0]
        assert sample.top().function == "lock_wrapper"

    def test_microbench_history_threaded_uses_real_frames(self):
        history = synthesize_microbench_history(count=4, simulated=False, seed=5)
        sample = history.signatures()[0].stacks[0]
        functions = {frame.function for frame in sample}
        assert functions & {"_chain_0", "_chain_1", "_chain_2", "_chain_3"}

    def test_seed_determinism(self):
        first = synthesize_microbench_history(count=6, simulated=True, seed=9)
        second = synthesize_microbench_history(count=6, simulated=True, seed=9)
        assert {s.fingerprint for s in first} == {s.fingerprint for s in second}
