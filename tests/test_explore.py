"""Tests for the schedule-exploration engine (policies, DFS, replay, shrink)."""

from __future__ import annotations

import json

import pytest

from repro.core.config import DimmunixConfig
from repro.core.errors import ReplayDivergenceError, SimulationError
from repro.sim import (Acquire, DimmunixBackend, Explorer, FirstReadyPolicy,
                       ImmunityChecker, NullBackend, RandomPolicy, Release,
                       ReplayPolicy, ScheduleTrace, SimScheduler,
                       build_philosophers, build_two_lock_inversion, call_site)


def counter_scenario(backend=None, threads=3):
    """Threads appending to a shared list: every interleaving is visible."""
    scheduler = SimScheduler(backend=backend or NullBackend())
    lock = scheduler.new_lock("L")
    order = []

    def program(tag):
        def body():
            yield Acquire(lock, call_site(f"append:{tag}"))
            order.append(tag)
            yield Release(lock)
        return body

    for index in range(threads):
        scheduler.add_thread(program(index), name=f"writer-{index}")
    scheduler.order = order
    return scheduler


class TestSchedulePolicies:
    def test_default_policy_is_seeded_random(self):
        scheduler = SimScheduler(seed=3)
        assert isinstance(scheduler.policy, RandomPolicy)
        assert scheduler.policy.seed == 3

    def test_first_ready_policy_is_deterministic(self):
        outcomes = []
        for _ in range(3):
            scheduler = counter_scenario()
            scheduler.policy = FirstReadyPolicy()
            scheduler.run()
            outcomes.append(list(scheduler.order))
        assert outcomes[0] == outcomes[1] == outcomes[2] == [0, 1, 2]

    def test_schedule_recorded_in_result(self):
        scheduler = counter_scenario()
        scheduler.policy = FirstReadyPolicy()
        result = scheduler.run()
        assert result.schedule, "choice points must be recorded"
        assert result.choice_points == len(result.schedule)
        assert all(slot in (0, 1, 2) for slot in result.schedule)

    def test_policy_choosing_non_candidate_is_an_error(self):
        class Rogue(FirstReadyPolicy):
            def choose(self, candidates, scheduler):
                return object()

        scheduler = counter_scenario()
        scheduler.policy = Rogue()
        with pytest.raises(SimulationError):
            scheduler.run()


class TestScheduleTrace:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        trace = ScheduleTrace([0, 1, 1, 0], meta={"scenario": "x"})
        path = str(tmp_path / "t.trace.json")
        trace.save(path)
        reloaded = ScheduleTrace.load(path)
        assert reloaded == trace
        assert reloaded.meta["scenario"] == "x"
        assert reloaded.dumps() == trace.dumps()
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == trace.dumps()

    def test_rejects_malformed_payloads(self):
        with pytest.raises(SimulationError):
            ScheduleTrace.from_dict({"meta": {}})
        with pytest.raises(SimulationError):
            ScheduleTrace.from_dict({"choices": ["a"]})
        with pytest.raises(SimulationError):
            ScheduleTrace.from_dict({"choices": [], "format_version": 99})


class TestReplay:
    def test_replay_reproduces_run_exactly(self):
        recorded = counter_scenario()
        recorded.policy = RandomPolicy(seed=11)
        first = recorded.run()
        observed = list(recorded.order)

        replayed = counter_scenario()
        replayed.policy = ReplayPolicy(recorded.trace())
        second = replayed.run()
        assert list(replayed.order) == observed
        assert second.summary() == first.summary()
        assert list(second.schedule) == list(first.schedule)

    def test_strict_replay_raises_on_divergence(self):
        scheduler = counter_scenario()
        scheduler.policy = ReplayPolicy(ScheduleTrace([2, 2, 2, 2, 2, 2]))
        with pytest.raises(ReplayDivergenceError):
            scheduler.run()

    def test_strict_replay_raises_when_trace_too_short(self):
        scheduler = counter_scenario()
        scheduler.policy = ReplayPolicy(ScheduleTrace([0]))
        with pytest.raises(ReplayDivergenceError):
            scheduler.run()

    def test_tolerant_replay_completes_with_short_trace(self):
        scheduler = counter_scenario()
        scheduler.policy = ReplayPolicy(ScheduleTrace([2]), strict=False)
        result = scheduler.run()
        assert result.completed
        assert scheduler.order[0] == 2


class TestDfsExploration:
    def test_enumerates_all_orders_of_contending_writers(self):
        built = []

        def scenario():
            scheduler = counter_scenario()
            built.append(scheduler)
            return scheduler

        result = Explorer(scenario, strategy="dfs").explore()
        assert result.exhausted
        orders = {tuple(s.order) for s in built if len(s.order) == 3}
        # Three writers contending on one lock: all 3! = 6 acquisition
        # orders must be visited by the exhaustive search.
        assert orders == {(0, 1, 2), (0, 2, 1), (1, 0, 2),
                          (1, 2, 0), (2, 0, 1), (2, 1, 0)}

    def test_two_lock_inversion_finds_deadlock_and_completion(self):
        explorer = Explorer(lambda: build_two_lock_inversion(NullBackend()))
        result = explorer.explore()
        assert result.exhausted
        assert result.deadlock_count >= 1
        assert result.unique_deadlocks == 1
        assert result.completed >= 1

    def test_sleep_sets_prune_without_losing_coverage(self):
        factory = lambda: build_philosophers(NullBackend(), seats=3,  # noqa: E731
                                             eat_time=0.0)
        pruned = Explorer(factory, max_runs=50_000).explore()
        full = Explorer(factory, max_runs=50_000, strategy="dfs").explore()
        assert pruned.exhausted and full.exhausted
        assert pruned.runs < full.runs
        assert pruned.unique_deadlocks == full.unique_deadlocks == 1
        assert pruned.completed >= 1 and full.completed >= 1

    def test_preemption_bound_zero_restricts_search(self):
        factory = lambda: build_two_lock_inversion(NullBackend())  # noqa: E731
        bounded = Explorer(factory, preemption_bound=0).explore()
        unbounded = Explorer(factory).explore()
        assert bounded.runs <= unbounded.runs
        assert bounded.skipped_preemption >= 1

    def test_preemption_bound_counts_visible_switches_only(self):
        """The two-lock deadlock needs exactly one real preemption:
        bound 0 must exclude it (but still cover non-preemptive runs,
        which interleave Compute glue), bound 1 must find it."""
        factory = lambda: build_two_lock_inversion(NullBackend())  # noqa: E731
        bound0 = Explorer(factory, preemption_bound=0).explore()
        assert bound0.deadlock_count == 0
        assert bound0.completed >= 1
        bound1 = Explorer(factory, preemption_bound=1).explore()
        assert bound1.deadlock_count >= 1

    def test_preemption_bound_disables_sleep_sets(self):
        factory = lambda: build_philosophers(NullBackend(), seats=3,  # noqa: E731
                                             eat_time=0.0)
        bounded = Explorer(factory, preemption_bound=10,
                           max_runs=50_000).explore()
        assert bounded.pruned_sleep == 0
        unbounded = Explorer(factory, max_runs=50_000).explore()
        assert bounded.unique_deadlocks == unbounded.unique_deadlocks == 1

    def test_max_runs_budget_is_respected(self):
        factory = lambda: build_philosophers(NullBackend(), seats=3,  # noqa: E731
                                             eat_time=0.0)
        result = Explorer(factory, strategy="dfs", max_runs=5).explore()
        assert result.runs == 5
        assert not result.exhausted

    @pytest.mark.parametrize("strategy", ["dfs", "dpor"])
    def test_truncated_search_admits_no_more_nodes_than_its_budget(
            self, strategy):
        built = []

        def scenario():
            built.append(None)
            return build_philosophers(NullBackend(), seats=3, eat_time=0.0)

        result = Explorer(scenario, strategy=strategy, max_runs=17).explore()
        assert result.runs == len(built) == 17
        assert not result.exhausted

    @pytest.mark.parametrize("strategy", ["dfs", "dpor"])
    def test_stop_on_first_deadlock_leaves_the_rest_of_the_wave_unrun(
            self, strategy):
        built = []

        def scenario():
            built.append(None)
            return build_philosophers(NullBackend(), seats=3, eat_time=0.0)

        full = Explorer(scenario, strategy=strategy).explore()
        del built[:]
        result = Explorer(scenario, strategy=strategy).explore(
            stop_on_first_deadlock=True)
        assert result.deadlock_count == 1
        assert len(built) == result.runs < full.runs
        assert not result.exhausted

    def test_max_depth_cuts_runs(self):
        factory = lambda: build_philosophers(NullBackend(), seats=3)  # noqa: E731
        result = Explorer(factory, max_depth=4).explore()
        assert result.cut_depth >= 1
        assert not result.exhausted

    def test_stop_on_first_deadlock(self):
        factory = lambda: build_philosophers(NullBackend(), seats=3)  # noqa: E731
        result = Explorer(factory).explore(stop_on_first_deadlock=True)
        assert result.deadlock_count >= 1

    def test_explored_runs_match_strict_replay_side_effects(self):
        """Inter-yield program side effects are a pure function of the
        schedule: what a DFS run observed, strict replay of its trace
        must observe too (lookahead must not perturb the program)."""
        def scenario():
            scheduler = SimScheduler(backend=NullBackend())
            lock = scheduler.new_lock("L")
            state = {"flag": False}
            seen = []

            def setter():
                yield Acquire(lock, call_site("set:1"))
                state["flag"] = True
                yield Release(lock)

            def reader():
                yield Acquire(lock, call_site("read:1"))
                seen.append(state["flag"])
                yield Release(lock)

            scheduler.add_thread(setter, name="setter")
            scheduler.add_thread(reader, name="reader")
            scheduler.seen = seen
            return scheduler

        built = []

        def recording_scenario():
            scheduler = scenario()
            built.append(scheduler)
            return scheduler

        explorer = Explorer(recording_scenario, strategy="dfs")
        result = explorer.explore()
        assert result.exhausted
        observations = set()
        for scheduler in built:
            trace = scheduler.trace()
            replayed = scenario()
            replayed.policy = ReplayPolicy(trace, strict=True)
            replayed.run()
            assert replayed.seen == scheduler.seen, (
                f"replay of {trace.choices} observed {replayed.seen}, "
                f"exploration observed {scheduler.seen}")
            observations.add(tuple(scheduler.seen))
        # Both orders of the critical sections must have been explored.
        assert observations == {(True,), (False,)}

    def test_deadlock_traces_replay_to_deadlocks(self):
        explorer = Explorer(lambda: build_two_lock_inversion(NullBackend()))
        result = explorer.explore()
        for finding in result.deadlocks:
            replayed = explorer.replay(finding.trace)
            assert replayed.deadlocked
            assert list(replayed.schedule) == finding.trace.choices


class TestRandomWalk:
    def test_swarm_finds_the_deadlock(self):
        explorer = Explorer(lambda: build_two_lock_inversion(NullBackend()))
        result = explorer.random_walk(runs=50, seed=5)
        assert result.runs == 50
        assert result.deadlock_count >= 1
        assert result.unique_deadlocks == 1

    def test_swarm_runs_are_diverse(self):
        explorer = Explorer(lambda: build_philosophers(NullBackend(), seats=3,
                                                       eat_time=0.0))
        result = explorer.random_walk(runs=40, seed=1)
        schedules = {tuple(f.trace.choices) for f in result.deadlocks}
        assert result.completed + result.deadlock_count == result.runs
        assert len(schedules) > 1


class TestShrinking:
    def test_shrunk_trace_is_minimal_and_still_deadlocks(self):
        explorer = Explorer(lambda: build_philosophers(NullBackend(), seats=3,
                                                       eat_time=0.0))
        found = explorer.explore()
        assert found.deadlocks
        original = found.deadlocks[0].trace
        minimal = explorer.shrink(original)
        assert len(minimal) <= len(original)
        replayed = explorer.replay(minimal)
        assert replayed.deadlocked
        assert list(replayed.schedule) == minimal.choices
        assert minimal.meta["shrunk_from"] == len(original)

    def test_shrink_rejects_non_matching_trace(self):
        explorer = Explorer(lambda: build_two_lock_inversion(NullBackend()))
        # A completing schedule (tolerant replay of the empty trace) does
        # not satisfy the default "still deadlocks" predicate.
        result = explorer.replay(ScheduleTrace([]), strict=False)
        assert not result.deadlocked
        with pytest.raises(ValueError):
            explorer.shrink(ScheduleTrace(list(result.schedule)))


class TestBackendForking:
    def test_null_backend_fork(self):
        backend = NullBackend()
        fork = backend.fork()
        assert isinstance(fork, NullBackend)
        assert fork is not backend

    def test_dimmunix_fork_copies_history_without_sharing(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        scheduler = build_two_lock_inversion(backend, hold_time=0.01)
        scheduler.run()
        assert len(backend.history) == 1
        fork = backend.fork()
        assert len(fork.history) == 1
        fingerprints = {s.fingerprint for s in backend.history.signatures()}
        assert {s.fingerprint for s in fork.history.signatures()} == fingerprints
        # Mutating the fork must not touch the parent.
        fork.history.clear()
        assert len(fork.history) == 0
        assert len(backend.history) == 1

    def test_detection_only_fork_preserves_detection_mode(self):
        from repro.baselines.detection import DetectionOnlyBackend
        backend = DetectionOnlyBackend()
        fork = backend.fork()
        assert isinstance(fork, DetectionOnlyBackend)
        assert fork.dimmunix.config.detection_only

    def test_gate_lock_fork_keeps_gates_drops_runtime_state(self):
        from repro.baselines.gatelock import GateLockBackend
        backend = GateLockBackend()
        scheduler = build_two_lock_inversion(backend, hold_time=0.01)
        scheduler.run()  # deadlocks and learns a gate
        assert backend.deadlocks_learned == 1
        fork = backend.fork()
        assert len(fork.gates) == len(backend.gates) == 1
        assert fork.gates[0].sites == backend.gates[0].sites
        assert fork.gates[0].owner is None and not fork.gates[0].waiters
        assert fork.denials == 0

    def test_ghost_lock_fork_keeps_ghosts_drops_runtime_state(self):
        from repro.baselines.ghostlock import GhostLockBackend
        backend = GhostLockBackend()
        scheduler = build_two_lock_inversion(backend, hold_time=0.01)
        scheduler.run()
        assert backend.deadlocks_learned == 1
        fork = backend.fork()
        assert len(fork.ghosts) == 1
        assert fork.ghosts[0].lock_ids == backend.ghosts[0].lock_ids
        assert fork.ghosts[0].owner is None and not fork.ghosts[0].waiters

    def test_runtime_core_fork_uses_default_parker(self):
        from repro.core.dimmunix import Dimmunix
        from repro.core.runtime_api import RuntimeCore, ThreadParker

        class BoundParker(ThreadParker):
            def __init__(self, dimmunix):  # no zero-arg constructor
                self.dimmunix = dimmunix

        dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
        core = RuntimeCore(dimmunix, parker=BoundParker(dimmunix))
        fork = core.fork()  # must not try to rebuild the bound parker
        assert type(fork.parker) is ThreadParker
        assert fork.dimmunix is not dimmunix

    def test_runtime_core_fork_preserves_mode_and_handlers(self):
        from repro.core.avoidance import MODE_INSTRUMENTATION_ONLY
        from repro.core.dimmunix import Dimmunix

        handler = lambda signature, cycle: None  # noqa: E731
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing(),
                            restart_handler=handler,
                            engine_mode=MODE_INSTRUMENTATION_ONLY)
        fork = dimmunix.runtime_core.fork()
        assert fork.dimmunix.engine.mode == MODE_INSTRUMENTATION_ONLY
        assert fork.dimmunix.monitor.restart_handler is handler


class TestImmunityChecker:
    def test_two_lock_inversion_immunity_holds(self):
        checker = ImmunityChecker(build_two_lock_inversion,
                                  name="two-lock-inversion", max_runs=2_000)
        report = checker.check()
        assert not report.vacuous
        assert report.vulnerable.deadlock_count >= 1
        assert report.learned_signatures >= 1
        assert report.minimal_trace is not None
        assert report.immune is not None
        assert report.immune.deadlock_count == 0
        assert report.holds

    def test_deadlock_free_scenario_is_vacuous(self):
        def ordered(backend):
            scheduler = SimScheduler(backend=backend)
            a = scheduler.new_lock("A")
            b = scheduler.new_lock("B")

            def program():
                yield Acquire(a, call_site("first:1"))
                yield Acquire(b, call_site("second:2"))
                yield Release(b)
                yield Release(a)

            scheduler.add_thread(program)
            scheduler.add_thread(program)
            return scheduler

        report = ImmunityChecker(ordered, name="ordered",
                                 max_runs=2_000).check()
        assert report.vacuous
        assert not report.holds

    def test_report_as_dict_shape(self):
        report = ImmunityChecker(build_two_lock_inversion,
                                 max_runs=1_000).check()
        payload = report.as_dict()
        assert json.dumps(payload)  # JSON-serializable for harness rows
        assert payload["immune"] is True
        assert payload["immune_exhausted"] is True

    def test_gate_lock_prototype_is_checked_not_crashed(self):
        """Non-engine backends learn inside the backend (no History);
        the checker must fork the learner instead of reading .history."""
        from repro.baselines.gatelock import GateLockBackend
        report = ImmunityChecker(build_two_lock_inversion,
                                 name="two-lock-gate",
                                 backend_prototype=GateLockBackend(),
                                 max_runs=2_000).check()
        assert report.immune is not None
        assert report.holds  # gate serializes both update sites

    def test_holds_requires_exhaustive_immune_phase(self):
        """Zero deadlocks in a *truncated* immune search proves nothing."""
        report = ImmunityChecker(build_two_lock_inversion,
                                 max_runs=1_000).check()
        assert report.holds
        report.immune.exhausted = False
        assert not report.holds


class TestHarnessMatrix:
    def test_exploration_matrix_rows(self):
        from repro.harness import run_exploration_matrix
        from repro.sim.explore import SCENARIOS
        rows = run_exploration_matrix(
            scenarios={"two-lock-inversion": SCENARIOS["two-lock-inversion"]},
            max_runs=1_000)
        assert len(rows) == 1
        row = rows[0].as_dict()
        assert row["immune"] is True
        assert row["states"] > 0
        # The matrix must say how coverage was obtained: strategy,
        # exhaustiveness of both phases, and the reduction ratio against
        # the measured unreduced tree.
        assert row["strategy"] == "dpor"
        assert row["vulnerable_exhausted"] is True
        assert row["immune_exhausted"] is True
        assert row["full_interleavings"] == 14
        assert 0 < row["reduction"] <= 1

    def test_matrix_reports_requested_strategy_without_reduction_probe(self):
        from repro.harness import run_exploration_matrix
        from repro.sim.explore import SCENARIOS
        rows = run_exploration_matrix(
            scenarios={"two-lock-inversion": SCENARIOS["two-lock-inversion"]},
            max_runs=1_000, strategy="dfs")
        row = rows[0].as_dict()
        assert row["strategy"] == "dfs"
        # An unreduced run measures nothing extra: the ratio is moot.
        assert row["full_interleavings"] is None
        assert row["reduction"] is None
