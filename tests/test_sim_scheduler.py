"""Tests for the deterministic simulation scheduler."""

from __future__ import annotations

import gc

import pytest

from repro.core.config import DimmunixConfig
from repro.core.errors import SimDeadlockError, SimulationError
from repro.core.signature import Signature
from repro.sim import (Acquire, Compute, DimmunixBackend, Explorer, Log,
                       NullBackend, Release, SimScheduler, TryAcquire,
                       call_site, lock_order_program, philosopher_program,
                       random_workload_program)


def make_scheduler(backend=None, seed=0):
    return SimScheduler(backend=backend, seed=seed)


class TestBasicExecution:
    def test_single_thread_lock_unlock(self):
        scheduler = make_scheduler()
        lock = scheduler.new_lock("L")

        def program():
            yield Acquire(lock, call_site("f:1"))
            yield Compute(0.01)
            yield Release(lock)

        scheduler.add_thread(program)
        result = scheduler.run()
        assert result.completed
        assert result.lock_ops == 1
        assert result.virtual_time >= 0.01

    def test_two_threads_contend_on_one_lock(self):
        scheduler = make_scheduler()
        lock = scheduler.new_lock("L")

        def program():
            yield Acquire(lock, call_site("f:1"))
            yield Compute(0.01)
            yield Release(lock)

        scheduler.add_thread(program)
        scheduler.add_thread(program)
        result = scheduler.run()
        assert result.completed
        assert result.lock_ops == 2
        assert result.blocks >= 1

    def test_reentrant_acquire(self):
        scheduler = make_scheduler()
        lock = scheduler.new_lock("L")

        def program():
            yield Acquire(lock, call_site("outer:1"))
            yield Acquire(lock, call_site("inner:2"))
            yield Release(lock)
            yield Release(lock)

        scheduler.add_thread(program)
        result = scheduler.run()
        assert result.completed
        assert result.lock_ops == 2

    def test_try_acquire_failure_reports_false(self):
        scheduler = make_scheduler()
        lock = scheduler.new_lock("L")
        outcomes = []

        def holder():
            yield Acquire(lock, call_site("h:1"))
            yield Compute(0.1)
            yield Release(lock)

        def trier():
            yield Compute(0.01)
            ok = yield TryAcquire(lock, call_site("t:1"))
            outcomes.append(ok)
            if ok:
                yield Release(lock)

        scheduler.add_thread(holder)
        scheduler.add_thread(trier)
        result = scheduler.run()
        assert result.completed
        assert outcomes == [False]
        assert result.failed_trylocks == 1

    def test_log_action_recorded(self):
        scheduler = make_scheduler()

        def program():
            yield Log("hello")

        scheduler.add_thread(program)
        result = scheduler.run()
        assert any("hello" in line for line in result.log)

    def test_release_without_hold_raises(self):
        scheduler = make_scheduler()
        lock = scheduler.new_lock("L")

        def program():
            yield Release(lock)

        scheduler.add_thread(program)
        with pytest.raises(SimulationError):
            scheduler.run()

    def test_a_run_over_the_step_budget_raises(self, monkeypatch):
        monkeypatch.setattr("repro.sim.scheduler.MAX_STEPS", 10)
        scheduler = make_scheduler()

        def program():
            while True:
                yield Compute(0.001)

        scheduler.add_thread(program)
        with pytest.raises(SimulationError, match="exceeded 10 steps"):
            scheduler.run()
        assert scheduler.result.steps == 10

    @pytest.mark.parametrize("interval", [1, 3, 25])
    def test_the_backend_is_polled_every_poll_interval_steps(
            self, monkeypatch, interval):
        from repro.sim import scheduler as scheduler_module
        monkeypatch.setattr(scheduler_module, "POLL_INTERVAL", interval)

        class CountingBackend(NullBackend):
            polls = 0

            def poll(self, scheduler):
                self.polls += 1

        backend = CountingBackend()
        scheduler = make_scheduler(backend=backend)

        def program():
            for _ in range(40):
                yield Compute(0.001)

        scheduler.add_thread(program)
        result = scheduler.run()
        assert result.completed and result.steps >= 40
        # One poll per full interval, plus the final pass after the loop.
        assert backend.polls == result.steps // interval + 1

    def test_the_scheduler_takes_a_backend_a_seed_and_a_policy(self):
        import inspect
        assert list(inspect.signature(SimScheduler).parameters) == [
            "backend", "seed", "policy"]

    def test_determinism_same_seed_same_result(self):
        def build(seed):
            scheduler = make_scheduler(seed=seed)
            locks = [scheduler.new_lock(f"L{i}") for i in range(4)]
            for i in range(6):
                scheduler.add_thread(random_workload_program(locks, seed=i,
                                                             iterations=10))
            return scheduler.run()

        first = build(42)
        second = build(42)
        assert first.summary() == second.summary()


class TestDeadlockWithoutAvoidance:
    def test_opposite_lock_order_deadlocks(self):
        scheduler = make_scheduler(backend=NullBackend())
        a = scheduler.new_lock("A")
        b = scheduler.new_lock("B")
        scheduler.add_thread(lock_order_program(a, b, "s1", hold_time=0.01))
        scheduler.add_thread(lock_order_program(b, a, "s2", hold_time=0.01))
        result = scheduler.run()
        assert result.deadlocked
        assert not result.completed
        assert result.stall is not None
        assert len(result.stall.waiting) == 2

    def test_raise_on_deadlock_option(self):
        scheduler = make_scheduler(backend=NullBackend())
        a = scheduler.new_lock("A")
        b = scheduler.new_lock("B")
        scheduler.add_thread(lock_order_program(a, b, "s1", hold_time=0.01))
        scheduler.add_thread(lock_order_program(b, a, "s2", hold_time=0.01))
        with pytest.raises(SimDeadlockError):
            scheduler.run(raise_on_deadlock=True)

    def test_philosophers_deadlock(self):
        scheduler = make_scheduler(backend=NullBackend(), seed=3)
        forks = [scheduler.new_lock(f"fork-{i}") for i in range(5)]
        for seat in range(5):
            scheduler.add_thread(philosopher_program(
                forks[seat], forks[(seat + 1) % 5], seat,
                think_time=0.0, eat_time=0.01))
        result = scheduler.run()
        # With zero think time and uniform grabbing, the cycle forms.
        assert result.deadlocked


class TestDimmunixBackendInSim:
    def test_first_run_deadlocks_and_saves_signature(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        scheduler = make_scheduler(backend=backend)
        a = scheduler.new_lock("A")
        b = scheduler.new_lock("B")
        scheduler.add_thread(lock_order_program(a, b, "s1", hold_time=0.01))
        scheduler.add_thread(lock_order_program(b, a, "s2", hold_time=0.01))
        result = scheduler.run()
        assert result.deadlocked
        assert len(backend.history) == 1
        signature = backend.history.signatures()[0]
        assert signature.kind == "deadlock"
        assert signature.size == 2

    def test_second_run_with_signature_is_immune(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        first = make_scheduler(backend=backend)
        a1, b1 = first.new_lock("A"), first.new_lock("B")
        first.add_thread(lock_order_program(a1, b1, "s1", hold_time=0.01))
        first.add_thread(lock_order_program(b1, a1, "s2", hold_time=0.01))
        assert first.run().deadlocked

        # Second "execution": fresh scheduler and locks, same history.
        backend2 = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                   history=backend.history)
        second = make_scheduler(backend=backend2)
        a2, b2 = second.new_lock("A"), second.new_lock("B")
        second.add_thread(lock_order_program(a2, b2, "s1", hold_time=0.01))
        second.add_thread(lock_order_program(b2, a2, "s2", hold_time=0.01))
        result = second.run()
        assert result.completed
        assert not result.deadlocked
        assert result.yields >= 1

    def test_immunity_does_not_serialize_safe_paths(self):
        # Same path in both threads ({s1, s1}) is not the saved pattern and
        # must not cause yields.
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        first = make_scheduler(backend=backend)
        a1, b1 = first.new_lock("A"), first.new_lock("B")
        first.add_thread(lock_order_program(a1, b1, "s1", hold_time=0.01))
        first.add_thread(lock_order_program(b1, a1, "s2", hold_time=0.01))
        first.run()

        backend2 = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                   history=backend.history)
        second = make_scheduler(backend=backend2)
        a2, b2 = second.new_lock("A"), second.new_lock("B")
        second.add_thread(lock_order_program(a2, b2, "s1", hold_time=0.01))
        second.add_thread(lock_order_program(a2, b2, "s1", hold_time=0.01))
        result = second.run()
        assert result.completed
        assert result.yields == 0

    def test_random_workload_with_dimmunix_completes(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        scheduler = make_scheduler(backend=backend, seed=7)
        locks = [scheduler.new_lock(f"L{i}") for i in range(8)]
        for i in range(16):
            scheduler.add_thread(random_workload_program(locks, seed=100 + i,
                                                         iterations=20))
        result = scheduler.run()
        assert result.completed
        assert result.lock_ops == 16 * 20

    def test_a_stalled_run_cancels_its_requests_at_run_end_not_in_gc(self):
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        scheduler = make_scheduler(backend=backend)
        a, b = scheduler.new_lock("A"), scheduler.new_lock("B")
        scheduler.add_thread(lock_order_program(a, b, "s1", hold_time=0.01))
        scheduler.add_thread(lock_order_program(b, a, "s2", hold_time=0.01))
        assert scheduler.run().deadlocked
        stats = backend.dimmunix.stats
        # Both blocked requests were rolled back when the run ended ...
        assert stats.cancels == 2
        # ... and nothing is left for the garbage collector to cancel.
        del scheduler, backend
        gc.collect()
        assert stats.cancels == 2


HOLD_A = call_site("hold_a:1", "holder:0")
TAKE_B = call_site("take_b:1", "requester:0")


def build_bounded_yield(backend, acquired_at, delay=0.001):
    """The holder keeps A (taken at HOLD_A) for a virtual second; the
    requester asks for B at TAKE_B after ``delay``, which the seeded
    signature denies while A is held."""
    scheduler = make_scheduler(backend=backend)
    a, b = scheduler.new_lock("A"), scheduler.new_lock("B")

    def holder():
        yield Acquire(a, HOLD_A)
        yield Compute(1.0)
        yield Release(a)

    def requester():
        yield Compute(delay)
        yield Acquire(b, TAKE_B)
        acquired_at.append(scheduler.clock.now())
        yield Release(b)

    scheduler.add_thread(holder, name="holder")
    scheduler.add_thread(requester, name="requester")
    return scheduler


def seeded_backend(yield_timeout):
    backend = DimmunixBackend(
        config=DimmunixConfig.for_testing(yield_timeout=yield_timeout))
    backend.history.add(Signature([HOLD_A, TAKE_B], matching_depth=2))
    return backend


class TestVirtualYieldBound:
    """Section 5.7 in virtual time: a yield ends at its bound, unwoken."""

    def test_the_bound_aborts_the_yield_at_virtual_time(self):
        backend, acquired_at = seeded_backend(0.01), []
        result = build_bounded_yield(backend, acquired_at).run()
        assert result.completed and result.yields == 1
        assert acquired_at == [pytest.approx(0.011)]
        assert backend.dimmunix.stats.aborted_yields == 1

    def test_without_a_bound_the_yield_lasts_until_the_release(self):
        backend, acquired_at = seeded_backend(None), []
        result = build_bounded_yield(backend, acquired_at).run()
        assert result.completed and result.yields == 1
        assert acquired_at == [pytest.approx(1.0)]
        assert backend.dimmunix.stats.aborted_yields == 0

    def test_exploring_bounded_yields_is_exhaustive_and_deterministic(self):
        """With both requests at t = 0 either thread may be the one denied:
        the requester's yield runs out at its bound, the holder's dissolves
        when B is released."""
        prototype = seeded_backend(0.01)

        def explore():
            runs = []

            def scenario():
                acquired_at = []
                scheduler = build_bounded_yield(prototype.fork(), acquired_at,
                                                delay=0.0)
                runs.append((scheduler, acquired_at))
                return scheduler

            result = Explorer(scenario, name="bounded-yield",
                              strategy="dfs").explore()
            return result, [(s.result.schedule, s.result.virtual_time,
                             s.backend.dimmunix.stats.aborted_yields, at)
                            for s, at in runs]

        result, runs = explore()
        assert result.exhausted and result.runs > 1
        assert result.completed == result.runs
        assert {aborted for _, _, aborted, _ in runs} == {0, 1}
        assert explore()[1] == runs
