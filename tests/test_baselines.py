"""Tests for the baseline avoidance approaches (gate locks, detection only, Rx)."""

from __future__ import annotations


from repro.baselines import DetectionOnlyBackend, GateLockBackend, rx_retry
from repro.core.avoidance import GO_OUTCOME, Decision
from repro.core.config import DimmunixConfig
from repro.core.signature import Signature
from repro.sim import (DimmunixBackend, NullBackend, SimScheduler, call_site,
                       lock_order_program)


def run_lock_order_workload(backend, labels=("s1", "s2"), seed=0, iterations=1):
    scheduler = SimScheduler(backend=backend, seed=seed)
    lock_a = scheduler.new_lock("A")
    lock_b = scheduler.new_lock("B")
    scheduler.add_thread(lock_order_program(lock_a, lock_b, labels[0],
                                            hold_time=0.01,
                                            iterations=iterations))
    scheduler.add_thread(lock_order_program(lock_b, lock_a, labels[1],
                                            hold_time=0.01,
                                            iterations=iterations))
    return scheduler.run()


class TestGateLockBackend:
    def test_learns_gate_from_deadlock(self):
        backend = GateLockBackend()
        result = run_lock_order_workload(backend)
        assert result.deadlocked
        assert len(backend.gates) == 1
        assert backend.deadlocks_learned == 1

    def test_gate_prevents_reoccurrence(self):
        backend = GateLockBackend()
        run_lock_order_workload(backend)              # learns the gate
        result = run_lock_order_workload(backend)     # replay with the gate
        assert result.completed
        assert backend.denials >= 1

    def test_gate_serializes_safe_executions_too(self):
        # The coarse grain of gate locks: two threads taking the *same* path
        # (which can never deadlock) are still serialized.
        backend = GateLockBackend()
        run_lock_order_workload(backend)              # learn from s1/s2 deadlock
        denials_before = backend.denials
        scheduler = SimScheduler(backend=backend, seed=1)
        lock_a = scheduler.new_lock("A")
        lock_b = scheduler.new_lock("B")
        lock_c = scheduler.new_lock("C")
        scheduler.add_thread(lock_order_program(lock_a, lock_b, "s1",
                                                hold_time=0.01))
        scheduler.add_thread(lock_order_program(lock_c, lock_b, "s1",
                                                hold_time=0.01))
        result = scheduler.run()
        assert result.completed
        assert backend.denials > denials_before

    def test_learn_from_signature(self):
        backend = GateLockBackend()
        signature = Signature([call_site("lock:3", "update:s1"),
                               call_site("lock:3", "update:s2")])
        gate = backend.learn_from_signature(signature)
        assert len(gate.sites) >= 1
        assert backend.stats()["gates"] == 1

    def test_request_answers_go_or_a_yield_outcome(self):
        # acquisition() reads a RequestOutcome: GO while the gate is free
        # or ours, YIELD while another thread owns it, GO again once the
        # owner's release names the yielder.
        backend = GateLockBackend()
        site = call_site("lock:3", "update:s1")
        backend.add_gate([site])
        assert backend.request(1, 10, site) is GO_OUTCOME
        assert backend.request(2, 11, site).decision is Decision.YIELD
        assert backend.release(1, 10) == [2]
        assert backend.request(2, 11, site) is GO_OUTCOME

    def test_cancel_gives_back_the_gates_a_request_took(self):
        # A request that never becomes an acquisition (failed trylock, run
        # ended before the grant) must not leave its gate owned.
        backend = GateLockBackend()
        site = call_site("lock:3", "update:s1")
        gate = backend.add_gate([site])
        assert backend.request(1, 10, site) is GO_OUTCOME
        backend.cancel(1, 10)
        assert gate.owner is None and gate.depth == 0
        assert backend.request(2, 11, site) is GO_OUTCOME

    def test_dimmunix_avoids_what_gates_serialize(self):
        # Contrast: Dimmunix does not serialize the same-path executions.
        detection = DimmunixBackend(
            config=DimmunixConfig.for_testing(detection_only=True))
        run_lock_order_workload(detection)
        immune = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                 history=detection.history)
        scheduler = SimScheduler(backend=immune, seed=1)
        lock_a = scheduler.new_lock("A")
        lock_b = scheduler.new_lock("B")
        lock_c = scheduler.new_lock("C")
        scheduler.add_thread(lock_order_program(lock_a, lock_b, "s1",
                                                hold_time=0.01))
        scheduler.add_thread(lock_order_program(lock_c, lock_b, "s1",
                                                hold_time=0.01))
        result = scheduler.run()
        assert result.completed
        assert result.yields == 0


class TestDetectionOnlyBackend:
    def test_detects_but_never_avoids(self):
        backend = DetectionOnlyBackend()
        result = run_lock_order_workload(backend)
        assert result.deadlocked
        assert len(backend.history) == 1
        # Second run still deadlocks because yields are ignored.
        result2 = run_lock_order_workload(backend)
        assert result2.deadlocked
        assert backend.dimmunix.stats.yield_decisions == 0


class TestRxRetry:
    def test_retries_until_timing_avoids_deadlock(self):
        def factory(seed):
            scheduler = SimScheduler(backend=NullBackend(), seed=seed)
            lock_a = scheduler.new_lock("A")
            lock_b = scheduler.new_lock("B")
            # Thread 2 starts late enough that some schedules do not deadlock.
            scheduler.add_thread(lock_order_program(lock_a, lock_b, "s1",
                                                    hold_time=0.001))
            scheduler.add_thread(lock_order_program(lock_b, lock_a, "s2",
                                                    hold_time=0.001,
                                                    outside_time=0.001 * (seed % 3)))
            return scheduler

        outcome = rx_retry(factory, max_retries=5)
        assert outcome.attempts >= 1
        assert outcome.attempts == len(outcome.results)

    def test_deterministic_deadlock_defeats_rx(self):
        def factory(seed):
            scheduler = SimScheduler(backend=NullBackend(), seed=seed)
            lock_a = scheduler.new_lock("A")
            lock_b = scheduler.new_lock("B")
            scheduler.add_thread(lock_order_program(lock_a, lock_b, "s1",
                                                    hold_time=0.01))
            scheduler.add_thread(lock_order_program(lock_b, lock_a, "s2",
                                                    hold_time=0.01))
            return scheduler

        outcome = rx_retry(factory, max_retries=3)
        assert not outcome.succeeded
        assert outcome.attempts == 4
        assert outcome.deadlocks_encountered == 4
