"""Multi-holder resources: engine-level semaphores and reader-writer locks.

Covers the capacity-aware resource model end to end below the runtime
adapters: RAG waits-for-any-permit edges, multi-successor cycle
detection, the avoidance cache's multi-holder records, the engine's
permit-aware matching, v2 signature modes, and the two new simulator
scenarios under the model checker.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.avoidance import AvoidanceEngine, Decision
from repro.core.cache import AvoidanceCache
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.cycles import find_deadlock_cycles
from repro.core.errors import AvoidanceError
from repro.core.events import acquired_event, allow_event, release_event
from repro.core.history import History
from repro.core.monitor import MonitorCore
from repro.core.rag import ResourceAllocationGraph, ResourceState
from repro.core.signature import DEADLOCK, EXCLUSIVE, SHARED, Signature
from repro.sim.backends import DimmunixBackend, NullBackend
from repro.sim.explore import (ImmunityChecker, build_rwlock_upgrade_inversion,
                               build_sem_exhaustion_cycle, SCENARIOS)
from repro.sim.actions import Acquire, Compute, Release
from repro.sim.locks import SimRWLock, SimSemaphore
from repro.sim.scheduler import SimScheduler


def stack(*labels):
    return CallStack.from_labels(list(labels))


S1 = stack("take:0", "pool:a", "main:0")
S2 = stack("take:0", "pool:b", "main:0")
S3 = stack("take:0", "pool:c", "main:0")


class TestRagMultiHolder:
    def test_semaphore_tracks_multiple_holders(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        rag.apply(acquired_event(2, 10, S2, capacity=2))
        resource = rag.lock(10)
        assert resource.holder_ids() == [1, 2]
        assert rag.holders_of(10) == [1, 2]
        assert resource.capacity == 2
        assert rag.holder_of(10) is None  # no *sole* holder
        assert rag.hold_stack(10, 1) == S1
        assert rag.hold_stack(10, 2) == S2

    def test_release_removes_only_releasers_edge(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        rag.apply(acquired_event(2, 10, S2, capacity=2))
        rag.apply(release_event(1, 10))
        assert rag.lock(10).holder_ids() == [2]
        assert rag.holder_of(10) == 2

    def test_exclusive_request_waits_on_all_permit_holders(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        rag.apply(acquired_event(2, 10, S2, capacity=2))
        blockers = rag.lock(10).blocking_holders(3, EXCLUSIVE)
        assert sorted(holder for holder, _s, _m in blockers) == [1, 2]

    def test_free_permit_means_not_blocked(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        assert rag.lock(10).blocking_holders(3, EXCLUSIVE) == []

    def test_shared_request_blocked_only_by_writer(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 20, S1, mode=SHARED))
        assert rag.lock(20).blocking_holders(2, SHARED) == []
        rag2 = ResourceAllocationGraph()
        rag2.apply(acquired_event(1, 20, S1, mode=EXCLUSIVE))
        rag2.apply(acquired_event(2, 20, S2, mode=SHARED))
        blockers = rag2.lock(20).blocking_holders(3, SHARED)
        assert [holder for holder, _s, _m in blockers] == [1]

    def test_writer_waits_on_every_reader(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 20, S1, mode=SHARED))
        rag.apply(acquired_event(2, 20, S2, mode=SHARED))
        blockers = rag.lock(20).blocking_holders(3, EXCLUSIVE)
        assert sorted(holder for holder, _s, _m in blockers) == [1, 2]
        modes = {mode for _h, _s, mode in blockers}
        assert modes == {SHARED}

    def test_plain_mutex_behaviour_unchanged(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 30, S1))
        rag.apply(acquired_event(2, 30, S2))  # stale-owner recovery
        assert rag.holder_of(30) == 2



def quadratic_blocking_holders(resource, thread_id, mode):
    """The reverse-scan-per-edge version ``blocking_holders`` replaced: the reference."""
    if not resource.edges:
        return []
    others = []
    other_shared = False
    for tid, _stack, edge_mode in resource.edges:
        if tid == thread_id:
            continue
        stack = resource.hold_stack_of(tid)
        entry = (tid, stack, edge_mode)
        if entry not in others:
            others.append(entry)
        if edge_mode == SHARED:
            other_shared = True
    if mode == SHARED:
        return [(tid, stack, m) for tid, stack, m in others if m == EXCLUSIVE]
    if other_shared:
        return others
    exclusive = sum(1 for _tid, _stack, m in resource.edges if m == EXCLUSIVE)
    if exclusive >= resource.capacity:
        return [(tid, stack, m) for tid, stack, m in others if m == EXCLUSIVE]
    return []


EDGES = st.lists(st.tuples(st.integers(1, 4), st.sampled_from(["a:1", "b:2", "c:3"]),
                           st.sampled_from([EXCLUSIVE, SHARED])), max_size=12)


class TestBlockingHoldersOnePass:
    @settings(max_examples=300, deadline=None)
    @given(edges=EDGES, capacity=st.integers(1, 4), thread_id=st.integers(1, 5),
           mode=st.sampled_from([EXCLUSIVE, SHARED]))
    def test_it_returns_what_the_quadratic_version_returned(self, edges, capacity,
                                                           thread_id, mode):
        # A fresh stack object per edge: equal stacks of one holder are still told apart.
        resource = ResourceState(lock_id=10, capacity=capacity,
                                 edges=[(tid, stack(label), edge_mode)
                                        for tid, label, edge_mode in edges])
        got = resource.blocking_holders(thread_id, mode)
        want = quadratic_blocking_holders(resource, thread_id, mode)
        assert got == want
        assert all(a[1] is b[1] for a, b in zip(got, want))  # the latest stack itself

class TestMultiHolderCycles:
    def test_permit_exhaustion_cycle_detected(self):
        """Two workers each holding one permit of a 2-permit pool, both
        blocked on their second acquisition."""
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        rag.apply(acquired_event(2, 10, S2, capacity=2))
        rag.apply(allow_event(1, 10, stack("take:1", "pool:a", "main:0"),
                              capacity=2))
        rag.apply(allow_event(2, 10, stack("take:1", "pool:b", "main:0"),
                              capacity=2))
        cycles = find_deadlock_cycles(rag)
        assert len(cycles) == 1
        cycle = cycles[0]
        assert sorted(cycle.threads) == [1, 2]
        assert set(cycle.stacks) == {S1, S2}
        signature = cycle.to_signature(matching_depth=3)
        assert signature.kind == DEADLOCK
        assert signature.modes == (EXCLUSIVE, EXCLUSIVE)

    def test_rwlock_upgrade_cycle_detected(self):
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 20, S1, mode=SHARED))
        rag.apply(acquired_event(2, 20, S2, mode=SHARED))
        rag.apply(allow_event(1, 20, stack("up:1", "a:0"), mode=EXCLUSIVE))
        rag.apply(allow_event(2, 20, stack("up:1", "b:0"), mode=EXCLUSIVE))
        cycles = find_deadlock_cycles(rag)
        assert len(cycles) == 1
        signature = cycles[0].to_signature(matching_depth=3)
        assert signature.modes == (SHARED, SHARED)

    def test_no_cycle_while_a_permit_holder_can_run(self):
        """T3 blocked on the pool, but holder T2 is not blocked at all."""
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        rag.apply(acquired_event(2, 10, S2, capacity=2))
        rag.apply(allow_event(3, 10, S3, capacity=2))
        assert find_deadlock_cycles(rag) == []

    def test_three_way_cycle_through_pool_and_mutex(self):
        """T1,T3 hold the pool and wait on L; T2 holds L and waits on the
        pool — a cycle that needs the multi-successor walk."""
        rag = ResourceAllocationGraph()
        rag.apply(acquired_event(1, 10, S1, capacity=2))
        rag.apply(acquired_event(3, 10, S3, capacity=2))
        rag.apply(acquired_event(2, 40, S2))
        rag.apply(allow_event(1, 40, stack("lock:1", "a:0")))
        rag.apply(allow_event(3, 40, stack("lock:1", "c:0")))
        rag.apply(allow_event(2, 10, stack("take:1", "b:0"), capacity=2))
        cycles = find_deadlock_cycles(rag)
        assert cycles
        involved = set()
        for cycle in cycles:
            involved.update(cycle.threads)
        assert 2 in involved


class TestCacheMultiHolder:
    def test_mutex_double_acquire_still_raises(self):
        cache = AvoidanceCache()
        cache.add_hold(1, 10, S1)
        with pytest.raises(AvoidanceError):
            cache.add_hold(2, 10, S2)

    def test_semaphore_permits_coexist(self):
        cache = AvoidanceCache()
        cache.add_hold(1, 10, S1, capacity=2)
        cache.add_hold(2, 10, S2, capacity=2)
        assert sorted(cache.holders_of(10)) == [1, 2]
        assert cache.holder_of(10) is None  # no sole holder
        fully, released = cache.release_hold(1, 10)
        assert fully and released == S1
        assert cache.holders_of(10) == [2]

    def test_shared_holds_coexist(self):
        cache = AvoidanceCache()
        cache.add_hold(1, 20, S1, mode=SHARED)
        cache.add_hold(2, 20, S2, mode=SHARED)
        assert sorted(cache.holders_of(20)) == [1, 2]

    def test_binding_live_for_permit_holder(self):
        cache = AvoidanceCache()
        cache.add_hold(1, 10, S1, capacity=2)
        cache.add_hold(2, 10, S2, capacity=2)
        assert cache.binding_live(1, 10)
        assert cache.binding_live(2, 10)
        cache.release_hold(1, 10)
        assert not cache.binding_live(1, 10)


class TestEngineSemantics:
    def _engine(self, signature=None):
        history = History(path=None, autosave=False)
        if signature is not None:
            history.add(signature)
        return AvoidanceEngine(history,
                               DimmunixConfig.for_testing(matching_depth=3))

    def test_second_permit_is_not_reentrant_bypass(self):
        """Re-acquiring a semaphore must keep consulting the history."""
        signature = Signature([S1, S2], matching_depth=3)
        engine = self._engine(signature)
        assert engine.request(1, 10, S1, capacity=2).is_go
        engine.acquired(1, 10, S1, capacity=2)
        # Thread 2's first permit instantiates the signature with T1's
        # hold binding on the *same* lock id — multi-permit resources are
        # exempt from the distinct-locks constraint.
        outcome = engine.request(2, 10, S2, capacity=2)
        assert outcome.decision is Decision.YIELD
        assert outcome.signature is signature

    def test_mutex_keeps_distinct_locks_constraint(self):
        """The same shape on a plain mutex must NOT match: one lock cannot
        be two bindings of a signature instance."""
        signature = Signature([S1, S2], matching_depth=3)
        engine = self._engine(signature)
        assert engine.request(1, 10, S1).is_go
        engine.acquired(1, 10, S1)
        engine.release(1, 10)
        assert engine.request(2, 10, S2).is_go

    def test_reentrant_mutex_bypass_still_in_place(self):
        signature = Signature([S1, S2], matching_depth=3)
        engine = self._engine(signature)
        assert engine.request(1, 10, S1).is_go
        engine.acquired(1, 10, S1)
        assert engine.request(1, 10, S1).is_go  # reentrant: bypass

    def test_partial_semaphore_release_wakes_waiters(self):
        signature = Signature([S1, S2], matching_depth=3)
        engine = self._engine(signature)
        assert engine.request(1, 10, S1, capacity=2).is_go
        engine.acquired(1, 10, S1, capacity=2)
        assert engine.request(1, 10, S1, capacity=2).is_go
        engine.acquired(1, 10, S1, capacity=2)  # T1 holds two permits
        outcome = engine.request(2, 10, S2, capacity=2)
        assert outcome.is_yield
        # Releasing ONE of T1's permits (same site) dissolves the cause.
        woken = engine.release(1, 10)
        assert woken == [2]

    def test_capacity_learned_lazily(self):
        engine = self._engine()
        monitor = MonitorCore(engine, engine.history)
        engine.request(1, 10, S1, capacity=3)
        monitor.process()
        assert monitor.rag.lock(10).capacity == 3
        assert engine.is_multiholder(10)
        engine.request(1, 20, S1, mode=SHARED)
        assert engine.is_multiholder(20)
        assert not engine.is_multiholder(99)


class TestSignatureModes:
    def test_default_modes_are_exclusive(self):
        signature = Signature([S1, S2])
        assert signature.modes == (EXCLUSIVE, EXCLUSIVE)
        assert not signature.multiholder

    def test_all_exclusive_fingerprint_matches_v1(self):
        """A v1 record (no modes) and the same stacks with explicit
        exclusive modes must collide — old histories keep matching."""
        with_modes = Signature([S1, S2], modes=[EXCLUSIVE, EXCLUSIVE])
        without = Signature([S1, S2])
        assert with_modes.fingerprint == without.fingerprint
        assert with_modes == without

    def test_shared_modes_change_identity(self):
        exclusive = Signature([S1, S2])
        shared = Signature([S1, S2], modes=[SHARED, SHARED])
        assert exclusive.fingerprint != shared.fingerprint
        assert exclusive != shared
        assert shared.multiholder

    def test_modes_sorted_with_stacks(self):
        forward = Signature([S1, S2], modes=[SHARED, EXCLUSIVE])
        backward = Signature([S2, S1], modes=[EXCLUSIVE, SHARED])
        assert forward.fingerprint == backward.fingerprint
        assert forward.stacks == backward.stacks
        assert forward.modes == backward.modes

    def test_roundtrip_preserves_modes(self):
        signature = Signature([S1, S2], modes=[SHARED, EXCLUSIVE],
                              matching_depth=2)
        twin = Signature.from_dict(signature.to_dict())
        assert twin == signature
        assert twin.modes == signature.modes

    def test_mode_count_mismatch_rejected(self):
        from repro.core.errors import SignatureError
        with pytest.raises(SignatureError):
            Signature([S1, S2], modes=[SHARED])
        with pytest.raises(SignatureError):
            Signature([S1], modes=["bogus"])

    def test_describe_annotates_shared_stacks(self):
        signature = Signature([S1, S2], modes=[SHARED, SHARED])
        assert "[shared]" in signature.describe()


class TestSimResources:
    def test_semaphore_grant_rules(self):
        pool = SimSemaphore(2).ledger
        assert pool.take(1)
        assert pool.grantable(2, EXCLUSIVE)
        assert pool.take(2)
        assert not pool.grantable(1, EXCLUSIVE)  # a holder cannot exceed capacity
        assert pool.release(1, EXCLUSIVE) == 1
        assert pool.grantable(3, EXCLUSIVE)

    def test_rwlock_grant_rules(self):
        rwlock = SimRWLock().ledger
        pool_reader, other_reader, writer = 1, 2, 3
        assert rwlock.take(pool_reader, SHARED)
        assert rwlock.grantable(other_reader, SHARED)
        assert rwlock.take(other_reader, SHARED)
        assert not rwlock.grantable(writer, EXCLUSIVE)
        assert rwlock.release(other_reader, SHARED) == other_reader
        # Sole reader may upgrade; others may not.
        assert rwlock.grantable(pool_reader, EXCLUSIVE)
        assert not rwlock.grantable(writer, EXCLUSIVE)

    def test_upgrade_unwinds_write_then_read(self):
        scheduler = SimScheduler(backend=NullBackend())
        rwlock = scheduler.register_lock(SimRWLock(name="rw"))
        seen = {}

        def upgrader():
            yield Acquire(rwlock, mode=SHARED)
            yield Acquire(rwlock, mode=EXCLUSIVE)
            yield Compute(1.0)
            yield Release(rwlock)  # the write hold goes first ...
            seen["after write"] = (rwlock.ledger.writer, rwlock.ledger.reader_count())
            yield Compute(1.0)
            yield Release(rwlock)  # ... then the read hold

        def reader():
            yield Compute(0.5)
            yield Acquire(rwlock, mode=SHARED)
            seen["reader in at"] = scheduler.clock.now()
            yield Release(rwlock)

        upgrader_thread = scheduler.add_thread(upgrader)
        scheduler.add_thread(reader)
        result = scheduler.run()
        assert result.completed_threads == 2 and not result.deadlocked
        # The reader waited out the write hold only: it shares the read hold.
        assert seen == {"after write": (None, 2), "reader in at": 1.0}
        assert not upgrader_thread.held and not rwlock.ledger.held_by(upgrader_thread.thread_id)

    def test_partial_reentrant_release_keeps_the_waiter_queued(self):
        scheduler = SimScheduler(backend=NullBackend())
        lock = scheduler.new_lock("L")
        seen = {}

        def owner():
            yield Acquire(lock)
            yield Acquire(lock)
            yield Compute(1.0)
            yield Release(lock)
            # The hand-over ran and refused the front waiter: it is back in front.
            seen["queued"] = list(lock.waiters)
            yield Compute(1.0)
            yield Release(lock)

        def waiter():
            yield Compute(0.5)
            yield Acquire(lock)
            seen["in at"] = scheduler.clock.now()
            yield Release(lock)

        scheduler.add_thread(owner)
        waiting = scheduler.add_thread(waiter)
        result = scheduler.run()
        assert result.completed_threads == 2 and not result.deadlocked
        assert seen == {"queued": [waiting.thread_id], "in at": 2.0}


class TestScenarioImmunity:
    """The acceptance criterion, as executable checks: both scenarios
    deadlock in >= 1 interleaving under NullBackend and in none under
    Dimmunix with the seeded history."""

    @pytest.mark.parametrize("name", ["sem-exhaustion-cycle",
                                      "rwlock-upgrade-inversion"])
    def test_registered_scenario_is_immunizable(self, name):
        checker = ImmunityChecker(SCENARIOS[name], name=name, max_runs=2000)
        report = checker.check()
        assert report.vulnerable.deadlock_count >= 1
        assert report.learned_signatures >= 1
        assert report.holds, report.as_dict()

    def test_sem_scenario_signature_is_multi_permit(self):
        """The learned signature binds two stacks of the same pool."""
        backend = DimmunixBackend(config=DimmunixConfig.for_testing())
        scheduler = build_sem_exhaustion_cycle(backend)
        scheduler.run()
        assert scheduler.result.deadlocked or len(backend.history) >= 0
        # Drive to the deadlock deterministically if the seeded-random run
        # completed without one.
        if not len(backend.history):
            checker = ImmunityChecker(build_sem_exhaustion_cycle,
                                      name="sem", max_runs=500)
            report = checker.check()
            assert report.learned_signatures >= 1
            return
        signature = backend.history.signatures()[0]
        assert signature.kind == DEADLOCK
        assert signature.size == 2

    def test_rwlock_scenario_learns_shared_modes(self):
        checker = ImmunityChecker(build_rwlock_upgrade_inversion,
                                  name="rwlock", max_runs=2000, shrink=False)
        report = checker.check()
        assert report.holds

    def test_null_backend_deadlock_footprint(self):
        """Under NullBackend the stall is a genuine permit-wait cycle."""
        from repro.sim.explore import Explorer
        explorer = Explorer(lambda: build_sem_exhaustion_cycle(NullBackend()),
                            name="sem", max_runs=500)
        result = explorer.explore()
        assert result.deadlock_count >= 1
        stall = result.deadlocks[0].result.stall
        # Both workers wait on the same pool resource.
        assert len(set(stall.waiting.values())) == 1
