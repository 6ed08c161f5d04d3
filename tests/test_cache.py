"""Unit tests for the avoidance-side RAG cache."""

from __future__ import annotations

import pytest

from repro.core.cache import AvoidanceCache, Yield
from repro.core.callstack import CallStack
from repro.core.errors import AvoidanceError


def stack(*labels):
    return CallStack.from_labels(list(labels))


SA = stack("a:1", "x:9")
SB = stack("b:2", "x:9")


@pytest.fixture
def cache():
    return AvoidanceCache()


class TestAllowEdges:
    def test_add_and_remove_allow(self, cache):
        cache.add_allow(1, 10, SA)
        assert cache.waiting_of(1) == (10, SA)
        assert cache.remove_allow(1) == (10, SA)
        assert cache.waiting_of(1) is None

    def test_new_allow_replaces_previous(self, cache):
        cache.add_allow(1, 10, SA)
        cache.add_allow(1, 11, SB)
        assert cache.waiting_of(1) == (11, SB)
        # The stale entry must not linger in the Allowed sets.
        assert cache.candidates_matching(SA, 2, set(), set()) == []

    def test_allow_appears_in_candidates(self, cache):
        cache.add_allow(1, 10, SA)
        candidates = cache.candidates_matching(SA, 2, set(), set())
        assert candidates == [(1, 10, SA)]


class TestHoldEdges:
    def test_add_hold_promotes_allow(self, cache):
        cache.add_allow(1, 10, SA)
        assert cache.add_hold(1, 10, SA) == 1
        assert cache.holder_of(10) == 1
        assert cache.waiting_of(1) is None
        assert cache.hold_count(1, 10) == 1

    def test_reentrant_holds(self, cache):
        cache.add_hold(1, 10, SA)
        assert cache.add_hold(1, 10, SB) == 2
        fully, _ = cache.release_hold(1, 10)
        assert not fully
        fully, _ = cache.release_hold(1, 10)
        assert fully
        assert cache.holder_of(10) is None

    def test_conflicting_hold_raises(self, cache):
        cache.add_hold(1, 10, SA)
        with pytest.raises(AvoidanceError):
            cache.add_hold(2, 10, SB)

    def test_release_not_held_raises(self, cache):
        with pytest.raises(AvoidanceError):
            cache.release_hold(1, 10)

    def test_release_removes_from_allowed_set(self, cache):
        cache.add_hold(1, 10, SA)
        cache.release_hold(1, 10)
        assert cache.candidates_matching(SA, 2, set(), set()) == []

    def test_locks_held_by_and_total(self, cache):
        cache.add_hold(1, 10, SA)
        cache.add_hold(1, 11, SB)
        cache.add_hold(1, 11, SB)
        assert sorted(cache.locks_held_by(1)) == [10, 11]
        assert len(cache.held_stacks(1)) == 3


def begin_yield(cache, thread_id, causes):
    record = Yield(None, 0, SA, tuple(causes), 0.0, None)
    cache.begin_yield(thread_id, cache.slots.get(thread_id), record)
    return record


class TestYieldCauses:
    def test_begin_and_end(self, cache):
        record = begin_yield(cache, 1, [(2, 20, SA)])
        assert cache.slots.get(1).yielding is record
        assert cache.yielding_threads() == [1]
        assert cache.end_yield(1, cache.slots.get(1)) is record
        assert cache.slots.get(1).yielding is None
        assert cache.yielding_threads() == []
        assert cache.end_yield(1, cache.slots.get(1)) is None  # withdrawn once

    def test_threads_to_wake_matches_thread_and_lock(self, cache):
        cache.add_hold(2, 20, SA)
        record = begin_yield(cache, 1, [(2, 20, SA)])
        begin_yield(cache, 3, [(2, 21, SA)])
        cache.release_hold(2, 20)
        assert cache.threads_to_wake(2, 20, SA) == [(1, record)]

    def test_forget_thread_cleans_everything(self, cache):
        cache.add_allow(1, 10, SA)
        cache.add_hold(1, 11, SB)
        begin_yield(cache, 1, [(2, 20, SA)])
        cache.forget_thread(1)
        assert cache.waiting_of(1) is None
        assert cache.yielding_threads() == []
        # What it still holds stays held until returned; then the slot goes.
        assert cache.holder_of(11) == 1
        cache.release_hold(1, 11)
        assert cache.holder_of(11) is None
        assert cache.candidates_matching(SB, 2, set(), set()) == []
        assert cache.slots.peek(1) is None


class TestCandidates:
    def test_exclusions(self, cache):
        cache.add_hold(1, 10, SA)
        cache.add_hold(2, 11, SA)
        assert len(cache.candidates_matching(SA, 2, set(), set())) == 2
        assert cache.candidates_matching(SA, 2, {1}, set()) == [(2, 11, SA)]
        assert cache.candidates_matching(SA, 2, set(), {11}) == [(1, 10, SA)]

    def test_matching_depth(self, cache):
        cache.add_hold(1, 10, stack("a:1", "caller:5"))
        sig_stack = stack("a:1", "other:7")
        assert len(cache.candidates_matching(sig_stack, 1, set(), set())) == 1
        assert cache.candidates_matching(sig_stack, 2, set(), set()) == []

    def test_snapshot_and_sizes(self, cache):
        cache.add_hold(1, 10, SA)
        cache.add_allow(2, 11, SB)
        snap = cache.snapshot()
        assert snap["holders"] == {10: (1, 1)}
        assert snap["waiting"] == {2: 11}
        assert snap["distinct_stacks"] == 2
        assert sum(cache.allowed_set_sizes().values()) == 2

    def test_sizes_total_is_the_live_hold_and_wait_bindings(self, cache):
        """What ``harness.resources`` sizes: stack -> bindings, nothing stale in it."""
        cache.add_hold(1, 10, SA)
        cache.add_hold(1, 10, SB)  # reentrant, from another position
        cache.add_hold(2, 11, SA)
        cache.add_allow(3, 10, SA)
        assert cache.allowed_set_sizes() == {SA: 3, SB: 1}
        cache.release_hold(1, 10)  # the inner hold goes, and its stack with it
        assert cache.allowed_set_sizes() == {SA: 3}
        cache.remove_allow(3)
        cache.release_hold(1, 10)
        cache.release_hold(2, 11)
        assert cache.allowed_set_sizes() == {}

    def test_a_binding_stays_while_an_equal_stack_backs_another_edge(self, cache):
        cache.add_hold(1, 10, SA)
        cache.add_hold(1, 10, stack("a:1", "x:9"))  # reentrant, same position
        cache.release_hold(1, 10)
        assert cache.candidates_matching(SA, 2, set(), set()) == [(1, 10, SA)]
        cache.release_hold(1, 10)
        assert cache.candidates_matching(SA, 2, set(), set()) == []
