"""The avoidance cache's hold ledger against a naive per-lock model.

The cache keeps holds in each thread's slot alone, plus an owner map for
the double-acquire check of single-holder resources.  The model here keeps
the obvious thing instead — per lock, per thread, the list of hold edges —
and derives every answer from it.  Hypothesis drives random
``add_allow``/``add_hold``/``release_hold``/``forget_thread`` sequences over
three threads and three resources (a mutex, a two-permit semaphore and an
rwlock taken SHARED and EXCLUSIVE) and compares the two after every step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import AvoidanceCache
from repro.core.callstack import CallStack
from repro.core.errors import AvoidanceError
from repro.core.signature import EXCLUSIVE, SHARED

THREADS = (1, 2, 3)
MUTEX, SEMAPHORE, RWLOCK = 10, 20, 30
STACKS = tuple(CallStack.from_labels([f"site{index}:1", "caller:2"]) for index in range(3))

#: lock -> the (mode, capacity) pairs it is acquired with.
ACQUISITIONS = {MUTEX: [(EXCLUSIVE, 1)], SEMAPHORE: [(EXCLUSIVE, 2)],
                RWLOCK: [(SHARED, 1), (EXCLUSIVE, 1)]}


class NaiveLedger:
    """Per lock, per thread: the hold edges, each ``(stack, single_holder)``."""

    def __init__(self):
        self.edges: Dict[int, Dict[int, List[Tuple[CallStack, bool]]]] = {
            lock: {} for lock in ACQUISITIONS}
        self.waiting: Dict[int, int] = {}

    def owner(self, lock: int):
        """The thread whose current hold streak began single-holder, if any."""
        for thread, edges in self.edges[lock].items():
            if edges and edges[0][1]:
                return thread
        return None

    def add_hold(self, thread, lock, stack, mode, capacity) -> bool:
        """Record the hold; False when the cache must refuse it instead."""
        single = capacity == 1 and mode == EXCLUSIVE
        if single and thread not in self.edges[lock] and self.owner(lock) is not None:
            return False
        self.edges[lock].setdefault(thread, []).append((stack, single))
        if self.waiting.get(thread) == lock:
            del self.waiting[thread]
        return True

    def release_hold(self, thread, lock) -> bool:
        mine = self.edges[lock].get(thread)
        if not mine:
            return False
        mine.pop()
        if not mine:
            del self.edges[lock][thread]
        return True

    def forget_thread(self, thread) -> None:
        self.waiting.pop(thread, None)
        for holders in self.edges.values():
            holders.pop(thread, None)

    def holders_of(self, lock) -> List[int]:
        return sorted(self.edges[lock])

    def snapshot_holders(self):
        holders = {}
        for lock, by_thread in self.edges.items():
            if by_thread:
                threads = tuple(sorted(by_thread))
                holders[lock] = (threads[0] if len(threads) == 1 else threads,
                                 sum(len(edges) for edges in by_thread.values()))
        return holders

    def owners(self):
        return {lock: self.owner(lock) for lock in ACQUISITIONS
                if self.owner(lock) is not None}


operations = st.lists(st.one_of(
    st.tuples(st.just("allow"), st.sampled_from(THREADS), st.sampled_from(tuple(ACQUISITIONS)),
              st.sampled_from(STACKS)),
    st.tuples(st.just("hold"), st.sampled_from(THREADS), st.sampled_from(tuple(ACQUISITIONS)),
              st.sampled_from(STACKS), st.integers(0, 1)),
    st.tuples(st.just("release"), st.sampled_from(THREADS), st.sampled_from(tuple(ACQUISITIONS))),
    st.tuples(st.just("forget"), st.sampled_from(THREADS)),
), max_size=40)


def assert_agree(cache: AvoidanceCache, model: NaiveLedger) -> None:
    for lock in ACQUISITIONS:
        holders = model.holders_of(lock)
        assert cache.holders_of(lock) == holders
        assert cache.holder_of(lock) == (holders[0] if len(holders) == 1 else None)
        for thread in THREADS:
            assert cache.hold_count(thread, lock) == len(model.edges[lock].get(thread, ()))
    for thread in THREADS:
        waiting = cache.waiting_of(thread)
        assert (waiting[0] if waiting else None) == model.waiting.get(thread)
    assert cache.snapshot()["holders"] == model.snapshot_holders()
    assert cache._owners == model.owners()


@settings(max_examples=300, deadline=None)
@given(operations)
def test_the_slot_ledger_answers_as_the_per_lock_model(ops):
    cache, model = AvoidanceCache(), NaiveLedger()
    for op in ops:
        kind, thread = op[0], op[1]
        before = cache.snapshot()
        if kind == "allow":
            cache.add_allow(thread, op[2], op[3])
            model.waiting[thread] = op[2]
        elif kind == "hold":
            lock, stack = op[2], op[3]
            mode, capacity = ACQUISITIONS[lock][op[4] % len(ACQUISITIONS[lock])]
            if model.add_hold(thread, lock, stack, mode, capacity):
                cache.add_hold(thread, lock, stack, mode, capacity)
            else:  # a foreign double acquire of a held single-holder resource
                with pytest.raises(AvoidanceError):
                    cache.add_hold(thread, lock, stack, mode, capacity)
                assert cache.snapshot() == before
        elif kind == "release":
            if model.release_hold(thread, op[2]):
                cache.release_hold(thread, op[2])
            else:
                with pytest.raises(AvoidanceError):
                    cache.release_hold(thread, op[2])
                assert cache.snapshot() == before
        else:
            cache.forget_thread(thread)
            model.forget_thread(thread)
        assert_agree(cache, model)
    for thread in THREADS:
        cache.forget_thread(thread)
    assert cache._owners == {}
    assert cache.snapshot()["holders"] == {}
    assert cache.allowed_set_sizes() == {}
