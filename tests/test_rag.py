"""Unit tests for the resource allocation graph."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.callstack import CallStack
from repro.core.errors import RAGError
from repro.core.events import (Event, acquired_event, allow_event, cancel_event,
                               encode_event, release_event, request_event, yield_event)
from repro.core.rag import ResourceAllocationGraph
from repro.core.signature import EXCLUSIVE, SHARED


def stack(*labels):
    return CallStack.from_labels(list(labels))


S = stack("f:1", "g:2")
S2 = stack("h:3", "g:2")


@pytest.fixture
def rag():
    return ResourceAllocationGraph()


class TestEdges:
    def test_request_edge(self, rag):
        rag.apply(request_event(1, 10, S))
        assert rag.thread(1).request == (10, S)
        assert rag.thread(1).waiting_lock == 10

    def test_allow_replaces_request(self, rag):
        rag.apply(request_event(1, 10, S))
        rag.apply(allow_event(1, 10, S))
        state = rag.thread(1)
        assert state.request is None
        assert state.allow == (10, S)
        assert rag.thread(1).allow[0] == 10

    def test_yield_flips_allow_back_to_request(self, rag):
        rag.apply(allow_event(1, 10, S))
        rag.apply(yield_event(1, 10, S, causes=((2, 20, S2),)))
        state = rag.thread(1)
        assert state.allow is None
        assert state.request == (10, S)
        assert state.is_yielding
        assert rag.thread(1).allow is None

    def test_acquired_creates_hold_edge(self, rag):
        rag.apply(allow_event(1, 10, S))
        rag.apply(acquired_event(1, 10, S))
        assert rag.holder_of(10) == 1
        assert rag.hold_stack(10) == S
        assert rag.thread(1).allow is None
        assert rag.thread(1).hold_count == 1

    def test_reentrant_holds_are_multiset(self, rag):
        rag.apply(acquired_event(1, 10, S))
        rag.apply(acquired_event(1, 10, S2))
        assert rag.thread(1).hold_count == 2
        assert rag.hold_stack(10) == S2
        rag.apply(release_event(1, 10))
        assert rag.holder_of(10) == 1
        rag.apply(release_event(1, 10))
        assert rag.holder_of(10) is None

    def test_release_without_hold_ignored_by_default(self, rag):
        rag.apply(release_event(1, 10))
        assert rag.holder_of(10) is None

    def test_release_without_hold_strict_raises(self):
        rag = ResourceAllocationGraph(strict=True)
        with pytest.raises(RAGError):
            rag.apply(release_event(1, 10))

    def test_cancel_clears_waiting_state(self, rag):
        rag.apply(allow_event(1, 10, S))
        rag.apply(cancel_event(1, 10))
        assert rag.thread(1).waiting_lock is None
        assert rag.thread(1).allow is None

    def test_acquire_while_owned_nonstrict_recovers(self, rag):
        rag.apply(acquired_event(1, 10, S))
        rag.apply(acquired_event(2, 10, S2))
        assert rag.holder_of(10) == 2

    def test_acquire_while_owned_strict_raises(self):
        rag = ResourceAllocationGraph(strict=True)
        rag.apply(acquired_event(1, 10, S))
        with pytest.raises(RAGError):
            rag.apply(acquired_event(2, 10, S2))


class TestBookkeeping:
    def test_dirty_threads_tracking(self, rag):
        rag.apply(request_event(1, 10, S))
        rag.apply(request_event(2, 20, S))
        assert rag.dirty_threads == {1, 2}
        rag.clear_dirty()
        assert rag.dirty_threads == set()

    def test_edge_counts(self, rag):
        rag.apply(acquired_event(1, 10, S))
        rag.apply(allow_event(2, 10, S2))
        rag.apply(yield_event(3, 20, S, causes=((1, 10, S),)))
        counts = rag.edge_counts()
        assert counts == {"request": 1, "allow": 1, "hold": 1, "yield": 1}

    def test_snapshot_is_json_friendly(self, rag):
        import json
        rag.apply(acquired_event(1, 10, S))
        rag.apply(allow_event(2, 10, S2))
        json.dumps(rag.snapshot())

    def test_apply_batch_counts(self, rag):
        applied = rag.apply_batch([request_event(1, 10, S), allow_event(1, 10, S)])
        assert applied == 2
        assert rag.events_applied == 2

    def test_forget_thread(self, rag):
        rag.apply(acquired_event(1, 10, S))
        rag.apply(release_event(1, 10))
        rag.forget_thread(1)
        assert 1 not in rag.thread_ids()

    def test_forget_thread_with_edges_raises(self, rag):
        rag.apply(acquired_event(1, 10, S))
        with pytest.raises(RAGError):
            rag.forget_thread(1)


# -- one apply loop: every way of feeding a stream gives one graph ------------------------

MUTEX, SEMAPHORE, RWLOCK = 10, 20, 30
#: Resource -> its permit count, as its records carry it.
CAPACITY = {MUTEX: 1, SEMAPHORE: 2, RWLOCK: 1}
STACKS = (S, S2, stack("k:4", "g:2"))

steps = st.lists(st.tuples(st.sampled_from(("acquire", "acquire", "release", "yield",
                                           "cancel")),
                           st.integers(1, 3), st.sampled_from(sorted(CAPACITY)),
                           st.booleans(), st.sampled_from(STACKS)),
                 max_size=60)


class _Stream:
    """Builds a plausible record stream while tracking who holds what."""

    def __init__(self):
        self.events: List[Event] = []
        #: (thread, lock) -> the modes of its holds, oldest first.
        self.holds: Dict[Tuple[int, int], List[str]] = {}

    def emit(self, make, thread, lock, *args, **kwargs):
        self.events.append(make(thread, lock, *args, **kwargs))

    def grantable(self, thread, lock, mode) -> bool:
        others = [modes for (tid, lid), modes in self.holds.items()
                  if lid == lock and tid != thread and modes]
        mine = self.holds.get((thread, lock), [])
        if lock == MUTEX:
            return not others
        if lock == SEMAPHORE:
            return sum(map(len, others)) + len(mine) < CAPACITY[SEMAPHORE]
        if mode == SHARED:
            return not any(EXCLUSIVE in modes for modes in others)
        return not others

    def acquire(self, thread, lock, mode, at, searched):
        spec = dict(mode=mode, capacity=CAPACITY[lock])
        if searched:
            self.emit(request_event, thread, lock, at, **spec)
        self.emit(allow_event, thread, lock, at, **spec)
        if self.grantable(thread, lock, mode):
            self.emit(acquired_event, thread, lock, at, **spec)
            self.holds.setdefault((thread, lock), []).append(mode)
        else:  # a timed wait that gave up
            self.emit(cancel_event, thread, lock)

    def release(self, thread, lock):
        modes = self.holds.get((thread, lock))
        if modes:
            modes.pop()
            self.emit(release_event, thread, lock)

    def yield_(self, thread, lock, mode, at):
        causes = tuple((tid, lid, STACKS[(tid + lid) % len(STACKS)])
                       for (tid, lid), modes in sorted(self.holds.items())
                       if modes and tid != thread)
        spec = dict(mode=mode, capacity=CAPACITY[lock])
        self.emit(request_event, thread, lock, at, **spec)
        self.emit(yield_event, thread, lock, at, causes, **spec)

    def inversion(self):
        """The next owner's ACQUIRED of the mutex lands before its owner's RELEASE."""
        owner = next((tid for (tid, lid), modes in self.holds.items()
                      if lid == MUTEX and modes), None)
        if owner is None:
            owner = 1
            self.acquire(owner, MUTEX, EXCLUSIVE, S, False)
        successor = owner % 3 + 1
        self.emit(allow_event, successor, MUTEX, S2)
        self.emit(acquired_event, successor, MUTEX, S2)
        self.emit(release_event, owner, MUTEX)
        for (tid, lid) in list(self.holds):
            if lid == MUTEX:
                del self.holds[tid, lid]  # the graph drops every stale edge
        self.holds[successor, MUTEX] = [EXCLUSIVE]


def _stream(plan, inversion_at) -> List[Event]:
    stream = _Stream()
    for index, (kind, thread, lock, flag, at) in enumerate(plan):
        if index == inversion_at:
            stream.inversion()
        mode = SHARED if lock == RWLOCK and flag else EXCLUSIVE
        if kind == "acquire":
            stream.acquire(thread, lock, mode, at, searched=flag)
        elif kind == "release":
            stream.release(thread, lock)
        elif kind == "yield":
            stream.yield_(thread, lock, mode, at)
        else:
            stream.acquire(thread, lock, mode, at, searched=True)
            stream.emit(cancel_event, thread, lock)
    if inversion_at >= len(plan):
        stream.inversion()
    return stream.events


def _outcome(graph: ResourceAllocationGraph):
    return (graph.snapshot(), graph.order_violations, graph.events_applied,
            graph.dirty_threads)


class TestOneApplyLoop:
    """A record stream applied in one batch, in random batches, or Event by Event
    leaves one graph: the same snapshot, order violations, count and dirty set."""

    @settings(max_examples=150, deadline=None)
    @given(plan=steps, inversion_at=st.integers(0, 60), data=st.data())
    def test_every_way_of_applying_a_stream_gives_one_graph(self, plan, inversion_at, data):
        events = _stream(plan, inversion_at)
        records = [encode_event(event) for event in events]

        whole = ResourceAllocationGraph()
        assert whole.apply_encoded(records) == len(records)

        cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=6)))
        batched = ResourceAllocationGraph()
        for start, end in zip([0] + cuts, cuts + [len(records)]):
            batched.apply_encoded(records[start:end])

        one_by_one = ResourceAllocationGraph()
        for event in events:
            one_by_one.apply(event)

        assert whole.order_violations == 1
        assert _outcome(whole) == _outcome(batched) == _outcome(one_by_one)
