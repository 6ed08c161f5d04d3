"""Unit tests for the resource allocation graph."""

from __future__ import annotations

import pytest

from repro.core.callstack import CallStack
from repro.core.errors import RAGError
from repro.core.events import (acquired_event, allow_event, cancel_event,
                               release_event, request_event, yield_event)
from repro.core.rag import ResourceAllocationGraph


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
