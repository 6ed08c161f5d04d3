"""Tests for the synchronization event types."""

from __future__ import annotations

from repro.core.callstack import CallStack
from repro.core.events import ( EventType, acquired_event, allow_event,
                               cancel_event, release_event, request_event,
                               yield_event)


def stack():
    return CallStack.from_labels(["f:1"])


class TestEventConstructors:
    def test_types(self):
        s = stack()
        assert request_event(1, 2, s).type is EventType.REQUEST
        assert allow_event(1, 2, s).type is EventType.ALLOW
        assert acquired_event(1, 2, s).type is EventType.ACQUIRED
        assert release_event(1, 2).type is EventType.RELEASE
        assert cancel_event(1, 2).type is EventType.CANCEL
        assert yield_event(1, 2, s, ((3, 4, s),)).type is EventType.YIELD

    def test_events_with_the_same_fields_are_equal(self):
        """An event is its fields: no sequence number tells two equal ones apart."""
        assert request_event(1, 2, stack()) == request_event(1, 2, stack())
        assert request_event(1, 2, stack()) != request_event(1, 3, stack())

    def test_yield_event_carries_causes(self):
        s = stack()
        event = yield_event(1, 2, s, causes=((3, 4, s), (5, 6, s)))
        assert len(event.causes) == 2
        assert event.causes[0][0] == 3

    def test_timestamp_passthrough(self):
        event = acquired_event(1, 2, stack(), timestamp=12.5)
        assert event.timestamp == 12.5

    def test_events_are_frozen(self):
        event = request_event(1, 2, stack())
        try:
            event.thread_id = 9
            mutated = True
        except Exception:
            mutated = False
        assert not mutated

    def test_repr_is_compact(self):
        text = repr(request_event(1, 2, stack()))
        assert "request" in text and "thread=1" in text
