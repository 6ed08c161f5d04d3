"""Tests for the ring-buffered event bus (the hot-path event path).

The engine's six emission points write tuple-encoded records into
per-thread bounded rings (:class:`~repro.core.events.EventBus`); the
monitor drains all rings in one batch, merged by global sequence number,
which preserves the paper's section 5.2 partial order (every event a
thread emitted before another of its own events is applied first).
"""

from __future__ import annotations

import threading

from repro.core.avoidance import AvoidanceEngine
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.events import (EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE,
                               EV_REQUEST, EV_YIELD, CODE_TO_TYPE, EventBus,
                               EventType, TYPE_TO_CODE, acquired_event,
                               cancel_event, decode_event, encode_event,
                               release_event, request_event, yield_event)
from repro.core.history import History


def stack():
    return CallStack.from_labels(["f:1", "g:2"])


class TestEncoding:
    def test_roundtrip_preserves_every_field(self):
        s = stack()
        for event in (request_event(1, 2, s, timestamp=3.5, mode="shared",
                                    capacity=4),
                      yield_event(1, 2, s, causes=((7, 8, s),)),
                      acquired_event(1, 2, s),
                      release_event(1, 2),
                      cancel_event(1, 2)):
            decoded = decode_event(encode_event(event))
            assert decoded == event
            assert decoded.seq == event.seq

    def test_code_tables_are_inverse(self):
        for code, event_type in enumerate(CODE_TO_TYPE):
            assert TYPE_TO_CODE[event_type] == code
        assert CODE_TO_TYPE[EV_REQUEST] is EventType.REQUEST
        assert CODE_TO_TYPE[EV_ALLOW] is EventType.ALLOW
        assert CODE_TO_TYPE[EV_YIELD] is EventType.YIELD
        assert CODE_TO_TYPE[EV_ACQUIRED] is EventType.ACQUIRED
        assert CODE_TO_TYPE[EV_RELEASE] is EventType.RELEASE
        assert CODE_TO_TYPE[EV_CANCEL] is EventType.CANCEL


class TestEventBus:
    def test_emit_then_drain_decodes_in_order(self):
        bus = EventBus()
        s = stack()
        bus.emit(EV_REQUEST, 1, 10, s)
        bus.emit(EV_ALLOW, 1, 10, s)
        bus.emit(EV_ACQUIRED, 1, 10, s)
        events = bus.drain()
        assert [e.type for e in events] == [EventType.REQUEST,
                                            EventType.ALLOW,
                                            EventType.ACQUIRED]
        assert events[0].seq < events[1].seq < events[2].seq
        assert not bus

    def test_put_event_compat(self):
        # put() re-stamps with a bus-owned seq (the bus needs a contiguous
        # sequence space for its ordering guarantee); every other field of
        # the Event round-trips.
        bus = EventBus()
        event = request_event(3, 4, stack())
        assert bus.put(event)
        (drained,) = bus.drain()
        assert drained.seq == 1
        assert (drained.type, drained.thread_id, drained.lock_id,
                drained.stack, drained.causes, drained.timestamp,
                drained.mode, drained.capacity) == (
            event.type, event.thread_id, event.lock_id, event.stack,
            event.causes, event.timestamp, event.mode, event.capacity)

    def test_bounded_ring_drops_newest_and_counts(self):
        bus = EventBus(ring_capacity=4)
        s = stack()
        accepted = [bus.emit(EV_REQUEST, 1, i, s) for i in range(7)]
        assert accepted == [True] * 4 + [False] * 3
        assert bus.dropped == 3
        assert len(bus) == 4
        # The accepted prefix survives, in order.
        assert [e.lock_id for e in bus.drain()] == [0, 1, 2, 3]

    def test_drain_limit_keeps_leftovers_in_order(self):
        bus = EventBus()
        s = stack()
        for i in range(10):
            bus.emit(EV_REQUEST, 1, i, s)
        first = bus.drain_raw(limit=4)
        second = bus.drain_raw()
        assert [r[3] for r in first] == [0, 1, 2, 3]
        assert [r[3] for r in second] == [4, 5, 6, 7, 8, 9]

    def test_watermarks_and_clear(self):
        bus = EventBus()
        s = stack()
        for i in range(5):
            bus.emit(EV_RELEASE, 1, i, s)
        assert bus.total_enqueued == 5
        assert bus.high_water_mark == 5
        assert bus.peek_size() == 5
        bus.clear()
        assert len(bus) == 0
        assert bus.drain() == []

    def test_rejects_silly_capacity(self):
        try:
            EventBus(ring_capacity=0)
            raised = False
        except ValueError:
            raised = True
        assert raised

    def test_concurrent_emit_drain_preserves_per_thread_order(self):
        """Property: batched draining loses nothing and keeps each
        producer's events in emission order, with a consumer draining
        concurrently with the producers."""
        producers, per_thread = 4, 2000
        bus = EventBus(ring_capacity=per_thread + 16)
        s = stack()
        start = threading.Barrier(producers + 1)
        done = threading.Event()

        def produce(thread_id: int) -> None:
            start.wait()
            for i in range(per_thread):
                bus.emit(EV_REQUEST, thread_id, i, s)

        collected = []

        def consume() -> None:
            start.wait()
            while not done.is_set() or bus:
                collected.extend(bus.drain_raw(limit=97))

        pool = [threading.Thread(target=produce, args=(tid,))
                for tid in range(1, producers + 1)]
        consumer = threading.Thread(target=consume)
        consumer.start()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        done.set()
        consumer.join()

        assert bus.dropped == 0
        assert len(collected) == producers * per_thread
        by_thread = {tid: [] for tid in range(1, producers + 1)}
        for record in collected:
            by_thread[record[2]].append(record[3])
        for tid, payloads in by_thread.items():
            assert payloads == list(range(per_thread)), f"thread {tid}"
        # Each producer's seq numbers are strictly increasing too.
        seqs = {tid: [] for tid in by_thread}
        for record in collected:
            seqs[record[2]].append(record[0])
        for tid, values in seqs.items():
            assert values == sorted(values), f"thread {tid}"

    def test_cross_drain_global_seq_order_property(self):
        """Property (the §5.2 total order, across drain boundaries): with
        concurrent emitters and arbitrary ``drain_raw(limit=...)`` cut
        points, the concatenation of all drained batches is in strictly
        increasing global seq order, nothing is lost, and no seq slot is
        ever given up for lost.  Fails on pre-PR-7 code, where a record
        could be drained before an earlier-seq record had landed."""
        import random
        import sys

        producers, per_thread = 4, 1500
        bus = EventBus(ring_capacity=per_thread + 16)
        s = stack()
        start = threading.Barrier(producers + 1)
        done = threading.Event()
        rng = random.Random(0x5152)

        def produce(thread_id: int) -> None:
            start.wait()
            for i in range(per_thread):
                bus.emit(EV_REQUEST, thread_id, i, s)

        batches = []

        def consume() -> None:
            start.wait()
            while not done.is_set() or bus:
                batches.append(bus.drain_raw(limit=rng.randrange(1, 120)))
            batches.append(bus.drain_raw())

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent preemption
        try:
            pool = [threading.Thread(target=produce, args=(tid,))
                    for tid in range(1, producers + 1)]
            consumer = threading.Thread(target=consume)
            consumer.start()
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            done.set()
            consumer.join()
        finally:
            sys.setswitchinterval(old_interval)

        collected = [record for batch in batches for record in batch]
        assert len(collected) == producers * per_thread
        seqs = [record[0] for record in collected]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # Seq space is contiguous: drops never allocate, so none skipped.
        assert seqs == list(range(1, len(seqs) + 1))
        assert bus.seq_gaps_skipped == 0
        assert bus.stragglers == 0
        assert bus.total_drained == len(collected)

    def test_peek_size_consistent_with_enqueued_minus_drained(self):
        """The documented peek_size() envelope: with the consumer reading
        ``peek_size()`` *before* ``total_enqueued`` (rings bump ``total``
        before appending), ``peek_size() <= total_enqueued -
        total_drained`` at every instant, with equality once producers
        are quiescent; the lifetime counters only grow."""
        producers, per_thread = 3, 1200
        bus = EventBus(ring_capacity=per_thread + 16)
        s = stack()
        start = threading.Barrier(producers + 1)
        done = threading.Event()

        def produce(thread_id: int) -> None:
            start.wait()
            for i in range(per_thread):
                bus.emit(EV_ACQUIRED, thread_id, i, s)

        drained_count = 0
        violations = []
        monotone = []

        def consume() -> None:
            nonlocal drained_count
            last_enqueued = last_drained = 0
            start.wait()
            while not done.is_set() or bus:
                drained = bus.total_drained  # consumer-owned, stable here
                backlog = bus.peek_size()
                enqueued = bus.total_enqueued
                if backlog > enqueued - drained:
                    violations.append((backlog, enqueued, drained))
                if enqueued < last_enqueued or drained < last_drained:
                    monotone.append((enqueued, drained))
                last_enqueued, last_drained = enqueued, drained
                drained_count += len(bus.drain_raw(limit=64))

        pool = [threading.Thread(target=produce, args=(tid,))
                for tid in range(1, producers + 1)]
        consumer = threading.Thread(target=consume)
        consumer.start()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        done.set()
        consumer.join()

        assert not violations, violations[:5]
        assert not monotone, monotone[:5]
        assert drained_count == producers * per_thread
        assert bus.peek_size() == 0
        assert bus.total_enqueued - bus.total_drained == 0

    def test_dead_thread_rings_are_retired_but_counters_survive(self):
        """Rings of terminated threads are retired during drain, and a
        later thread (which may recycle the OS ident) starts from fresh
        counters while the bus-level lifetime totals keep the retired
        rings' contributions.  Pre-PR-7, rings were keyed by ident and
        lived (and leaked) forever."""
        bus = EventBus(ring_capacity=4)
        s = stack()

        def burst(thread_id: int) -> None:
            for i in range(6):  # 4 land, 2 drop
                bus.emit(EV_REQUEST, thread_id, i, s)

        for generation in range(5):
            thread = threading.Thread(target=burst, args=(generation,))
            thread.start()
            thread.join()
            assert len(bus.drain_raw()) == 4
        # All producer threads are dead and drained: every ring retires.
        bus.drain_raw()
        assert bus.ring_count == 0
        # Lifetime counters still include the retired rings.
        assert bus.total_enqueued == 20
        assert bus.dropped == 10
        assert bus.total_drained == 20
        assert bus.high_water_mark == 20  # 5 rings x high-water 4


class TestEngineRingPath:
    def test_engine_default_bus_is_ring_buffered(self):
        engine = AvoidanceEngine(History(path=None, autosave=False),
                                 DimmunixConfig.for_testing())
        assert isinstance(engine.events, EventBus)
        assert engine.events.ring_capacity == engine.config.event_ring_size

    def test_engine_emissions_drain_as_encoded_records(self):
        engine = AvoidanceEngine(History(path=None, autosave=False),
                                 DimmunixConfig.for_testing())
        s = stack()
        engine.request(1, 10, s)
        engine.acquired(1, 10, s)
        engine.release(1, 10)
        records = engine.events.drain_raw()
        assert [r[1] for r in records] == [EV_ALLOW,
                                           EV_ACQUIRED, EV_RELEASE]
        assert all(r[2] == 1 and r[3] == 10 for r in records)
