"""Tests for the event bus (the hot-path event path).

The engine's six emission points append tuple-encoded records to one
bounded queue (:class:`~repro.core.events.EventBus`); the monitor drains
it in append order, which preserves the paper's section 5.2 partial
order (a record appended before another is applied first).
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
from collections import deque

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
            assert decode_event(encode_event(event)) == event

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
        assert not bus

    def test_put_event_compat(self):
        bus = EventBus()
        event = yield_event(3, 4, stack(), causes=((5, 6, stack()),),
                            timestamp=2.5, mode="shared", capacity=2)
        assert bus.put(event)
        assert bus.drain() == [event]

    def test_bounded_ring_drops_newest_and_counts(self):
        bus = EventBus(ring_capacity=4)
        s = stack()
        accepted = [bus.emit(EV_REQUEST, 1, i, s) for i in range(7)]
        assert accepted == [True] * 4 + [False] * 3
        assert bus.dropped == 3
        assert len(bus) == 4
        # The accepted prefix survives, in order.
        assert [e.lock_id for e in bus.drain()] == [0, 1, 2, 3]

    def test_two_threads_each_fill_their_share_and_the_next_record_drops(self):
        """The queue holds ``ring_capacity`` records per producing thread."""
        bus = EventBus(ring_capacity=8)
        s = stack()
        filled = threading.Barrier(2)
        accepted = {}

        def produce(thread_id):
            accepted[thread_id] = [bus.emit(EV_REQUEST, thread_id, i, s) for i in range(8)]
            filled.wait(10.0)
            if thread_id == 1:
                accepted[thread_id].append(bus.emit(EV_REQUEST, thread_id, 8, s))

        threads = [threading.Thread(target=produce, args=(tid,)) for tid in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert accepted == {1: [True] * 8 + [False], 2: [True] * 8}
        assert bus.dropped == 1
        assert bus.counts()[EV_REQUEST] == 17  # the dropped record is counted too
        assert len(bus.drain_raw()) == 16

    def test_drain_limit_keeps_leftovers_in_order(self):
        bus = EventBus()
        s = stack()
        for i in range(10):
            bus.emit(EV_REQUEST, 1, i, s)
        first = bus.drain_raw(limit=4)
        second = bus.drain_raw()
        assert [r[2] for r in first] == [0, 1, 2, 3]
        assert [r[2] for r in second] == [4, 5, 6, 7, 8, 9]

    def test_a_failed_append_holds_back_nothing_after_it(self):
        """An emit whose append raises leaves no hole for later records to wait behind."""
        class FailsOnce(deque):
            failed = False

            def append(self, record):
                if not self.failed:
                    self.failed = True
                    raise MemoryError("append failed")
                super().append(record)

        bus = EventBus()
        bus._queue = FailsOnce()
        s = stack()
        raised = []

        def doomed():
            try:
                bus.emit(EV_REQUEST, 1, 0, s)
            except MemoryError as error:
                raised.append(error)

        thread = threading.Thread(target=doomed)
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive() and len(raised) == 1
        for lock_id in (1, 2, 3):
            assert bus.emit(EV_REQUEST, 2, lock_id, s)
        assert [r[2] for r in bus.drain_raw()] == [1, 2, 3]
        assert not bus

    def test_watermarks(self):
        bus = EventBus()
        s = stack()
        for i in range(5):
            bus.emit(EV_RELEASE, 1, i, s)
        assert bus.total_enqueued == 5
        assert bus.high_water_mark == 5
        assert bus.peek_size() == 5

    def test_the_high_water_mark_read_without_a_drain_is_the_backlog(self):
        bus = EventBus()
        s = stack()
        for count in (3, 5):
            for i in range(count):
                bus.emit(EV_REQUEST, 1, i, s)
            assert bus.high_water_mark == len(bus)
        assert len(bus) == 8
        bus.drain_raw(limit=6)
        assert bus.high_water_mark == 8  # the largest backlog seen, not the current one
        for i in range(10):
            bus.emit(EV_REQUEST, 1, i, s)
        assert bus.high_water_mark == len(bus) == 12

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
            by_thread[record[1]].append(record[2])
        for tid, payloads in by_thread.items():
            assert payloads == list(range(per_thread)), f"thread {tid}"

    def test_cross_drain_global_seq_order_property(self):
        """Property (the §5.2 total order, across drain boundaries): with
        concurrent emitters and arbitrary ``drain_raw(limit=...)`` cut
        points, the concatenation of all drained batches is in the order
        the records were appended, none lost and none twice.  Each emit
        takes the next global stamp and appends under one lock, so stamp
        order is append order; the stamp rides in ``timestamp`` and the
        producer's own index in ``lock_id``."""
        producers, per_thread = 4, 1500
        bus = EventBus(ring_capacity=per_thread + 16)
        s = stack()
        start = threading.Barrier(producers + 1)
        done = threading.Event()
        rng = random.Random(0x5152)
        stamps, appending = itertools.count(), threading.Lock()

        def produce(thread_id: int) -> None:
            start.wait()
            for i in range(per_thread):
                with appending:
                    bus.emit(EV_REQUEST, thread_id, i, s, (), next(stamps))

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
        assert [record[5] for record in collected] == list(range(producers * per_thread))
        for tid in range(1, producers + 1):
            assert [r[2] for r in collected if r[1] == tid] == list(range(per_thread))
        assert bus.dropped == 0
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
        assert bus.high_water_mark == 4  # the largest backlog: one thread's four


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
        assert [r[0] for r in records] == [EV_ALLOW,
                                           EV_ACQUIRED, EV_RELEASE]
        assert all(r[1] == 1 and r[2] == 10 for r in records)
