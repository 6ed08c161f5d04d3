"""Event-bus races: append order across drains, hand-over order, retirement.

Every record goes to one queue, so a drain must hand records over in the
order they were appended; everything here checks that order against
what the producers know of it, under limit-cut drains and constant
preemption, and the ring life-cycle around it.
"""

from __future__ import annotations

import random
import threading

from repro.core.callstack import CallStack
from repro.core.events import EV_ACQUIRED, EV_RELEASE, EV_REQUEST, EventBus

from .harness import assert_producer_order, preemption_pressure, run_threads

STACK = CallStack.from_labels(["f:1", "g:2"])


class TestHandOverOrder:
    """A record emitted before a hand-over through a real lock drains before one emitted after it."""

    def test_a_token_passed_through_a_lock_drains_in_hand_over_order(self):
        workers, passes = 4, 1500
        bus = EventBus()
        lock = threading.Lock()
        token = iter(range(passes))
        rng = random.Random(0x70CE)
        done = threading.Event()
        batches = []

        def worker(thread_id):
            while True:
                with lock:  # the token changes hands here
                    value = next(token, None)
                    if value is None:
                        return
                    bus.emit(EV_ACQUIRED, thread_id, value, STACK)

        def consume():
            while not done.is_set() or bus:
                batches.append(bus.drain_raw(limit=rng.randrange(1, 64)))
            batches.append(bus.drain_raw())

        with preemption_pressure():
            consumer = threading.Thread(target=consume)
            consumer.start()
            run_threads([lambda tid=tid: worker(tid) for tid in range(1, workers + 1)])
            done.set()
            consumer.join(30.0)

        assert not consumer.is_alive()
        assert [record[2] for batch in batches for record in batch] == list(range(passes))


class TestRetirementChurn:
    """Stress: short-lived producer threads must never lose records or counts."""

    def test_no_loss_under_producer_churn(self):
        producers, per_thread, rounds = 4, 250, 6
        for seed in range(rounds):
            bus = EventBus(ring_capacity=per_thread + 16)
            rng = random.Random(seed)
            start = threading.Barrier(producers + 1)
            done = threading.Event()

            def produce(thread_id):
                start.wait()
                for index in range(per_thread):
                    bus.emit(EV_REQUEST, thread_id, index, STACK)

            batches = []

            def consume():
                start.wait()
                while not done.is_set() or bus:
                    batches.append(bus.drain_raw(limit=rng.randrange(1, 120)))
                batches.append(bus.drain_raw())

            with preemption_pressure():
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

            assert_producer_order(batches, producers, per_thread)
            assert bus.dropped == 0, f"seed {seed}"
            # Producers are dead and drained: their rings must retire,
            # with the lifetime counters surviving the retirement.
            bus.drain_raw()
            assert bus.ring_count == 0, f"seed {seed}"
            assert bus.total_enqueued == producers * per_thread, f"seed {seed}"
            assert bus.total_drained == producers * per_thread, f"seed {seed}"


class TestEmitStorm:
    """Each producer puts its running index in ``lock_id``; limit-cut drains must keep it."""

    def test_each_producer_keeps_its_order_under_pressure(self):
        producers, per_thread = 4, 800
        bus = EventBus(ring_capacity=per_thread + 16)
        rng = random.Random(0xD1A6)
        done = threading.Event()
        batches = []

        def produce(thread_id):
            for index in range(per_thread):
                code = EV_ACQUIRED if index % 2 else EV_RELEASE
                bus.emit(code, thread_id, index, STACK)

        def consume():
            while not done.is_set() or bus:
                batches.append(bus.drain_raw(limit=rng.randrange(1, 90)))
            batches.append(bus.drain_raw())

        with preemption_pressure():
            consumer = threading.Thread(target=consume)
            consumer.start()
            run_threads([lambda tid=tid: produce(tid)
                         for tid in range(1, producers + 1)])
            done.set()
            consumer.join(30.0)

        assert not consumer.is_alive()
        assert_producer_order(batches, producers, per_thread)
        assert bus.dropped == 0
        assert bus.total_drained == producers * per_thread
        records = [record for batch in batches for record in batch]
        assert all(code == (EV_ACQUIRED if index % 2 else EV_RELEASE)
                   for code, _tid, index, *_rest in records)
