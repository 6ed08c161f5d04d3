"""Event-bus publication races: hold-back, gap skip, retirement, order.

The bus allocates a sequence number and appends the record as two
separate steps; everything here attacks that window and the ring
life-cycle around it.
"""

from __future__ import annotations

import random
import threading
import time

from repro.core.callstack import CallStack
from repro.core.events import EV_ACQUIRED, EV_RELEASE, EV_REQUEST, EventBus

from .harness import (GatedSeq, assert_seq_order, preemption_pressure,
                      run_threads)

STACK = CallStack.from_labels(["f:1", "g:2"])


class TestHoldBack:
    """Deterministic: a later-seq record must wait for an earlier in-flight one."""

    def test_drain_holds_back_record_behind_inflight_emit(self):
        bus = EventBus(gap_timeout=30.0)
        gate = GatedSeq(bus._next_seq, trap="trapped")
        bus._next_seq = gate

        trapped = threading.Thread(
            target=lambda: bus.emit(EV_REQUEST, 1, 10, STACK),
            name="trapped-emitter")
        trapped.start()
        assert gate.allocated.wait(10.0)
        # Seq 1 is allocated but its record has NOT been appended.  Now a
        # second thread completes a full emit with seq 2.
        second = threading.Thread(
            target=lambda: bus.emit(EV_ACQUIRED, 2, 10, STACK),
            name="second-emitter")
        second.start()
        second.join(10.0)

        # Pre-fix code returned seq 2 here, breaking the cross-drain total
        # order; the fixed drain must hold it back behind the gap at seq 1.
        assert bus.drain_raw() == []
        assert bus.drain_raw() == []

        gate.release.set()
        trapped.join(10.0)
        records = bus.drain_raw()
        assert [record[0] for record in records] == [1, 2]
        assert [record[1] for record in records] == [EV_REQUEST, EV_ACQUIRED]
        assert bus.seq_gaps_skipped == 0
        assert bus.stragglers == 0

    def test_gap_timeout_skips_dead_emitter_then_counts_straggler(self):
        bus = EventBus(gap_timeout=0.02)
        gate = GatedSeq(bus._next_seq, trap="trapped")
        bus._next_seq = gate

        trapped = threading.Thread(
            target=lambda: bus.emit(EV_REQUEST, 1, 10, STACK),
            name="trapped-emitter")
        trapped.start()
        assert gate.allocated.wait(10.0)
        bus.emit(EV_ACQUIRED, 2, 10, STACK)  # seq 2, complete

        # Young gap: held back.
        assert bus.drain_raw() == []
        # Let the gap outlive the timeout: the drain gives seq 1 up for
        # lost instead of wedging the monitor forever.
        time.sleep(0.04)
        records = bus.drain_raw()
        assert [record[0] for record in records] == [2]
        assert bus.seq_gaps_skipped == 1

        # The not-so-dead emitter completes after all: its record is
        # released immediately, out of order, and counted as a straggler.
        gate.release.set()
        trapped.join(10.0)
        late = bus.drain_raw()
        assert [record[0] for record in late] == [1]
        assert bus.stragglers == 1


class TestRetirementChurn:
    """Stress: short-lived producer threads must never lose records.

    This schedule found the ring-retirement TOCTOU in this PR's own
    first draft: checking a ring's emptiness *before* its owner's
    liveness let a producer append a final burst and exit inside the
    liveness check's suspension window, after which the consumer
    deleted the ring with the burst still inside.
    """

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

            assert_seq_order(batches, expect_total=producers * per_thread)
            assert bus.dropped == 0, f"seed {seed}"
            assert bus.seq_gaps_skipped == 0, f"seed {seed}"
            # Producers are dead and drained: their rings must retire,
            # with the lifetime counters surviving the retirement.
            bus.drain_raw()
            assert bus.ring_count == 0, f"seed {seed}"
            assert bus.total_enqueued == producers * per_thread, f"seed {seed}"
            assert bus.total_drained == producers * per_thread, f"seed {seed}"


class TestEmitStorm:
    """Stress: concurrent emitters + limit-cut drains keep the total order."""

    def test_total_order_across_drains_under_pressure(self):
        producers, per_thread = 4, 800
        bus = EventBus(ring_capacity=per_thread + 16)
        rng = random.Random(0xD1A6)
        done = threading.Event()
        batches = []

        def produce(thread_id):
            for index in range(per_thread):
                code = EV_ACQUIRED if index % 2 else EV_RELEASE
                bus.emit(code, thread_id, index % 7, STACK)

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
        assert_seq_order(batches, expect_total=producers * per_thread)
        assert bus.seq_gaps_skipped == 0
        assert bus.stragglers == 0
