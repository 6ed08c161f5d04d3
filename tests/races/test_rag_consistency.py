"""End-to-end §5.2 oracle: bus + RAG never see a release/acquire inversion.

Worker threads perform *genuine* lock hand-offs — a real
``threading.Lock`` serializes them — and emit ACQUIRED/RELEASE records
for each critical section while holding it, exactly as the instrumented
runtimes do.  Because the emissions happen inside the real critical
section, the true event order is release-before-next-acquire for every
hand-off; the paper's §5.2 requires the monitor to apply them in that
order.  A concurrently draining consumer feeds the records through
``RAG.apply_encoded``; ``rag.order_violations`` counts every inversion
the graph had to repair, so the single oracle here is that it stays 0
and the graph is empty once the run quiesces.

A bus that drained per-thread buffers one after another, or that let a
later record overtake one still being appended, would publish the next
holder's ACQUIRED before the previous holder's RELEASE; this test flags
that within a few hundred hand-offs under preemption pressure.
"""

from __future__ import annotations

import random
import threading

from repro.core.callstack import CallStack
from repro.core.events import EV_ACQUIRED, EV_RELEASE, EventBus
from repro.core.rag import ResourceAllocationGraph

from .harness import preemption_pressure, rag_quiescent_consistent

STACK = CallStack.from_labels(["worker:1", "section:2"])


class TestReleaseAcquireOrder:
    def test_real_lock_handoffs_apply_in_order(self):
        workers, handoffs_each, resources = 4, 400, 3
        bus = EventBus()
        rag = ResourceAllocationGraph(strict=False)
        real_locks = [threading.Lock() for _ in range(resources)]
        rng = random.Random(0x52A6)
        done = threading.Event()
        drained = []

        def worker(thread_id):
            local_rng = random.Random(thread_id)
            for _ in range(handoffs_each):
                resource_id = local_rng.randrange(resources)
                lock = real_locks[resource_id]
                with lock:
                    # Emit while holding, like the instrumented runtimes:
                    # the next holder's ACQUIRED cannot be *emitted* until
                    # after this RELEASE emission returns.
                    bus.emit(EV_ACQUIRED, thread_id, resource_id, STACK)
                    bus.emit(EV_RELEASE, thread_id, resource_id, STACK)

        def consume():
            while not done.is_set() or bus:
                records = bus.drain_raw(limit=rng.randrange(1, 64))
                if records:
                    rag.apply_encoded(records)
                    drained.append(len(records))

        with preemption_pressure():
            consumer = threading.Thread(target=consume)
            consumer.start()
            pool = [threading.Thread(target=worker, args=(tid,))
                    for tid in range(1, workers + 1)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            done.set()
            consumer.join(30.0)

        assert not consumer.is_alive()
        total = workers * handoffs_each * 2
        assert rag.events_applied == total
        problems = rag_quiescent_consistent(rag)
        assert not problems, problems
        assert rag.order_violations == 0
