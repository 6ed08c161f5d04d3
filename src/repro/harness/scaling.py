"""Multi-core contention: one shared engine hammered from N real threads.

Each thread drives request/acquired/release on its own lock and stack
against one engine holding a 1000-signature history, so the only
contention is engine-internal.  On a free-threaded build (PEP 703) this
is the scaling curve; on a GIL build efficiency falls toward 1/threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List

from ..core.avoidance import AvoidanceEngine
from ..core.callstack import CallStack
from ..core.config import DimmunixConfig
from ..core.history import History
from ..workloads.synth_history import synthesize_history

THREAD_COUNTS = (1, 2, 4, 8)
OPS_PER_THREAD = 20_000
HISTORY_SIZE = 1000

_UNIVERSE = [CallStack.from_labels([f"sig_lock:{i}", f"sig_caller:{i % 7}", "sig_main:0"])
             for i in range(64)]


@dataclass
class ScalingRow:
    """Aggregate engine throughput at one thread count."""

    threads: int
    ops_per_sec: float
    scaling_efficiency: float

    def as_dict(self) -> Dict:
        return {"threads": self.threads, "ops/sec": round(self.ops_per_sec),
                "efficiency": round(self.scaling_efficiency, 2)}


def _measure(threads: int) -> float:
    history = History(path=None, autosave=False)
    synthesize_history(_UNIVERSE, count=HISTORY_SIZE, matching_depth=4, seed=7, history=history)
    engine = AvoidanceEngine(history, DimmunixConfig.for_testing(event_ring_size=4096))
    barrier = threading.Barrier(threads + 1)

    def work(worker: int) -> None:
        stack = CallStack.from_labels([f"app_lock:{worker}", f"app_caller:{worker}", "app_main:0"])
        thread_id, lock_id = worker + 1, 1000 + worker
        barrier.wait()
        for _ in range(OPS_PER_THREAD):
            engine.request(thread_id, lock_id, stack)
            engine.acquired(thread_id, lock_id, stack)
            engine.release(thread_id, lock_id)

    pool = [threading.Thread(target=work, args=(worker,), daemon=True) for worker in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    return threads * OPS_PER_THREAD / max(time.perf_counter() - started, 1e-9)


def run_scaling() -> List[ScalingRow]:
    """Engine ops/s per thread count; efficiency is against the first count's rate."""
    rates = [_measure(threads) for threads in THREAD_COUNTS]
    return [ScalingRow(threads, rate, rate / (rates[0] * threads))
            for threads, rate in zip(THREAD_COUNTS, rates)]
