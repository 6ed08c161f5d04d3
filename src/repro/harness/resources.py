"""Section 7.4: resource utilization.

The paper reports that the history costs 200–1000 bytes per signature on
disk, that CPU overhead is negligible, and that the pthreads/Java
implementations add 6–25 MB / 79–127 MB of memory across 2–1024 threads.
This runner measures the analogous quantities for the Python
implementation: serialized history bytes per signature, the in-memory size
of the engine's data structures after a workload, and the event-queue
high-water mark.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.config import DimmunixConfig
from ..sim.backends import DimmunixBackend
from ..workloads.microbench import MicrobenchConfig, run_simulated_microbench
from ..workloads.synth_history import synthesize_microbench_history


def _deep_sizeof(obj, seen=None) -> int:
    """Approximate recursive ``sys.getsizeof`` (cycles handled via ``seen``)."""
    if seen is None:
        seen = set()
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    size = sys.getsizeof(obj, 0)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_sizeof(key, seen) + _deep_sizeof(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_sizeof(item, seen)
    elif hasattr(obj, "__dict__"):
        size += _deep_sizeof(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            if hasattr(obj, slot):
                size += _deep_sizeof(getattr(obj, slot), seen)
    return size


@dataclass
class ResourceRow:
    """Resource usage for one (threads, locks, signatures) configuration."""

    threads: int
    locks: int
    signatures: int
    history_bytes: int
    history_bytes_per_signature: float
    engine_state_bytes: int
    event_queue_high_water: int
    lock_ops: int

    def as_dict(self) -> Dict:
        return {
            "threads": self.threads,
            "locks": self.locks,
            "signatures": self.signatures,
            "history bytes": self.history_bytes,
            "bytes/signature": round(self.history_bytes_per_signature, 1),
            "engine state KB": round(self.engine_state_bytes / 1024, 1),
            "event queue high-water": self.event_queue_high_water,
            "lock ops": self.lock_ops,
        }


def run_resource_utilization(thread_counts: Sequence[int] = (2, 64, 256, 1024),
                             locks: int = 8, signatures: int = 64,
                             iterations: int = 8) -> List[ResourceRow]:
    """Measure history footprint and engine memory across thread counts."""
    rows: List[ResourceRow] = []
    for threads in thread_counts:
        history = synthesize_microbench_history(count=signatures, size=2,
                                                simulated=True, seed=threads)
        backend = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                  history=history)
        config = MicrobenchConfig(threads=threads, locks=locks,
                                  iterations=iterations, delta_in=1e-6,
                                  delta_out=1e-4, seed=threads, history=history)
        result = run_simulated_microbench(config, backend=backend)
        engine = backend.dimmunix.engine
        state_bytes = (_deep_sizeof(engine.cache.snapshot())
                       + _deep_sizeof(engine.cache.allowed_set_sizes())
                       + _deep_sizeof(backend.dimmunix.monitor.rag.snapshot()))
        history_bytes = history.disk_footprint()
        rows.append(ResourceRow(
            threads=threads, locks=locks, signatures=len(history),
            history_bytes=history_bytes,
            history_bytes_per_signature=history_bytes / max(1, len(history)),
            engine_state_bytes=state_bytes,
            event_queue_high_water=engine.events.high_water_mark,
            lock_ops=result.lock_ops,
        ))
    return rows
