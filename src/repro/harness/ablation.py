"""Ablation studies for the design choices called out in DESIGN.md.

Three knobs are examined:

* **Monitor period (tau)** — detection is asynchronous, so the delay
  between a deadlock occurring and its signature being archived is bounded
  by tau (section 5.2).  The ablation measures that latency directly.
* **Allow-edge matching** — the request method considers allow edges (a
  commitment to wait) in addition to hold edges when looking for signature
  instantiations (section 5.4).  Disabling it shows the window that opens
  when only held locks are considered.
* **Weak vs strong immunity** — weak immunity may let an avoided pattern
  reoccur a bounded number of times after starvation breaking; strong
  immunity restarts and never does (section 5.4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.avoidance import AvoidanceEngine
from ..core.callstack import CallStack
from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.history import History


@dataclass
class DetectionLatencyRow:
    """Observed signature-archival latency for one monitor period."""

    monitor_interval: float
    mean_latency: float
    max_latency: float
    trials: int

    def as_dict(self) -> Dict:
        return {
            "tau (ms)": round(self.monitor_interval * 1000, 1),
            "mean detection latency (ms)": round(self.mean_latency * 1000, 2),
            "max detection latency (ms)": round(self.max_latency * 1000, 2),
            "trials": self.trials,
        }


def _stack(*labels: str) -> CallStack:
    return CallStack.from_labels(list(labels))


def run_detection_latency(intervals: Sequence[float] = (0.01, 0.05, 0.1),
                          trials: int = 3) -> List[DetectionLatencyRow]:
    """Measure how long a deadlock stays undetected as tau varies."""
    rows: List[DetectionLatencyRow] = []
    s1 = _stack("lock:4", "update:1", "main:0")
    s2 = _stack("lock:4", "update:2", "main:0")
    for interval in intervals:
        latencies = []
        for _ in range(trials):
            config = DimmunixConfig(monitor_interval=interval)
            dimmunix = Dimmunix(config=config)
            dimmunix.start()
            try:
                engine = dimmunix.engine
                engine.request(1, 1, s1)
                engine.acquired(1, 1, s1)
                engine.request(2, 2, s2)
                engine.acquired(2, 2, s2)
                engine.request(1, 2, s1)
                engine.request(2, 1, s2)
                formed = time.monotonic()
                deadline = formed + interval * 20 + 1.0
                while (dimmunix.stats.deadlocks_detected == 0
                       and time.monotonic() < deadline):
                    time.sleep(interval / 10)
                latencies.append(time.monotonic() - formed)
            finally:
                dimmunix.stop()
        rows.append(DetectionLatencyRow(
            monitor_interval=interval,
            mean_latency=sum(latencies) / len(latencies),
            max_latency=max(latencies),
            trials=trials,
        ))
    return rows


@dataclass
class AllowEdgeRow:
    """Whether the dangerous state is caught with / without allow-edge matching."""

    consider_allow_edges: bool
    yields: int
    description: str

    def as_dict(self) -> Dict:
        return {
            "allow edges considered": self.consider_allow_edges,
            "yields": self.yields,
            "outcome": self.description,
        }


def run_allow_edge_ablation() -> List[AllowEdgeRow]:
    """Show that matching must consider allow edges, not just held locks.

    Scenario: thread 1 has been *allowed to wait* for lock B (but has not
    acquired it yet, e.g. B is held by an unrelated thread 3) when thread 2
    asks for lock A.  With allow edges considered, thread 2 yields; a
    hold-only matcher misses the commitment and lets the pattern form.
    """
    from ..core.signature import Signature

    s_waiter = _stack("lock:3", "update:1")
    s_asker = _stack("lock:3", "update:2")
    signature = Signature([s_waiter, s_asker], matching_depth=2)

    rows: List[AllowEdgeRow] = []
    for consider_allow in (True, False):
        history = History()
        history.add(Signature(signature.stacks, matching_depth=2))
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        # Thread 3 holds B with an unrelated stack; thread 1 is allowed to wait.
        engine.request(3, 2, _stack("other:9"))
        engine.acquired(3, 2, _stack("other:9"))
        engine.request(1, 2, _stack("lock:3", "update:1", "main:0"))
        if not consider_allow:
            # Simulate a hold-only matcher by withdrawing the allow edge
            # before thread 2's request is evaluated.
            engine.cache.remove_allow(1)
        outcome = engine.request(2, 1, _stack("lock:3", "update:2", "main:0"))
        yields = engine.stats.yield_decisions
        rows.append(AllowEdgeRow(
            consider_allow_edges=consider_allow,
            yields=yields,
            description=("pattern avoided before it can form" if outcome.is_yield
                         else "dangerous state allowed to form"),
        ))
    return rows


@dataclass
class ImmunityModeRow:
    """Reoccurrences of an avoided pattern under weak vs strong immunity."""

    immunity: str
    deadlocks_over_runs: int
    restarts_requested: int
    runs: int

    def as_dict(self) -> Dict:
        return {
            "immunity": self.immunity,
            "runs": self.runs,
            "deadlock reoccurrences": self.deadlocks_over_runs,
            "restarts requested": self.restarts_requested,
        }


def run_immunity_mode_ablation(runs: int = 4) -> List[ImmunityModeRow]:
    """Replay a deadlock-prone workload repeatedly under both immunity levels."""
    from ..sim import DimmunixBackend, SimScheduler, lock_order_program

    rows: List[ImmunityModeRow] = []
    for immunity in ("weak", "strong"):
        history = History()
        # Seed the history by letting the pattern occur once.
        detection = DimmunixBackend(
            config=DimmunixConfig.for_testing(detection_only=True), history=history)
        scheduler = SimScheduler(backend=detection, seed=0)
        a, b = scheduler.new_lock("A"), scheduler.new_lock("B")
        scheduler.add_thread(lock_order_program(a, b, "s1", hold_time=0.01))
        scheduler.add_thread(lock_order_program(b, a, "s2", hold_time=0.01))
        scheduler.run()

        deadlocks = 0
        restarts = 0
        for run_index in range(runs):
            backend = DimmunixBackend(
                config=DimmunixConfig.for_testing(immunity=immunity),
                history=history)
            backend.dimmunix.monitor.restart_handler = \
                lambda sig, cycle: None  # count via stats, keep running
            scheduler = SimScheduler(backend=backend, seed=run_index)
            a, b = scheduler.new_lock("A"), scheduler.new_lock("B")
            scheduler.add_thread(lock_order_program(a, b, "s1", hold_time=0.01,
                                                    iterations=2))
            scheduler.add_thread(lock_order_program(b, a, "s2", hold_time=0.01,
                                                    iterations=2))
            result = scheduler.run()
            if result.deadlocked:
                deadlocks += 1
            restarts += backend.dimmunix.stats.restarts_requested
        rows.append(ImmunityModeRow(immunity=immunity,
                                    deadlocks_over_runs=deadlocks,
                                    restarts_requested=restarts, runs=runs))
    return rows
