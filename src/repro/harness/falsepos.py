"""Figure 9 and the gate-lock comparison: the cost of false positives.

A false positive is an avoidance (a yield) triggered by a shallow match
that would not have matched at full stack depth — the execution was never
actually headed for the archived deadlock.  The experiment runs the
simulated microbenchmark against a history of deep (depth ``D``)
signatures while matching at depths ``k = 1 … D``; yields at depth ``k``
that exceed the yields at depth ``D`` are false positives, and the extra
serialization they cause shows up as lost throughput.

The same workload is then replayed under the gate-lock baseline [17],
which serializes entire code regions and therefore produces far more
unnecessary blocking — the paper measures ~70% overhead and half a million
false positives for gate locks versus 4.6% for Dimmunix at depth >= 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines.gatelock import GateLockBackend
from ..core.history import History
from ..core.signature import Signature
from ..sim.backends import NullBackend
from ..workloads.microbench import (MicrobenchConfig,
                                    run_simulated_microbench)
from ..workloads.synth_history import synthesize_microbench_history
from .report import overhead_percent


@dataclass
class Figure9Row:
    """Result of matching the same signatures at one depth."""

    matching_depth: int
    throughput: float
    baseline_throughput: float
    yields: int
    false_positives: int

    def as_dict(self) -> Dict:
        return {
            "depth": self.matching_depth,
            "ops/s": round(self.throughput, 1),
            "overhead %": round(overhead_percent(self.baseline_throughput,
                                                 self.throughput), 2),
            "yields": self.yields,
            "false positives": self.false_positives,
        }


@dataclass
class GateLockComparison:
    """Gate-lock baseline numbers for the same workload and history."""

    gates: int
    throughput: float
    baseline_throughput: float
    denials: int

    def as_dict(self) -> Dict:
        return {
            "approach": "gate locks [17]",
            "gates": self.gates,
            "ops/s": round(self.throughput, 1),
            "overhead %": round(overhead_percent(self.baseline_throughput,
                                                 self.throughput), 2),
            "false positives (denials)": self.denials,
        }


def _depth_history(base: History, depth: int) -> History:
    """Copy a history, overriding every signature's matching depth."""
    copy = History(path=None, autosave=False)
    for signature in base.signatures():
        clone = Signature(signature.stacks, kind=signature.kind,
                          matching_depth=depth)
        copy.add(clone)
    return copy


def _workload_config(threads: int, locks: int, iterations: int,
                     history: Optional[History] = None,
                     mode: str = "full") -> MicrobenchConfig:
    # The paper's Figure 9 uses delta_in = delta_out = 1 ms, which makes the
    # serialization caused by unnecessary yields clearly visible.
    return MicrobenchConfig(threads=threads, locks=locks, iterations=iterations,
                            delta_in=1e-3, delta_out=1e-3, seed=97,
                            history=history, mode=mode)


def _history_and_baseline(threads: int, locks: int, signatures: int, iterations: int,
                          depth: int = 10):
    """The deep signatures both experiments share, and the unimmunized run."""
    history = synthesize_microbench_history(count=signatures, size=2, matching_depth=depth,
                                            simulated=True, seed=5, universe=128)
    return history, run_simulated_microbench(
        _workload_config(threads, locks, iterations, mode="baseline"), backend=NullBackend())


def run_figure9(depths: Sequence[int] = tuple(range(1, 11)), threads: int = 32,
                locks: int = 8, signatures: int = 64, iterations: int = 60,
                full_depth: int = 10) -> List[Figure9Row]:
    """Overhead induced by false positives as matching depth varies."""
    base_history, baseline = _history_and_baseline(threads, locks, signatures,
                                                   iterations, full_depth)

    # Yields at the full depth are the "true" avoidance count: anything above
    # that at a shallower depth is a false positive.
    reference = run_simulated_microbench(
        _workload_config(threads, locks, iterations,
                         history=_depth_history(base_history, full_depth)))
    rows: List[Figure9Row] = []
    for depth in depths:
        result = run_simulated_microbench(
            _workload_config(threads, locks, iterations,
                             history=_depth_history(base_history, depth)))
        rows.append(Figure9Row(
            matching_depth=depth,
            throughput=result.throughput,
            baseline_throughput=baseline.throughput,
            yields=result.yields,
            false_positives=max(0, result.yields - reference.yields),
        ))
    return rows


def run_gate_lock_comparison(threads: int = 32, locks: int = 8,
                             signatures: int = 64, iterations: int = 60
                             ) -> GateLockComparison:
    """Replay the Figure 9 workload under the gate-lock baseline."""
    history, baseline = _history_and_baseline(threads, locks, signatures, iterations)
    backend = GateLockBackend()
    for signature in history.signatures():
        backend.learn_from_signature(signature)
    result = run_simulated_microbench(
        _workload_config(threads, locks, iterations), backend=backend)
    stats = result.stats
    return GateLockComparison(
        gates=stats.get("gates", 0),
        throughput=result.throughput,
        baseline_throughput=baseline.throughput,
        denials=stats.get("gate_denials", 0),
    )
