"""Figures 5–8: microbenchmark parameter sweeps.

* Figure 5 — lock throughput and yields as the number of threads grows
  (2…1024).  Real threads are used up to a configurable bound; the larger
  points run on the deterministic simulator, which preserves the
  synchronization structure without measuring the Python interpreter's
  thread-switching costs.
* Figure 6 — throughput as a function of delta_in and delta_out.
* Figure 7 — throughput as a function of history size and matching depth.
* Figure 8 — breakdown of the overhead into instrumentation, data
  structure updates, and avoidance, obtained by running the engine in its
  three staged modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..core.history import History
from ..workloads.microbench import (MicrobenchConfig, run_simulated_microbench,
                                    run_threaded_microbench)
from ..workloads.synth_history import synthesize_microbench_history
from .report import overhead_percent


def _history(count: int, depth: int, simulated: bool, size: int = 2) -> History:
    return synthesize_microbench_history(count=count, size=size,
                                         matching_depth=depth,
                                         simulated=simulated, seed=count * 7 + depth)


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------

@dataclass
class Figure5Row:
    """Throughput at one thread count, baseline vs Dimmunix."""

    threads: int
    driver: str                 # "threaded" or "simulated"
    baseline_throughput: float
    dimmunix_throughput: float
    yields: int

    def as_dict(self) -> Dict:
        return {
            "threads": self.threads,
            "driver": self.driver,
            "baseline ops/s": round(self.baseline_throughput, 1),
            "dimmunix ops/s": round(self.dimmunix_throughput, 1),
            "overhead %": round(overhead_percent(self.baseline_throughput,
                                                 self.dimmunix_throughput), 2),
            "yields": self.yields,
        }


def run_figure5(thread_counts: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
                real_thread_limit: int = 32, locks: int = 8, signatures: int = 64,
                iterations: int = 60, delta_in: float = 1e-6,
                delta_out: float = 1e-3) -> List[Figure5Row]:
    """Throughput vs number of threads, 64 two-thread signatures in history."""
    rows: List[Figure5Row] = []
    for threads in thread_counts:
        use_real = threads <= real_thread_limit
        driver = "threaded" if use_real else "simulated"
        run = run_threaded_microbench if use_real else run_simulated_microbench
        config = MicrobenchConfig(
            threads=threads, locks=locks, iterations=max(5, iterations // max(1, threads // 16)),
            delta_in=delta_in, delta_out=delta_out, mode="baseline", seed=threads)
        baseline = run(config)
        immune = run(replace(config, mode="full", history=_history(
            signatures, depth=2, simulated=not use_real)))
        rows.append(Figure5Row(
            threads=threads, driver=driver,
            baseline_throughput=baseline.throughput,
            dimmunix_throughput=immune.throughput,
            yields=immune.yields,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

@dataclass
class Figure6Row:
    """Throughput at one (delta_in, delta_out) point."""

    delta_in: float
    delta_out: float
    baseline_throughput: float
    dimmunix_throughput: float

    def as_dict(self) -> Dict:
        return {
            "delta_in (us)": round(self.delta_in * 1e6, 1),
            "delta_out (us)": round(self.delta_out * 1e6, 1),
            "baseline ops/s": round(self.baseline_throughput, 1),
            "dimmunix ops/s": round(self.dimmunix_throughput, 1),
            "overhead %": round(overhead_percent(self.baseline_throughput,
                                                 self.dimmunix_throughput), 2),
        }


def run_figure6(threads: int = 8, locks: int = 8, signatures: int = 64,
                iterations: int = 60,
                delta_in_values: Sequence[float] = (0.0, 1e-6, 1e-5, 1e-4, 1e-3),
                delta_out_values: Sequence[float] = (0.0, 1e-6, 1e-5, 1e-4, 1e-3),
                fixed_delta_out: float = 1e-3,
                fixed_delta_in: float = 1e-6
                ) -> Tuple[List[Figure6Row], List[Figure6Row]]:
    """Two sweeps: (vary delta_in at fixed delta_out, vary delta_out at fixed delta_in)."""
    history = _history(signatures, depth=2, simulated=False)

    def measure(delta_in: float, delta_out: float) -> Figure6Row:
        config = MicrobenchConfig(threads=threads, locks=locks, iterations=iterations,
                                  delta_in=delta_in, delta_out=delta_out, mode="baseline",
                                  seed=11)
        return Figure6Row(delta_in, delta_out, run_threaded_microbench(config).throughput,
                          run_threaded_microbench(replace(config, mode="full",
                                                          history=history)).throughput)

    return ([measure(d_in, fixed_delta_out) for d_in in delta_in_values],
            [measure(fixed_delta_in, d_out) for d_out in delta_out_values])


# ---------------------------------------------------------------------------
# Figure 7
# ---------------------------------------------------------------------------

@dataclass
class Figure7Row:
    """Throughput at one (history size, matching depth) point."""

    history_size: int
    matching_depth: int
    baseline_throughput: float
    dimmunix_throughput: float

    def as_dict(self) -> Dict:
        return {
            "signatures": self.history_size,
            "depth": self.matching_depth,
            "baseline ops/s": round(self.baseline_throughput, 1),
            "dimmunix ops/s": round(self.dimmunix_throughput, 1),
            "overhead %": round(overhead_percent(self.baseline_throughput,
                                                 self.dimmunix_throughput), 2),
        }


def run_figure7(history_sizes: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 256),
                depths: Sequence[int] = (4, 8), threads: int = 8, locks: int = 8,
                iterations: int = 60, delta_in: float = 1e-6,
                delta_out: float = 1e-3) -> List[Figure7Row]:
    """Throughput as a function of history size and matching depth."""
    config = MicrobenchConfig(threads=threads, locks=locks, iterations=iterations,
                              delta_in=delta_in, delta_out=delta_out, mode="baseline", seed=13)
    baseline = run_threaded_microbench(config)
    rows: List[Figure7Row] = []
    for depth in depths:
        for size in history_sizes:
            immune = run_threaded_microbench(replace(
                config, mode="full", matching_depth=depth,
                history=_history(size, depth=depth, simulated=False)))
            rows.append(Figure7Row(
                history_size=size, matching_depth=depth,
                baseline_throughput=baseline.throughput,
                dimmunix_throughput=immune.throughput))
    return rows


# ---------------------------------------------------------------------------
# Figure 8
# ---------------------------------------------------------------------------

@dataclass
class Figure8Row:
    """Overhead breakdown at one thread count."""

    threads: int
    baseline_throughput: float
    instrumentation_throughput: float
    updates_throughput: float
    full_throughput: float

    def as_dict(self) -> Dict:
        return {
            "threads": self.threads,
            "instrumentation %": round(overhead_percent(
                self.baseline_throughput, self.instrumentation_throughput), 2),
            "+ data structures %": round(overhead_percent(
                self.baseline_throughput, self.updates_throughput), 2),
            "+ avoidance (full) %": round(overhead_percent(
                self.baseline_throughput, self.full_throughput), 2),
        }


def run_figure8(thread_counts: Sequence[int] = (8, 16, 32),
                locks: int = 8, signatures: int = 64, iterations: int = 60,
                delta_in: float = 1e-6, delta_out: float = 1e-3) -> List[Figure8Row]:
    """Break the overhead into instrumentation / updates / avoidance stages."""
    rows: List[Figure8Row] = []
    for threads in thread_counts:
        full = MicrobenchConfig(threads=threads, locks=locks, iterations=iterations,
                                delta_in=delta_in, delta_out=delta_out, mode="full", seed=threads,
                                history=_history(signatures, depth=2, simulated=False))
        rows.append(Figure8Row(threads, *(
            run_threaded_microbench(replace(full, mode=mode, history=None)).throughput
            for mode in ("baseline", "instrumentation_only", "updates_only")),
            run_threaded_microbench(full).throughput))
    return rows
