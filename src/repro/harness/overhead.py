"""Figure 4: end-to-end overhead on the "real" applications.

The paper instruments JBoss (driven by RUBiS) and the MySQL JDBC driver
(driven by JDBCBench) and measures the benchmark metric while the
signature history grows from 32 to 128 synthesized signatures; overhead
stays below 2.6% (JBoss) and 7.17% (MySQL JDBC).

Here the applications are the mini broker and the mini connection pool,
their workloads come from :mod:`repro.harness.appworkloads`, and the
synthesized signatures are random combinations of stacks captured from the
applications' own locking sites (so they exercise the matching path just
like real ones).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.callstack import CallStack
from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.history import History
from ..core.signature import Signature
from ..instrument.aio import AsyncioRuntime
from ..instrument.runtime import InstrumentationRuntime
from .appworkloads import (WorkloadResult, run_aiobroker_workload,
                           run_broker_workload, run_jdbc_workload)
from .report import overhead_percent

_FAST = dict(monitor_interval=0.05, yield_timeout=0.05)


@dataclass
class Figure4Row:
    """Overhead of one application at one history size."""

    application: str
    history_size: int
    baseline_throughput: float
    immune_throughput: float
    yields: int

    def as_dict(self) -> Dict:
        return {
            "application": self.application,
            "signatures": self.history_size,
            "baseline ops/s": round(self.baseline_throughput, 1),
            "dimmunix ops/s": round(self.immune_throughput, 1),
            "overhead %": round(overhead_percent(self.baseline_throughput,
                                                 self.immune_throughput), 2),
            "yields": self.yields,
        }


def _runtime(app_name: str = "broker", history: Optional[History] = None,
             engine_mode: str = "full", start: bool = True, **config):
    """A runtime of the flavour ``app_name`` requires, its monitor started.

    Threaded applications get an
    :class:`~repro.instrument.runtime.InstrumentationRuntime`, asyncio
    applications an :class:`~repro.instrument.aio.AsyncioRuntime` —
    both drive the same engine through the same core.
    """
    dimmunix = Dimmunix(config=DimmunixConfig(**_FAST, **config), history=history,
                        engine_mode=engine_mode)
    if start:
        dimmunix.start()
    return (AsyncioRuntime if app_name in _ASYNC_APPS else InstrumentationRuntime)(dimmunix)


def _collect_app_stacks(app_name: str, threads: int, cycles: int) -> List[CallStack]:
    """Capture the stacks the application actually synchronizes with.

    A short instrumented warm-up run is performed with the monitor left
    stopped (so the event queue retains everything) and the distinct
    acquisition stacks are read back from the queued events; this mirrors
    the paper's "random combinations of real program stacks".  Capture is
    eager: a lazy stack read back once its frames have returned is the
    degraded one-frame form, so every signature would name a bare lock site.
    """
    runtime = _runtime(app_name, start=False, lazy_capture=False)
    _run_app(app_name, runtime, threads=max(2, threads // 2),
             cycles=max(2, cycles // 2))
    stacks = set()
    for event in runtime.dimmunix.engine.events.drain():
        if event.stack and len(event.stack) > 0:
            stacks.add(event.stack)
    return sorted(stacks)  # not hash order: the same histories in every process


def _synthesize_app_history(stacks: List[CallStack], count: int,
                            seed: int = 0) -> History:
    """Signatures pairing a real application stack with a foreign one.

    The paper synthesizes signatures as random combinations of the target
    system's own locking stacks.  In MySQL or JBoss (hundreds of distinct
    stacks, thousands of threads' worth of code between critical sections)
    a random pair of stacks practically never co-occurs as a full
    instantiation, so the cost measured is the *matching* cost.  The
    miniature applications have only a few dozen distinct stacks under
    heavy contention, where random pairs instantiate constantly and the
    experiment degenerates into measuring induced serialization instead.
    Pairing each real stack with a stack from a foreign (never executed)
    call site keeps the matching work identical — the request-side suffix
    still hits the index and the cover search still runs — while keeping
    the instantiation probability comparable to the paper's setting.
    Every stack is named once before the rest are drawn at random, so no
    size leaves one of the application's sites out of the index.
    """
    rng = random.Random(seed)
    history = History(path=None, autosave=False)
    if not stacks:
        return history
    attempts = 0
    while len(history) < count and attempts < count * 50 + 100:
        attempts += 1
        real = stacks[attempts - 1 if attempts <= len(stacks) else rng.randrange(len(stacks))]
        foreign = CallStack.from_labels([
            f"vendor_hook_{rng.randrange(10_000)}:{rng.randrange(500)}",
            f"vendor_module_{rng.randrange(100)}:{rng.randrange(500)}",
        ])
        history.add(Signature([real, foreign], matching_depth=4))
    return history


#: Applications driven by an event loop rather than by real threads.
_ASYNC_APPS = frozenset({"aiobroker"})


def _run_app(app_name: str, runtime, threads: int,
             cycles: int) -> WorkloadResult:
    if app_name == "broker":
        return run_broker_workload(runtime, threads=threads, cycles=cycles)
    if app_name == "jdbc":
        return run_jdbc_workload(runtime, threads=threads, transactions=cycles)
    if app_name == "aiobroker":
        return run_aiobroker_workload(runtime, tasks=threads, cycles=cycles)
    raise ValueError(f"unknown application {app_name!r}")


def run_figure4(history_sizes: Sequence[int] = (32, 64, 128), threads: int = 6,
                cycles: int = 8, repeats: int = 5,
                applications: Sequence[str] = ("broker", "jdbc", "aiobroker")
                ) -> List[Figure4Row]:
    """Measure end-to-end overhead as the history grows.

    ``applications`` selects the matrix rows: the threaded broker and
    JDBC stand-ins plus the asyncio broker (``"aiobroker"``), whose
    "threads" parameter counts concurrent tasks on one event loop.
    """
    rows: List[Figure4Row] = []
    for app_name in applications:
        stacks = _collect_app_stacks(app_name, threads, cycles)
        # Baseline: the same lock wrappers, but the engine does nothing.
        baseline_samples = []
        for _ in range(repeats):
            runtime = _runtime(app_name, engine_mode="instrumentation_only")
            try:
                baseline_samples.append(
                    _run_app(app_name, runtime, threads, cycles).throughput)
            finally:
                runtime.dimmunix.stop()
        baseline = statistics.mean(baseline_samples)

        # The sizes take turns, so a slow spell of the machine is shared by all,
        # and each reads the median of its runs.
        histories = {size: _synthesize_app_history(stacks, count=size, seed=size)
                     for size in history_sizes}
        samples: Dict[int, List[float]] = {size: [] for size in history_sizes}
        yields = dict.fromkeys(history_sizes, 0)
        for _ in range(repeats):
            for size in history_sizes:
                runtime = _runtime(app_name, history=histories[size], engine_mode="full")
                try:
                    samples[size].append(
                        _run_app(app_name, runtime, threads, cycles).throughput)
                    yields[size] += runtime.dimmunix.stats.yield_decisions
                finally:
                    runtime.dimmunix.stop()
        rows.extend(Figure4Row(application=app_name, history_size=size,
                               baseline_throughput=baseline,
                               immune_throughput=statistics.median(samples[size]),
                               yields=yields[size]) for size in history_sizes)
    return rows
