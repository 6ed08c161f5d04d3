"""The synchronization-intensive microbenchmark of section 7.2.2.

``Nt`` threads share ``Nl`` locks; each iteration a thread computes outside
the critical section for ``delta_out`` seconds, acquires a random lock
through a randomly chosen call path (so call stacks are uniformly
distributed over a universe of ``functions ** depth`` paths), holds it for
``delta_in`` seconds, and releases it.

Two drivers are provided:

* :func:`run_threaded_microbench` — real ``threading`` threads and
  Dimmunix lock wrappers; measures wall-clock lock throughput (used for
  the overhead figures 5–8).
* :func:`run_simulated_microbench` — the same workload on the
  deterministic simulator (used for false-positive studies, baseline
  comparisons, and the 1024-thread scaling point).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.callstack import CallStack
from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.history import History
from ..instrument.locks import DimmunixLock
from ..instrument.runtime import InstrumentationRuntime
from ..sim.backends import DimmunixBackend, NullBackend, SchedulerBackend
from ..sim.programs import random_workload_program
from ..sim.scheduler import SimScheduler
from ..util.clock import VirtualClock

#: Number of distinct callee functions per call-path level.
PATH_FANOUT = 4
#: Depth of the synthetic call paths (the paper's microbenchmark uses D=10).
PATH_DEPTH = 10


@dataclass
class MicrobenchConfig:
    """Parameters of one microbenchmark run."""

    threads: int = 8
    locks: int = 8
    iterations: int = 200
    delta_in: float = 1e-6
    delta_out: float = 1e-3
    seed: int = 1234
    #: Nested acquisitions per iteration (1 = paper's default behaviour).
    nesting: int = 1
    #: "baseline" (plain threading.Lock), "full", "updates_only",
    #: "instrumentation_only", or "detection_only".
    mode: str = "full"
    history: Optional[History] = None
    matching_depth: int = 4
    monitor_interval: float = 0.05


@dataclass
class MicrobenchResult:
    """Aggregate metrics of one microbenchmark run."""

    lock_ops: int
    duration: float
    yields: int = 0
    go_decisions: int = 0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Lock operations per second."""
        if self.duration <= 0:
            return 0.0
        return self.lock_ops / self.duration


# ---------------------------------------------------------------------------
# Synthetic call paths
# ---------------------------------------------------------------------------
#
# Each level of the call path is a distinct function so that different
# random paths produce genuinely different Python call stacks.

def _chain_0(path: Sequence[int], leaf: Callable[[], object]):
    if not path:
        return leaf()
    return _CHAIN[path[0]](path[1:], leaf)


def _chain_1(path: Sequence[int], leaf: Callable[[], object]):
    if not path:
        return leaf()
    return _CHAIN[path[0]](path[1:], leaf)


def _chain_2(path: Sequence[int], leaf: Callable[[], object]):
    if not path:
        return leaf()
    return _CHAIN[path[0]](path[1:], leaf)


def _chain_3(path: Sequence[int], leaf: Callable[[], object]):
    if not path:
        return leaf()
    return _CHAIN[path[0]](path[1:], leaf)


_CHAIN = (_chain_0, _chain_1, _chain_2, _chain_3)


def call_through_path(path: Sequence[int], leaf: Callable[[], object]):
    """Invoke ``leaf`` at the bottom of the call chain described by ``path``."""
    return _chain_0(list(path), leaf)


def random_path(rng: random.Random, depth: int = PATH_DEPTH) -> List[int]:
    """A uniformly random call path of the given depth."""
    return [rng.randrange(PATH_FANOUT) for _ in range(depth)]


def capture_path_stack(path: Sequence[int], limit: int = 10) -> CallStack:
    """The call stack observed at the bottom of ``path`` (used to build
    synthetic signatures that actually match microbenchmark stacks)."""
    return call_through_path(path, lambda: CallStack.capture(skip=0, limit=limit))


def _busy_wait(duration: float) -> None:
    """Spin for ``duration`` seconds (the paper's delays are busy loops)."""
    if duration <= 0:
        return
    if duration >= 0.002:
        time.sleep(duration)
        return
    end = time.perf_counter() + duration
    while time.perf_counter() < end:
        pass


#: Each mode's engine as ``(engine mode, detection_only)``; ``"baseline"`` has
#: none, and Figure 8's ``"updates_only"`` stage is the engine that never yields.
_MODES = {"baseline": None, "full": ("full", False),
          "instrumentation_only": ("instrumentation_only", False),
          "updates_only": ("full", True), "detection_only": ("full", True)}


def _dimmunix(config: MicrobenchConfig, base: DimmunixConfig,
              clock=None) -> Optional[Dimmunix]:
    """The engine ``config.mode`` names, on ``base``: both drivers build it here."""
    if config.mode not in _MODES:
        raise ValueError(f"unknown microbenchmark mode {config.mode!r}")
    if _MODES[config.mode] is None:
        return None
    engine_mode, detection_only = _MODES[config.mode]
    return Dimmunix(config=base.with_overrides(matching_depth=config.matching_depth,
                                               detection_only=detection_only),
                    history=config.history, clock=clock, engine_mode=engine_mode)


# ---------------------------------------------------------------------------
# Real-thread driver
# ---------------------------------------------------------------------------

def _build_runtime(config: MicrobenchConfig) -> Optional[InstrumentationRuntime]:
    dimmunix = _dimmunix(config, DimmunixConfig(monitor_interval=config.monitor_interval,
                                                yield_timeout=0.05))
    if dimmunix is None:
        return None
    dimmunix.start()
    return InstrumentationRuntime(dimmunix)


def run_threaded_microbench(config: MicrobenchConfig) -> MicrobenchResult:
    """Run the microbenchmark with real threads; returns aggregate metrics."""
    runtime = _build_runtime(config)
    if runtime is None:
        locks: List = [threading.Lock() for _ in range(config.locks)]
    else:
        locks = [DimmunixLock(runtime=runtime, name=f"ubench-{i}")
                 for i in range(config.locks)]

    ops = [0] * config.threads
    barrier = threading.Barrier(config.threads + 1)

    def worker(worker_index: int) -> None:
        rng = random.Random(config.seed + worker_index)
        barrier.wait()
        for _ in range(config.iterations):
            if config.delta_out:
                _busy_wait(config.delta_out)
            chosen = rng.sample(range(config.locks),
                                min(config.nesting, config.locks))
            path = random_path(rng)
            taken = []

            def critical_section():
                for lock_index in chosen:
                    lock = locks[lock_index]
                    lock.acquire()
                    taken.append(lock)
                    if config.delta_in:
                        _busy_wait(config.delta_in)

            call_through_path(path, critical_section)
            ops[worker_index] += len(taken)
            for lock in reversed(taken):
                lock.release()

    threads = [threading.Thread(target=worker, args=(index,), daemon=True)
               for index in range(config.threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    yields = 0
    go = 0
    stats: Dict[str, int] = {}
    if runtime is not None:
        stats = runtime.dimmunix.stats.snapshot()
        yields = stats.get("yield_decisions", 0)
        go = stats.get("go_decisions", 0)
        runtime.dimmunix.stop()
    return MicrobenchResult(lock_ops=sum(ops), duration=duration, yields=yields,
                            go_decisions=go, stats=stats)


# ---------------------------------------------------------------------------
# Simulator driver
# ---------------------------------------------------------------------------

def run_simulated_microbench(config: MicrobenchConfig,
                             backend: Optional[SchedulerBackend] = None
                             ) -> MicrobenchResult:
    """Run the same workload on the deterministic simulator."""
    if backend is None:
        dimmunix = _dimmunix(config, DimmunixConfig.for_testing(), VirtualClock())
        backend = (NullBackend() if dimmunix is None
                   else DimmunixBackend(dimmunix=dimmunix, clock=dimmunix.clock))
    scheduler = SimScheduler(backend=backend, seed=config.seed)
    locks = [scheduler.new_lock(f"ubench-{i}") for i in range(config.locks)]
    for index in range(config.threads):
        scheduler.add_thread(random_workload_program(
            locks, seed=config.seed + index, iterations=config.iterations,
            delta_in=config.delta_in, delta_out=config.delta_out,
            stack_depth=PATH_DEPTH, functions=PATH_FANOUT,
            nesting=config.nesting))
    result = scheduler.run()
    stats = result.backend_stats
    return MicrobenchResult(
        lock_ops=result.lock_ops,
        duration=result.virtual_time,
        yields=stats.get("yield_decisions", result.yields),
        go_decisions=stats.get("go_decisions", 0),
        stats=stats,
    )
