"""Schedule-exploration throughput — states/sec across strategies.

The explorer's usefulness is bounded by how many scheduler states it can
visit per second and by how few runs a reduction needs for full deadlock
coverage: a deadlock that needs 10^4 interleavings to manifest is only
testable if the engine sustains that within CI budgets.  This benchmark
drives both strategies (unreduced DFS, source-DPOR) plus the
random-walk mode over the canonical scenarios under both
``NullBackend`` and a forked Dimmunix backend, reporting
``runs_explored``, interleavings/sec, and states/sec (one state = one
scheduler step) per strategy — the reduction story is the ratio of
``runs_explored`` between rows of the same scenario.

The parallel rows split the philosophers-3 full (eat-time-zero) tree
across OS worker processes (:class:`repro.sim.ParallelExplorer`) and
record the speedup against serial unreduced DFS plus whether the merged
result was byte-identical to the serial one (it must be).  Speedup
scales with available cores; ``cpus`` is recorded alongside so a
single-core CI runner's ~1x is read as hardware, not regression.

Run directly::

    PYTHONPATH=src python benchmarks/bench_explore.py
"""

from __future__ import annotations

import os

from repro.core.config import DimmunixConfig
from repro.harness.report import format_table
from repro.sim import (DimmunixBackend, Explorer, NullBackend,
                       ParallelExplorer, build_philosophers,
                       build_two_lock_inversion)

MAX_RUNS = 4_000
RANDOM_RUNS = 400
#: Scenario for the parallel rows — must be a SCENARIOS registry name,
#: because workers rebuild it by name in their own processes.
PARALLEL_SCENARIO = "philosophers-3-eat0"
PARALLEL_WORKERS = (2, 4)


def _scenarios():
    return [
        ("two-lock", lambda backend: build_two_lock_inversion(backend)),
        ("philosophers-3", lambda backend: build_philosophers(backend, seats=3)),
        ("philosophers-3/eat0",
         lambda backend: build_philosophers(backend, seats=3, eat_time=0.0)),
        ("philosophers-4",
         lambda backend: build_philosophers(backend, seats=4)),
    ]


def _null_factory(scenario):
    return lambda: scenario(NullBackend())


def _dimmunix_factory(scenario):
    prototype = DimmunixBackend(config=DimmunixConfig.for_testing())
    return lambda: scenario(prototype.fork())


def _row(name, backend_name, strategy, result):
    return {
        "scenario": name,
        "backend": backend_name,
        "strategy": strategy,
        "runs_explored": result.runs,
        "states": result.steps,
        "deadlocks": result.deadlock_count,
        "unique": result.unique_deadlocks,
        "exhausted": result.exhausted,
        "runs_per_sec": round(result.runs / result.elapsed, 1)
        if result.elapsed else 0.0,
        "states_per_sec": round(result.states_per_second, 1),
    }


def run_benchmark(max_runs: int = MAX_RUNS, random_runs: int = RANDOM_RUNS,
                  parallel_workers=PARALLEL_WORKERS):
    """Run all strategy x scenario x backend combinations; returns rows."""
    rows = []
    for name, scenario in _scenarios():
        for backend_name, factory in (("null", _null_factory(scenario)),
                                      ("dimmunix", _dimmunix_factory(scenario))):
            for strategy in ("dfs", "dpor"):
                result = Explorer(factory, name=name, max_runs=max_runs,
                                  strategy=strategy).explore()
                rows.append(_row(name, backend_name, strategy, result))
            walker = Explorer(factory, name=name, max_runs=max_runs)
            rows.append(_row(name, backend_name, "random",
                             walker.random_walk(runs=random_runs)))
    # The parallel comparison only means anything on the fully enumerated
    # tree (byte-identity is defined for untruncated explorations), so it
    # keeps a budget above the 1239-run tree even under quick bounds.
    rows.extend(_parallel_rows(max(max_runs, 2_000), parallel_workers))
    return rows


def _parallel_rows(max_runs: int, parallel_workers):
    """Parallel exploration of the full philosophers-3 tree vs serial."""
    from repro.sim.explore import SCENARIOS

    serial = Explorer(lambda: SCENARIOS[PARALLEL_SCENARIO](NullBackend()),
                      name=PARALLEL_SCENARIO, max_runs=max_runs,
                      strategy="dfs").explore()
    rows = [_row(PARALLEL_SCENARIO, "null", "dfs-serial-baseline", serial)]
    for workers in parallel_workers:
        parallel = ParallelExplorer(PARALLEL_SCENARIO, workers=workers,
                                    strategy="dfs",
                                    max_runs=max_runs).explore()
        row = _row(PARALLEL_SCENARIO, "null", f"parallel-{workers}", parallel)
        row["speedup_vs_serial"] = (round(serial.elapsed / parallel.elapsed, 2)
                                    if parallel.elapsed else 0.0)
        row["byte_identical"] = (parallel.canonical_bytes()
                                 == serial.canonical_bytes())
        row["cpus"] = os.cpu_count()
        rows.append(row)
    return rows


def main() -> None:
    rows = run_benchmark()
    print(format_table(rows, title="Schedule exploration throughput "
                                   f"(max_runs={MAX_RUNS}, "
                                   f"random_runs={RANDOM_RUNS})"))


if __name__ == "__main__":
    import sys

    from quickbench import bench_main

    def _full():
        rows = run_benchmark()
        print(format_table(rows, title="Schedule exploration throughput"))
        return rows

    def _quick():
        rows = run_benchmark(max_runs=150, random_runs=40,
                             parallel_workers=(2,))
        print(format_table(rows, title="Schedule exploration (quick bounds)"))
        return rows

    sys.exit(bench_main("explore", full=_full, quick=_quick))
