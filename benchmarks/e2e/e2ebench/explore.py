"""Schedule exploration over the scenario registry: ``explore_registry``.

One trial is ``ImmunityChecker(...).check()`` over all seven ``SCENARIOS``
with the default strategy.  It is the only workload in which ``sim/*``
(scheduler, sim locks, sim aio, dpor) drives the engine.  The explorer is
deterministic, so the run, step and deadlock counts of a trial are pinned
here and must repeat exactly.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

from repro.sim import SCENARIOS, ImmunityChecker

from .common import (SETUP_REPEATS, CheckFailed, Outcome, SpeedMeter, peak_rss_mb, percentile,
                     summarize)

#: scenario -> (vulnerable runs, vulnerable deadlocks, immune runs) of one check().
PINNED = {
    "two-lock-inversion": (10, 2, 8),
    "philosophers-3": (5, 4, 2),
    "philosophers-3-eat0": (90, 3, 157),
    "aio-two-lock-inversion": (10, 2, 8),
    "aio-philosophers-3": (5, 4, 2),
    "sem-exhaustion-cycle": (12, 4, 8),
    "rwlock-upgrade-inversion": (6, 2, 8),
}


class TrialResult:
    def __init__(self):
        self.runs = 0
        self.failed = 0
        self.null_seconds_per_step = 0.0
        self.engine_seconds_per_step = 0.0
        self.latencies: List[float] = []
        self.wall = 0.0
        self.cpu = 0.0


def run_trial(meter: SpeedMeter,
              wrap: Callable = lambda name, scenario: scenario) -> TrialResult:
    """Check every registered scenario once; times are calibrated per scenario.

    The scenario factory is the benchmark's own callable, so stamping the
    clock each time the explorer asks for a fresh scheduler gives the
    latency of every explored run without touching the program.
    """
    result = TrialResult()
    null_time = engine_time = 0.0
    null_steps = engine_steps = 0
    for name, scenario in SCENARIOS.items():
        stamps: List[int] = []
        build = wrap(name, scenario)
        meter.restart()
        cpu = time.process_time()
        wall = time.perf_counter()

        def factory(backend, build=build, stamps=stamps):
            stamps.append(time.perf_counter_ns())
            return build(backend)

        report = ImmunityChecker(factory, name=name).check()
        stamps.append(time.perf_counter_ns())
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        speed = meter.lap()
        result.wall += wall * speed
        result.cpu += cpu * speed
        result.latencies.extend((later - earlier) * speed
                                for earlier, later in zip(stamps, stamps[1:]))
        immune = report.immune
        seen = (report.vulnerable.runs, report.vulnerable.deadlock_count,
                immune.runs if immune is not None else -1)
        if seen != PINNED[name]:
            raise CheckFailed(f"{name}: explored {seen}, pinned {PINNED[name]}")
        result.runs += report.vulnerable.runs + immune.runs
        if not report.holds:
            result.failed += 1
        null_time += report.vulnerable.elapsed
        null_steps += report.vulnerable.steps
        engine_time += immune.elapsed
        engine_steps += immune.steps
    result.null_seconds_per_step = null_time / null_steps
    result.engine_seconds_per_step = engine_time / engine_steps
    return result


def run(seed: int, seconds: float, scale: float = 1.0) -> Outcome:
    """Registry passes for ``seconds``; the inputs are fixed, so ``seed`` is unused."""
    if set(PINNED) != set(SCENARIOS):
        raise CheckFailed(f"scenario registry changed: {sorted(SCENARIOS)}")
    outcome = Outcome("explore_registry")
    meter = SpeedMeter()
    # Set-up is one pass (the first fills the capture and interning caches); its time is
    # calibrated scenario by scenario like any trial's.
    outcome.add("setup_s", statistics.median(run_trial(meter).wall
                                              for _ in range(SETUP_REPEATS)))
    deadline = time.perf_counter() + seconds
    trials, minimum = 0, 5 if scale >= 1.0 else 2
    while trials < minimum or time.perf_counter() < deadline:
        trial = run_trial(meter)
        trials += 1
        outcome.attempted += len(SCENARIOS)
        outcome.failed += trial.failed
        latencies = sorted(trial.latencies)
        outcome.add("ops_per_s", trial.runs / trial.wall)
        outcome.add("overhead_x", trial.engine_seconds_per_step / trial.null_seconds_per_step)
        outcome.add("cpu_us_per_op", trial.cpu / trial.runs * 1e6)
        outcome.add("op_p50_us", percentile(latencies, 0.50) / 1e3)
        outcome.add("op_p90_us", percentile(latencies, 0.90) / 1e3)
        outcome.add("op_p95_us", percentile(latencies, 0.95) / 1e3)
        outcome.add("op_p99_us", percentile(latencies, 0.99) / 1e3)
        outcome.counts["runs_per_trial"] = trial.runs
    outcome.add("peak_rss_mb", peak_rss_mb())
    outcome.extra["machine_speed"] = summarize(meter.samples)
    outcome.checks["every_scenario_immune_counts_pinned"] = f"{len(SCENARIOS)} scenarios"
    return outcome
