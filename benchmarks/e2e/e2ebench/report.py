"""Turn one workload run into the report ``run.py`` prints and writes."""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional

from . import aio_gauntlet, explore, fleet, gauntlet
from .common import CheckFailed, Outcome, environment, pin_to_one_cpu, summarize

WORKLOADS: Dict[str, Callable[[int, float, float], Outcome]] = {
    "threads_miss": lambda seed, seconds, scale: gauntlet.run("threads_miss", seed, seconds, scale),
    "threads_match": lambda seed, seconds, scale: gauntlet.run("threads_match", seed, seconds, scale),
    "aio_miss": aio_gauntlet.run,
    "fleet_immunity": fleet.run,
    "explore_registry": explore.run,
}


def measure(workload: str, seed: int, seconds: float, trace: int, scale: float,
            spec: dict, output: Optional[str] = None) -> dict:
    """Run ``workload`` and shape its outcome after the metric set in BENCHMARK.json.

    With ``output``, the spans of the last traced trial go to ``<output>.spans.json``.
    """
    before = environment()
    # A reduced-scale run is a smoke test, not a measurement: several may run side by side.
    before["pinned_cpu"] = pin_to_one_cpu() if scale >= 1.0 else None
    try:
        if trace:
            from . import tracing
            outcome = tracing.run(workload, seed, seconds, scale)
        else:
            outcome = WORKLOADS[workload](seed, seconds, scale)
    except CheckFailed as error:
        raise SystemExit(f"run.py: CHECK FAILED in {workload}: {error}")
    spans = outcome.extra.pop("spans", None)
    if spans is not None and output:
        with open(output + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "root"],
                       "spans": spans}, handle)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [entry["name"] for entry in wanted if not outcome.samples.get(entry["name"])]
    if missing:
        raise SystemExit(f"run.py: {workload} did not produce {missing}")
    units = {entry["name"]: entry["unit"] for entry in wanted}
    metrics = {name: dict(summarize(outcome.samples[name]), unit=unit)
               for name, unit in units.items()}
    extra = {name: summarize(values) for name, values in outcome.samples.items()
             if name not in units}
    after = os.getloadavg()[0]
    before.update(loadavg_1m_end=after, noisy=before["noisy"] or after > before["nproc"])
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}  scale={scale:g}"
          f"{'  NOISY' if before['noisy'] else ''}")
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:14.4f} {entry['unit']:6s} "
              f"q1={entry['q1']:.4f} q3={entry['q3']:.4f} min={entry['min']:.4f} n={entry['n']}")
    for name, entry in extra.items():
        print(f"  ({name:41s} {entry['value']:14.4f})")
    for name, detail in {**outcome.checks, **outcome.counts}.items():
        print(f"  check {name}: {detail}")
    for line in outcome.extra.get("ledger", ()):
        print(line)
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"fail_ratio={outcome.failed / max(1, outcome.attempted):.6f}")
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "scale": scale, "environment": before, "metrics": metrics, "extra_metrics": extra,
            "checks": outcome.checks, "counts": outcome.counts, "extra": outcome.extra,
            "attempted": outcome.attempted, "failed": outcome.failed}
