"""``run.py compare A.json B.json``: a verdict per (workload, end-to-end metric).

Only the bounds in BENCHMARK.json decide.  A is the base, B the candidate:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the trial-to-trial spread (IQR / median) of either side is
                  wider than the bound, and B's quartiles do not all beat A's;
* ``better``      B's worst quartile beats A's best quartile (needs >= 2 trials a side);
* ``within``      anything else.

Exact counts and correctness (failed requests) must be identical; a
difference there is ``worse`` whatever the timings say.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple


def load(path: str) -> Dict[str, dict]:
    """workload -> report, from a single-workload or an ``--workload all`` file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["workloads"] if "workloads" in data else {data["workload"]: data}


def verdict(base: dict, candidate: dict, better: str, bound: float) -> Tuple[str, float]:
    """The verdict and by what share of the base the candidate is worse (negative: better)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (candidate["value"] - base["value"]) / abs(base["value"])
    spread = max((entry["q3"] - entry["q1"]) / abs(entry["value"]) for entry in (base, candidate))
    if better == "lower":
        clear_win = candidate["q3"] < base["q1"]
    else:
        clear_win = candidate["q1"] > base["q3"]
    # One sample a side (set-up time, peak RSS) has no quartiles to win by.
    clear_win = clear_win and min(base.get("n", 2), candidate.get("n", 2)) >= 2
    if clear_win and change < 0:
        return "better", change
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "within", change


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare BASE.json CANDIDATE.json")
    base, candidate = load(argv[0]), load(argv[1])
    worse = 0
    print(f"{'workload':18s} {'metric':16s} {'base':>14s} {'candidate':>14s} {'change':>8s} "
          f"{'bound':>6s}  verdict")
    for workload in (entry["name"] for entry in spec["workloads"]):
        if workload not in base or workload not in candidate:
            continue
        one, two = base[workload], candidate[workload]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            word, change = verdict(one["metrics"][name], two["metrics"][name],
                                   entry["better"], entry["bound"])
            worse += word == "worse"
            print(f"{workload:18s} {name:16s} {one['metrics'][name]['value']:14.4f} "
                  f"{two['metrics'][name]['value']:14.4f} {100 * change:+7.1f}% "
                  f"{100 * entry['bound']:5.0f}%  {word}")
        same_seed = one.get("seed") == two.get("seed") and one.get("scale") == two.get("scale")
        exact = [("failed", one["failed"], two["failed"])]
        if same_seed:
            exact += [(name, one["counts"].get(name), two["counts"].get(name))
                      for name in sorted(set(one["counts"]) | set(two["counts"]))]
        for name, left, right in exact:
            if left != right:
                worse += 1
                print(f"{workload:18s} {name:16s} {left!s:>14s} {right!s:>14s} "
                      f"{'':>8s} {'exact':>6s}  worse")
    print(f"{worse} worse")
    return 1 if worse else 0
