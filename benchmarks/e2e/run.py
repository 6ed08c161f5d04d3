#!/usr/bin/env python3
"""Run the repository benchmark defined in /BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload threads_miss --seed 1 --seconds 18 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1 --output out.json
    python3 benchmarks/e2e/run.py compare A.json B.json

One invocation measures one workload in this process (``all`` starts one
fresh process per workload), prints every metric by name and unit, exits
non-zero when a correctness or path check does not hold, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(args: argparse.Namespace, spec: dict) -> dict:
    """Run one workload in this process and return its report."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"run.py: the program under test is missing ({source}/repro)")
    sys.path[:0] = [source, HERE]
    from e2ebench import report

    return report.measure(args.workload, args.seed, args.seconds, args.trace, args.scale, spec,
                          args.output)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """One fresh process per workload, so set-up time and peak RSS are its own."""
    reports = {}
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        part = f"{args.output or os.path.join(HERE, '.e2e-run')}.{workload}.part"
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", str(args.scale), "--output", part]
        code = subprocess.run(command).returncode
        if code == 0:
            with open(part, encoding="utf-8") as handle:
                reports[workload] = json.load(handle)
        if os.path.exists(part):
            os.remove(part)
        status = status or code
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"workloads": reports}, handle, indent=1, sort_keys=True)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        sys.path.insert(0, HERE)
        from e2ebench import compare

        return compare.main(argv[1:], spec)
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the timed trials of one workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer probes, the span ledger and tracing overhead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on per-trial work (tests use 0.02)")
    parser.add_argument("--output", help="also write the full report as JSON")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    report = measure(args, spec)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                                  for name, entry in report["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
