"""Tier-1 checks of the benchmark suite itself (a few seconds at ``--scale 0.02``)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def start(workload: str, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--scale", "0.02", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_every_workload_emits_exactly_the_declared_metrics():
    """All five untraced, one traced, side by side: the contract's last line."""
    runs = {(workload, 0): start(workload, 0) for workload in WORKLOADS}
    runs[("explore_registry", 1)] = start("explore_registry", 1)
    for (workload, trace), process in runs.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, f"{workload} trace={trace}: {err[-2000:]}"
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {entry["name"] for entry in declared}
        for entry in declared:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        if not trace:
            assert all(result["metrics"][entry["name"]]["value"] > 0 for entry in declared)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """BENCHMARK.json and the benchmark's own files alone must not produce a result."""
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", HERE, str(bare / "benchmarks" / "e2e")], check=True)
    subprocess.run(["cp", os.path.join(ROOT, "BENCHMARK.json"), str(bare)], check=True)
    done = subprocess.run([sys.executable, str(bare / "benchmarks" / "e2e" / "run.py"),
                           "--workload", "threads_miss", "--seconds", "0"],
                          cwd=str(bare), capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_threads_match_fed_an_all_miss_history_fails_its_path_check():
    from e2ebench import gauntlet
    from e2ebench.common import CheckFailed, foreign_history

    with pytest.raises(CheckFailed, match="does not fit the program's stacks"):
        gauntlet.run("threads_match", 3, 0.0, 0.02,
                     history=lambda seed, own_stacks: foreign_history(seed))


def test_fleet_control_pattern_that_yields_fails_the_run():
    from e2ebench import fleet
    from e2ebench.common import CheckFailed

    with pytest.raises(CheckFailed, match="control pattern"):
        fleet.run(3, 0.0, 0.02, control_pattern=0)


def test_compare_verdicts_use_only_the_declared_bounds(tmp_path, capsys):
    from e2ebench import compare

    def report(ops, q1, q3, failed=0):
        metrics = {entry["name"]: {"value": 1.0, "q1": 1.0, "q3": 1.0}
                   for entry in SPEC["end_to_end"]}
        metrics["ops_per_s"] = {"value": ops, "q1": q1, "q3": q3}
        return {"workload": "threads_miss", "seed": 1, "scale": 1.0, "metrics": metrics,
                "counts": {"requests_per_trial": 14000}, "failed": failed}

    def verdict_of(candidate):
        paths = []
        for name, content in (("a", report(100.0, 99.0, 101.0)), ("b", candidate)):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump(content, handle)
        code = compare.main(paths, SPEC)
        lines = capsys.readouterr().out.splitlines()
        row = next(line for line in lines if line.split()[:2] == ["threads_miss", "ops_per_s"])
        return code, row.split()[-1]

    bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "ops_per_s")
    assert verdict_of(report(100.0 * (1 - bound) - 2, 80.0, 88.0)) == (1, "worse")
    assert verdict_of(report(98.0, 97.0, 99.0)) == (0, "within")
    assert verdict_of(report(70.0, 40.0, 100.0)) == (0, "unresolved")
    assert verdict_of(report(120.0, 118.0, 122.0)) == (0, "better")
    assert verdict_of(report(100.0, 99.0, 101.0, failed=1))[0] == 1


def test_suite_uses_only_public_current_names_of_the_program():
    """No ``_private`` imports, nothing ROADMAP item 2 slates for deletion, no other benchmark."""
    banned = ["Event" + "Queue", "immunize_" + "asyncio", "use_" + "peterson", "sleep_" + "sets",
              'strategy="' + 'sleep"', "quick" + "bench", "import bench_", "from bench_"]
    private_import = re.compile(r"^\s*from\s+repro[\w.]*\s+import\s+.*(?<![\w])_[a-zA-Z]", re.M)
    module_import = re.compile(r"^\s*(?:from|import)\s+repro[\w.]*\._", re.M)
    for directory, _, files in os.walk(HERE):
        for name in files:
            if not name.endswith(".py") or name == os.path.basename(__file__):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                text = handle.read()
            for word in banned:
                assert word not in text, f"{name} uses {word}"
            assert not private_import.search(text), f"{name} imports a private name"
            assert not module_import.search(text), f"{name} imports a private module"
