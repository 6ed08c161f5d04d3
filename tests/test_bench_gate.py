"""``benchmarks/gate.py``'s rule.

The gate is driven end to end: two fake trees whose ``benchmarks/e2e/run.py``
writes a canned ``--output`` report (so a "run" takes milliseconds), compared
by the real ``run.py compare`` against the bounds of the real ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "benchmarks", "gate.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Stands in for each tree's ``run.py``: the n-th call copies ``canned-n.json``'s
#: report to ``--output``, notes its tree in ``./order`` and exits with its ``exit``.
STUB = """\
import json, os, sys
tree = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(tree, "calls"), "a+") as calls:
    calls.write("x")
    number = calls.tell()
with open(os.path.join(tree, f"canned-{number}.json")) as handle:
    canned = json.load(handle)
with open(sys.argv[sys.argv.index("--output") + 1], "w") as handle:
    json.dump(canned["report"], handle)
with open("order", "a") as handle:
    handle.write(os.path.basename(tree) + " ")
sys.exit(canned["exit"])
"""

A, B = ("threads_miss", "op_p90_us"), ("aio_miss", "cpu_us_per_op")


def report(*slow) -> dict:
    """An ``--workload all`` report, every metric 100 +-1; cells in ``slow`` read 200."""
    workloads = {}
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        metrics = {}
        for entry in SPEC["end_to_end"]:
            value = 200.0 if (workload, entry["name"]) in slow else 100.0
            metrics[entry["name"]] = {"value": value, "q1": value - 1, "q3": value + 1,
                                      "n": 5, "unit": entry["unit"]}
        workloads[workload] = {"workload": workload, "seed": 1, "scale": 1.0, "metrics": metrics,
                               "counts": {}, "attempted": 10, "failed": 0}
    return {"workloads": workloads}


def tree(path, rounds, spec=SPEC) -> str:
    """A tree whose two runs write ``rounds[0]`` and ``rounds[1]`` (report, exit code)."""
    os.makedirs(path / "benchmarks" / "e2e")
    (path / "benchmarks" / "e2e" / "run.py").write_text(STUB)
    (path / "BENCHMARK.json").write_text(json.dumps(spec))
    for number, (content, code) in enumerate(rounds, 1):
        (path / f"canned-{number}.json").write_text(json.dumps({"report": content, "exit": code}))
    return str(path)


def run_gate(tmp_path, base: str, head: str):
    return subprocess.run([sys.executable, GATE, base, head], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)


def gate(tmp_path, head_rounds, **head):
    """The gate's verdict on a head with these rounds against an all-100 base."""
    return run_gate(tmp_path, tree(tmp_path / "base", [(report(), 0), (report(), 0)]),
                    tree(tmp_path / "head", head_rounds, **head))


@pytest.mark.parametrize("first, second, code", [
    ((), (), 0),
    ((A,), (), 0),              # worse in one pair only
    ((A,), (B,), 0),            # two different cells
    ((A, B), (B,), 1),          # the same cell in both
])
def test_only_the_same_cell_worse_in_both_pairs_fails(tmp_path, first, second, code):
    done = gate(tmp_path, [(report(*first), 0), (report(*second), 0)])
    assert done.returncode == code, done.stdout + done.stderr
    assert f"gate: pair 1: {len(first)} worse" in done.stdout
    assert f"gate: pair 2: {len(second)} worse" in done.stdout
    if code:
        assert "worse in both pairs: [('aio_miss', 'cpu_us_per_op')]" in done.stdout
    assert sorted(name for name in os.listdir(tmp_path) if name.startswith("gate-")) == [
        "gate-base-1.json", "gate-base-2.json", "gate-head-1.json", "gate-head-2.json"]


def test_sides_alternate_first(tmp_path):
    gate(tmp_path, [(report(), 0), (report(), 0)])
    assert (tmp_path / "order").read_text().split() == ["base", "head", "head", "base"]


def test_a_run_that_exits_non_zero_fails(tmp_path):
    done = gate(tmp_path, [(report(), 3), (report(), 0)])
    assert done.returncode != 0
    assert "exited 3" in done.stderr


def test_a_different_benchmark_is_skipped_not_judged(tmp_path):
    looser = dict(SPEC, run_seconds=SPEC["run_seconds"] + 1)
    done = gate(tmp_path, [(report(A), 0), (report(A), 0)], spec=looser)
    assert done.returncode == 0
    assert "gate: SKIP" in done.stdout
    assert not os.path.exists(tmp_path / "head" / "calls")      # nothing ran


def test_run_leftovers_do_not_count_as_a_different_benchmark(tmp_path):
    base = tree(tmp_path / "base", [(report(), 0), (report(), 0)])
    head = tree(tmp_path / "head", [(report(), 0), (report(), 0)])
    os.makedirs(os.path.join(head, "benchmarks", "e2e", "__pycache__"))
    shutil.copy(GATE, os.path.join(head, "benchmarks", "e2e", "__pycache__", "run.pyc"))
    shutil.copy(GATE, os.path.join(head, "benchmarks", "e2e", ".e2e-run.aio_miss.part"))
    done = run_gate(tmp_path, base, head)
    assert "gate: PASS" in done.stdout, done.stdout + done.stderr

