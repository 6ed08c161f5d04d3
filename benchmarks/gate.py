#!/usr/bin/env python3
"""The blocking performance gate: ``python benchmarks/gate.py BASE_TREE HEAD_TREE``.

Each tree's own ``benchmarks/e2e/run.py --workload all --seed 1`` runs twice, the sides
alternating first (base, head, head, base), and each round's pair of reports goes through
``run.py compare``.  The gate fails when a run exits non-zero or the *same* workload x
metric cell is ``worse`` in both pairs: two runs of one commit show a lone ``worse`` now
and then, not the same cell twice in a row (CHANGES.md, PR 16, has the null runs).  Both
sides are measured here, minutes apart, so there is no committed baseline to go stale.
The reports stay in the working directory as ``gate-{base,head}-{1,2}.json``.

When ``BENCHMARK.json`` or ``benchmarks/e2e/`` differ between the trees the sides have no
common yardstick: the gate says so and exits 0 (a change to the benchmark is its own
change and claims nothing).
"""

import os
import subprocess
import sys

E2E = os.path.join("benchmarks", "e2e")
HERE = os.path.dirname(os.path.abspath(__file__))


def yardstick(tree: str) -> dict:
    """Relative path -> content of every file that defines the benchmark in ``tree``."""
    paths = [os.path.join(tree, "BENCHMARK.json")]
    for directory, subdirs, names in os.walk(os.path.join(tree, E2E)):
        # Dot entries and __pycache__ are what a run leaves behind (.gitignore).
        subdirs[:] = [name for name in subdirs if name[0] != "." and name != "__pycache__"]
        paths += [os.path.join(directory, name) for name in names if name[0] != "."]
    files = {}
    for path in filter(os.path.isfile, paths):
        with open(path, "rb") as handle:
            files[os.path.relpath(path, tree)] = handle.read()
    return files


def measure(tree: str, report: str) -> None:
    command = [sys.executable, os.path.join(tree, E2E, "run.py"),
               "--workload", "all", "--seed", "1", "--output", report]
    code = subprocess.run(command).returncode
    if code:
        sys.exit(f"gate: FAIL: {' '.join(command)} exited {code}")


def worse_cells(base_report: str, head_report: str) -> set:
    """The (workload, metric) cells ``run.py compare`` calls worse; prints its table."""
    # This file's sibling: the trees' copies are the same file, or the gate has skipped.
    done = subprocess.run([sys.executable, os.path.join(HERE, "e2e", "run.py"), "compare",
                           base_report, head_report], capture_output=True, text=True)
    print(done.stdout, end="", flush=True)
    cells = {tuple(line.split()[:2]) for line in done.stdout.splitlines()
             if line.endswith("  worse")}
    if bool(cells) != bool(done.returncode):
        sys.exit(f"gate: FAIL: run.py compare exited {done.returncode}\n{done.stderr}")
    return cells


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit("usage: gate.py BASE_TREE HEAD_TREE")
    trees = {"base": os.path.abspath(argv[0]), "head": os.path.abspath(argv[1])}
    if yardstick(trees["base"]) != yardstick(trees["head"]):
        print(f"gate: SKIP: BENCHMARK.json or {E2E}/ differ between the trees")
        return 0
    pairs = []
    for number, order in ((1, ("base", "head")), (2, ("head", "base"))):
        for side in order:
            measure(trees[side], f"gate-{side}-{number}.json")
        pairs.append(worse_cells(f"gate-base-{number}.json", f"gate-head-{number}.json"))
        print(f"gate: pair {number}: {len(pairs[-1])} worse {sorted(pairs[-1])}", flush=True)
    twice = sorted(pairs[0] & pairs[1])
    print(f"gate: FAIL: worse in both pairs: {twice}" if twice
          else "gate: PASS: no cell is worse in both pairs")
    return 1 if twice else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
