#!/usr/bin/env python3
"""The paper's evaluation as one checked table per artefact.

    python benchmarks/paper.py [NAME ...] [--output PATH]

``ARTEFACTS`` holds one row per figure and table of the paper, plus the
prose claims the ablations quantify, the exploration matrix and the
free-threaded scaling curve.  A row is the ``repro.harness`` runner that
regenerates the artefact (called with no arguments: its defaults are the
paper's parameters), the title of each table it prints, and the shape
check its numbers must pass.  The named artefacts (all of them by
default) run in order; each prints its tables and is checked.  One
self-describing JSON is written to ``--output`` (default ``paper.json``):
interpreter, ``gil_enabled``, seconds, and per artefact its seconds,
rows and check verdict.  A failed check makes the run exit 1 and is
named on stderr.  Nothing compares these numbers across commits;
performance is judged by ``benchmarks/e2e/`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, NamedTuple, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.harness import (format_table, overhead_percent, run_allow_edge_ablation,
                           run_detection_latency, run_exploration_matrix, run_figure4,
                           run_figure5, run_figure6, run_figure7, run_figure8, run_figure9,
                           run_gate_lock_comparison, run_immunity_mode_ablation,
                           run_resource_utilization, run_scaling, run_table1, run_table2)


def check_fig4(rows):
    """Figure 4, end-to-end overhead vs history size.  Paper: at most 2.6%
    (JBoss/RUBiS) and 7.17% (MySQL JDBC/JDBCBench) with 32-128 signatures.
    Here: the mini broker, the mini connection pool and the asyncio broker.
    """
    assert len(rows) == 9          # three applications x three history sizes
    by_app = {}
    for row in rows:
        overhead = overhead_percent(row.baseline_throughput, row.immune_throughput)
        # The paper ran on 8 cores, the monitor on a spare one, matching
        # compiled; under CPython every engine instruction competes for the
        # GIL.  What must survive: the workload is never serialized outright,
        # and 32 -> 128 signatures does not blow the overhead up.
        assert overhead < 95.0, row.as_dict()
        assert row.immune_throughput > 0, row.as_dict()
        by_app.setdefault(row.application, []).append(overhead)
    for application, overheads in by_app.items():
        assert max(overheads) - min(overheads) < 35.0, (application, overheads)


def check_fig5(rows):
    """Figure 5, throughput vs threads.  Paper: 0.6-4.5% (pthreads) and
    6.5-17.5% (Java) overhead up to 1024 threads.  Real threads run up to
    32, the simulator above; overhead may not exceed 50% (noise allowed).
    """
    assert rows[-1].threads == 1024
    for row in rows:
        assert row.dimmunix_throughput > 0
        assert overhead_percent(row.baseline_throughput, row.dimmunix_throughput) < 50.0, \
            row.as_dict()


def check_fig6(vary_in, vary_out):
    """Figure 6, throughput vs delta_in / delta_out.  Paper: overhead is
    absorbed as time in or between critical sections grows; at delta_out
    >= 1 ms the curves nearly coincide."""
    assert vary_out[0].baseline_throughput > vary_out[-1].baseline_throughput
    last = vary_out[-1]
    assert overhead_percent(last.baseline_throughput, last.dimmunix_throughput) < 30.0, \
        last.as_dict()


def check_fig7(rows):
    """Figure 7, throughput vs history size and depth.  Paper: flat (a few
    percent); no point may fall below half the mean (wall-clock noise)."""
    assert len(rows) == 16
    mean = statistics.mean(row.dimmunix_throughput for row in rows)
    for row in rows:
        assert row.dimmunix_throughput > 0.5 * mean, row.as_dict()


def check_fig8(rows):
    """Figure 8, overhead by cumulative stage.  Each stage adds work, so
    the full engine may not run much faster than the baseline."""
    assert len(rows) == 3
    for row in rows:
        assert row.full_throughput <= row.baseline_throughput * 1.25, row.as_dict()
        assert row.full_throughput > 0


def check_fig9(rows, gates):
    """Figure 9, false positives vs depth.  Paper: ~61% overhead at depth 1,
    ~4.6% at >= 8; gate locks [17] ~70% and far more false positives."""
    by_depth = {row.matching_depth: row for row in rows}
    deepest = by_depth[max(by_depth)]
    overhead = {depth: overhead_percent(row.baseline_throughput, row.throughput)
                for depth, row in by_depth.items()}
    fps = [row.false_positives for row in rows]
    # Depths 1 and 2 both match every request (each synthesized stack has
    # the same top frame and one of four second frames, all in the history),
    # so both runs are serialized and their counts differ by a few percent of
    # scheduling noise, either way round: that step alone may rise by 10%.
    assert fps[1] <= fps[0] * 1.1, fps
    assert all(earlier >= later for earlier, later in zip(fps[1:], fps[2:])), fps
    assert deepest.false_positives == 0
    assert overhead[1] > overhead[deepest.matching_depth]
    gate = gates[0]
    assert overhead_percent(gate.baseline_throughput, gate.throughput) \
        >= overhead[deepest.matching_depth]
    assert gate.denials > deepest.false_positives


def check_table1(rows):
    """Table 1, real deadlock bugs.  Paper: the unmodified and the
    instrumented-only programs always deadlock, full Dimmunix never does.

    Every row here measures 1 pattern, where the paper counts 2 for
    Limewire 1449 and 3 for ActiveMQ 575 (the ``paper patterns`` column):
    one timed trial meets one interleaving.  Counting every pattern a bug
    can generate needs the exploit explored over all interleavings, which
    ROADMAP.md direction 2(b) does; until then the two columns are shown
    side by side, not asserted equal.
    """
    assert len(rows) == 10
    for row in rows:
        assert row.baseline_deadlocks >= 1, row.name
        assert row.detection_deadlocks >= 1, row.name
        assert row.immune_deadlocks == 0, row.name
        assert row.yields_min >= 1, row.name
        assert row.patterns >= 1, row.name


def check_table2(rows):
    """Table 2, JDK invitations to deadlock: reproduced, then avoided."""
    assert len(rows) == 5
    for row in rows:
        assert row.detection_deadlocks >= 1, row.name
        assert row.immune_deadlocks == 0, row.name
        assert row.yields_min >= 1, row.name


def check_resources(rows):
    """Section 7.4.  Paper: 200-1000 bytes per signature on disk, and
    6-25 MB (pthreads) / 79-127 MB (Java) across 2-1024 threads."""
    assert len(rows) == 4
    for row in rows:
        assert 100 <= row.history_bytes_per_signature <= 2000, row.as_dict()
        assert row.lock_ops > 0
    assert rows[-1].engine_state_bytes < 50 * 1024 * 1024


def check_ablation(latency, allow, immunity):
    """Sections 5.2 and 5.4: detection latency tracks tau; matching needs
    allow edges; weak immunity lets a pattern reoccur a bounded number of times."""
    assert latency[0].mean_latency <= latency[-1].max_latency + 0.2
    for row in latency:
        assert row.mean_latency < row.monitor_interval * 20 + 1.0
    by_flag = {row.consider_allow_edges: row for row in allow}
    assert by_flag[True].yields >= 1
    assert by_flag[False].yields == 0
    by_mode = {row.immunity: row for row in immunity}
    assert by_mode["strong"].restarts_requested >= 0
    assert by_mode["weak"].deadlocks_over_runs <= by_mode["weak"].runs


def check_explore(rows):
    """Every registered scenario deadlocks without avoidance in some bounded
    interleaving and in none once its learned signature is installed."""
    assert rows
    for row in rows:
        assert row.immune, row.as_dict()


def check_scaling(rows):
    """One engine from 1-8 real threads.  On a free-threaded build this is
    the scaling curve; on a GIL build efficiency falls toward 1/threads."""
    assert len(rows) == 4
    for row in rows:
        assert row.ops_per_sec > 0
        assert 0 < row.scaling_efficiency <= 2.0, row.as_dict()


class Artefact(NamedTuple):
    """A runner returning one table (a list of rows) or a tuple of them,
    the title of each table, and the check that is called with them."""

    run: Callable
    titles: Tuple[str, ...]
    check: Callable


ARTEFACTS: Dict[str, Artefact] = {
    "fig4": Artefact(run_figure4, ("Figure 4: end-to-end overhead vs history size",),
                     check_fig4),
    "fig5": Artefact(run_figure5, ("Figure 5: throughput vs number of threads",), check_fig5),
    "fig6": Artefact(run_figure6,
                     ("Figure 6a: vary delta_in (delta_out = 1 ms)",
                      "Figure 6b: vary delta_out (delta_in = 1 us)"), check_fig6),
    "fig7": Artefact(run_figure7, ("Figure 7: throughput vs history size and depth",),
                     check_fig7),
    "fig8": Artefact(run_figure8, ("Figure 8: overhead breakdown (cumulative stages)",),
                     check_fig8),
    "fig9": Artefact(lambda: (run_figure9(), [run_gate_lock_comparison()]),
                     ("Figure 9: overhead induced by false positives",
                      "Gate-lock baseline on the same workload"), check_fig9),
    "table1": Artefact(run_table1, ("Table 1: real deadlock bugs avoided by Dimmunix",),
                       check_table1),
    "table2": Artefact(run_table2, ("Table 2: JDK invitations to deadlock",), check_table2),
    "resources": Artefact(run_resource_utilization, ("Section 7.4: resource utilization",),
                          check_resources),
    "ablation": Artefact(lambda: (run_detection_latency(), run_allow_edge_ablation(),
                                  run_immunity_mode_ablation()),
                         ("Ablation: detection latency vs monitor period",
                          "Ablation: allow-edge matching",
                          "Ablation: weak vs strong immunity"), check_ablation),
    "explore": Artefact(run_exploration_matrix,
                        ("Exploration matrix: every scenario, with reduction ratios",),
                        check_explore),
    "scaling": Artefact(run_scaling, ("Multi-core contention: one engine, N real threads",),
                        check_scaling),
}


def gil_enabled() -> bool:
    """``sys._is_gil_enabled`` exists from 3.13; older interpreters hold the GIL."""
    probe = getattr(sys, "_is_gil_enabled", None)
    return bool(probe()) if callable(probe) else True


def failure(exc: BaseException) -> str:
    """The failing assertion's source line (and message), or the error."""
    if not isinstance(exc, AssertionError):
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"
    line = traceback.extract_tb(exc.__traceback__)[-1].line.rstrip(" \\")
    return f"{line}: {exc}" if str(exc) else line


def run(name: str) -> dict:
    """Regenerate, print and check one artefact; its payload entry."""
    artefact = ARTEFACTS[name]
    started = time.perf_counter()
    tables = ()
    try:
        result = artefact.run()
        tables = result if isinstance(result, tuple) else (result,)
        for title, rows in zip(artefact.titles, tables):
            print(format_table(rows, title), end="\n\n")
        artefact.check(*tables)
        verdict = "pass"
    except Exception as exc:
        verdict = "fail: " + failure(exc)
    elapsed = time.perf_counter() - started
    print(f"[{name}] {elapsed:.1f} s, check {verdict}", end="\n\n", flush=True)
    return {"elapsed_seconds": round(elapsed, 3), "check": verdict,
            "tables": {title: [row if isinstance(row, dict) else row.as_dict() for row in rows]
                       for title, rows in zip(artefact.titles, tables)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"artefacts to run (default: all of {', '.join(ARTEFACTS)})")
    parser.add_argument("--output", default="paper.json", metavar="PATH",
                        help="result JSON path (default: paper.json)")
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("the checks are assert statements, which -O strips: run without -O")
    unknown = [name for name in args.names if name not in ARTEFACTS]
    if unknown:
        parser.error(f"unknown artefact(s) {', '.join(unknown)} (known: {', '.join(ARTEFACTS)})")
    print(f"python {platform.python_version()}, gil_enabled: {gil_enabled()}", end="\n\n")
    started = time.perf_counter()
    artefacts = {name: run(name) for name in args.names or ARTEFACTS}
    payload = {"python": platform.python_version(), "gil_enabled": gil_enabled(),
               "elapsed_seconds": round(time.perf_counter() - started, 3),
               "artefacts": artefacts}
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    failed = [f"{name}: {entry['check'].removeprefix('fail: ')}"
              for name, entry in artefacts.items() if entry["check"] != "pass"]
    for line in failed:
        print(f"paper.py: FAILED {line}", file=sys.stderr)
    print(f"paper.py: {len(artefacts) - len(failed)}/{len(artefacts)} checks passed in "
          f"{payload['elapsed_seconds']:.1f} s; wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
