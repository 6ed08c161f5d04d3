"""Tests for the experiment harness (small-scale runs and report formatting)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.dimmunix import Dimmunix
from repro.harness.ablation import run_allow_edge_ablation
from repro.harness.appworkloads import (run_aiobroker_workload,
                                        run_broker_workload, run_jdbc_workload)
from repro.harness.effectiveness import run_table1, run_table2
from repro.harness.falsepos import run_calibration, run_figure9, run_gate_lock_comparison
from repro.harness.overhead import _collect_app_stacks
from repro.harness.report import format_table, overhead_percent
from repro.harness.resources import run_resource_utilization
from repro.instrument.aio import AsyncioRuntime
from repro.instrument.runtime import InstrumentationRuntime
from repro.workloads.exploits import TABLE1_EXPLOITS, TABLE2_EXPLOITS


class TestReportFormatting:
    def test_format_table_aligns_columns(self):
        rows = [{"name": "a", "value": 1}, {"name": "longer", "value": 23.456}]
        text = format_table(rows, title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_handles_row_objects(self):
        class Row:
            def as_dict(self):
                return {"x": 1}

        assert "x" in format_table([Row()])

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_overhead_percent(self):
        assert overhead_percent(200.0, 150.0) == 25.0
        assert overhead_percent(100.0, 125.0) == -25.0      # faster than the baseline
        assert overhead_percent(0.0, 10.0) == 0.0           # no baseline, no figure


class TestAppWorkloads:
    @pytest.fixture
    def runtime(self, config, history):
        return InstrumentationRuntime(Dimmunix(config=config, history=history))

    def test_broker_workload_produces_operations(self, runtime):
        result = run_broker_workload(runtime, threads=2, cycles=2,
                                     messages_per_cycle=3)
        assert result.operations > 0
        assert result.errors == 0
        assert result.throughput > 0

    @pytest.mark.parametrize("cycles", [2, 4, 8])
    def test_broker_operations_are_linear_in_cycles(self, runtime, cycles):
        """One per ack plus one per shared enqueue — never the queue length."""
        result = run_broker_workload(runtime, threads=2, cycles=cycles,
                                     messages_per_cycle=3)
        assert result.errors == 0
        assert result.operations == 2 * (cycles * 3 + cycles // 2)

    @pytest.mark.parametrize("cycles", [2, 4, 8])
    def test_aiobroker_operations_are_linear_in_cycles(self, config, cycles):
        runtime = AsyncioRuntime(Dimmunix(config=config))
        result = run_aiobroker_workload(runtime, tasks=2, cycles=cycles,
                                        messages_per_cycle=3)
        assert result.errors == 0
        assert result.operations == 2 * (cycles * 3 + cycles // 2)

    def test_jdbc_workload_produces_operations(self, runtime):
        result = run_jdbc_workload(runtime, threads=2, transactions=3, pool_size=2)
        assert result.operations > 0
        assert result.errors == 0


class TestFigure4History:
    @pytest.mark.parametrize("app", ["broker", "aiobroker"])
    def test_signatures_pair_full_depth_application_stacks(self, app):
        # Read back after the warm-up, a lazily captured stack has lost its
        # frames: every signature would then name a bare lock site.
        stacks = _collect_app_stacks(app, threads=2, cycles=2)
        assert stacks and all(len(stack) > 1 for stack in stacks)


class TestEffectivenessRunners:
    def test_single_bug_row_shape(self):
        rows = run_table1()
        assert [row.name for row in rows] == [e.name for e in TABLE1_EXPLOITS]
        row = rows[0]
        assert row.baseline_deadlocks >= 1
        assert row.immune_deadlocks == 0
        assert row.yields_max >= 1
        assert row.patterns >= 1
        assert "bug" in row.as_dict()

    def test_table2_runner_uses_table2_exploits(self):
        rows = run_table2()
        assert [row.name for row in rows] == [e.name for e in TABLE2_EXPLOITS]
        assert all(row.immune_deadlocks == 0 for row in rows)


class TestSimulationRunners:
    def test_figure9_small(self):
        rows = run_figure9(depths=(1, 3), threads=8, locks=4, signatures=8,
                           iterations=10, full_depth=3)
        assert len(rows) == 2
        assert rows[0].false_positives >= rows[1].false_positives

    def test_calibration_small(self):
        depths, run = run_calibration(threads=8, locks=4, signatures=8, iterations=20,
                                      full_depth=6)
        assert [row["depth"] for row in depths] == sorted(row["depth"] for row in depths)
        assert sum(row["signatures left here"] for row in depths) == 8
        assert all(0 <= row["false positives"] <= row["avoidances"] for row in depths)
        # Every signature starts at depth 1, yields there, and moves deeper.
        assert depths[0]["depth"] == 1 and depths[0]["avoidances"] > 0
        assert depths[0]["signatures left here"] == 0
        [row] = run
        assert set(row) == {"depths", "seeds", "ops/s", "yields", "overhead %"}
        assert row["seeds"] == 10 and row["ops/s"] > 0

    def test_a_simulated_row_does_not_depend_on_the_hash_seed(self):
        """Depth 1 matches every request, so which binding the cover search
        meets first decides each yield's cause: a set iterated in hash
        order there made the row differ from process to process."""
        script = ("from repro.harness.falsepos import run_figure9\n"
                  "print(run_figure9(depths=(1,), threads=8, locks=4, signatures=8,"
                  " iterations=10, full_depth=3)[0].as_dict())\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        rows = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            rows.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True, timeout=120).stdout)
        assert rows[0] == rows[1] != ""

    def test_gate_comparison_small(self):
        comparison = run_gate_lock_comparison(threads=8, locks=4, signatures=8,
                                              iterations=10)
        assert comparison.gates == 8
        assert comparison.throughput > 0

    def test_resources_small(self):
        rows = run_resource_utilization(thread_counts=(2, 8), signatures=8,
                                        iterations=4)
        assert len(rows) == 2
        assert rows[0].history_bytes_per_signature > 0

    def test_allow_edge_ablation(self):
        rows = run_allow_edge_ablation()
        flags = {row.consider_allow_edges: row.yields for row in rows}
        assert flags[True] >= 1
        assert flags[False] == 0
