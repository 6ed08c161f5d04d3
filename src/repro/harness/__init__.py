"""Experiment harness: one runner per artefact of the paper's evaluation.

Each runner's defaults are the paper's parameters (``benchmarks/paper.py``).
"""

from .ablation import (run_allow_edge_ablation, run_detection_latency,
                       run_immunity_mode_ablation)
from .effectiveness import run_table1, run_table2
from .explore import run_exploration_matrix
from .appworkloads import (run_aiobroker_workload, run_broker_workload,
                           run_jdbc_workload)
from .overhead import run_figure4
from .microsweeps import run_figure5, run_figure6, run_figure7, run_figure8
from .falsepos import run_calibration, run_figure9, run_gate_lock_comparison
from .resources import run_resource_utilization
from .report import format_table, overhead_percent
from .scaling import run_scaling

__all__ = [
    "format_table",
    "overhead_percent",
    "run_aiobroker_workload",
    "run_allow_edge_ablation",
    "run_broker_workload",
    "run_calibration",
    "run_detection_latency",
    "run_exploration_matrix",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_gate_lock_comparison",
    "run_immunity_mode_ablation",
    "run_jdbc_workload",
    "run_resource_utilization",
    "run_scaling",
    "run_table1",
    "run_table2",
]
