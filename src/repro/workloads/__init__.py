"""Workloads: the Table 1-2 exploits, the microbenchmark, synthetic histories."""

from .exploits import (Exploit, TABLE1_EXPLOITS, TABLE2_EXPLOITS, all_exploits,
                       exploit_by_name)
from .microbench import (MicrobenchConfig, MicrobenchResult, run_threaded_microbench,
                         run_simulated_microbench)
from .synth_history import synthesize_history, synthesize_microbench_history

__all__ = [
    "Exploit",
    "MicrobenchConfig",
    "MicrobenchResult",
    "TABLE1_EXPLOITS",
    "TABLE2_EXPLOITS",
    "all_exploits",
    "exploit_by_name",
    "run_simulated_microbench",
    "run_threaded_microbench",
    "synthesize_history",
    "synthesize_microbench_history",
]
