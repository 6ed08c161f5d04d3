"""Exploration matrix: the immunity claim checked scenario by scenario.

Where the other harness runners regenerate the paper's tables and figures
from *sampled* runs, this one quantifies over schedules: for every
registered scenario it enumerates all interleavings within the configured
bounds, confirms the scenario deadlocks without avoidance, seeds the
history from the minimal counterexample, and confirms that no bounded
interleaving deadlocks with the history in place.

Every row states *how* its coverage was obtained: the reduction strategy
that ran, whether each phase's bounded tree was fully enumerated, and —
when the unreduced tree size is measured — the reduction ratio.  A
truncated or reduced exploration therefore cannot read as full coverage:
``exhausted=False`` or a reduction ratio is right there in the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim import NullBackend
from ..sim.explore import (SCENARIOS, Explorer, ImmunityChecker,
                           ImmunityReport)


@dataclass
class ExplorationRow:
    """One scenario's verdict in the exploration matrix."""

    scenario: str
    #: Concrete reduction strategy the checker ran ("dfs"/"dpor").
    strategy: str
    interleavings: int
    states: int
    deadlocks: int
    unique_deadlocks: int
    minimal_trace_len: Optional[int]
    signatures: int
    immune_interleavings: Optional[int]
    immune_deadlocks: Optional[int]
    immune: bool
    #: Whether each phase fully enumerated its bounded tree — the
    #: difference between "no deadlock exists" and "none found so far".
    vulnerable_exhausted: bool
    immune_exhausted: Optional[bool]
    #: Size of the *unreduced* vulnerable tree (None when not measured
    #: or when the unreduced search itself hit the run budget).
    full_interleavings: Optional[int]
    #: interleavings / full_interleavings — e.g. 0.07 means the strategy
    #: covered the full tree's deadlock set with 7% of its runs.
    reduction: Optional[float]
    states_per_second: float

    @classmethod
    def from_report(cls, report: ImmunityReport, strategy: str,
                    full_runs: Optional[int] = None) -> "ExplorationRow":
        vulnerable = report.vulnerable
        immune = report.immune
        states = vulnerable.steps + (immune.steps if immune else 0)
        elapsed = vulnerable.elapsed + (immune.elapsed if immune else 0.0)
        return cls(
            scenario=report.scenario,
            strategy=strategy,
            interleavings=vulnerable.runs,
            states=states,
            deadlocks=vulnerable.deadlock_count,
            unique_deadlocks=vulnerable.unique_deadlocks,
            minimal_trace_len=(len(report.minimal_trace)
                               if report.minimal_trace is not None else None),
            signatures=report.learned_signatures,
            immune_interleavings=immune.runs if immune else None,
            immune_deadlocks=immune.deadlock_count if immune else None,
            immune=report.holds,
            vulnerable_exhausted=vulnerable.exhausted,
            immune_exhausted=immune.exhausted if immune else None,
            full_interleavings=full_runs,
            reduction=(round(vulnerable.runs / full_runs, 4)
                       if full_runs else None),
            states_per_second=states / elapsed if elapsed > 0 else 0.0,
        )

    def as_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "interleavings": self.interleavings,
            "states": self.states,
            "deadlocks": self.deadlocks,
            "unique": self.unique_deadlocks,
            "min_trace": self.minimal_trace_len,
            "signatures": self.signatures,
            "immune_runs": self.immune_interleavings,
            "immune_deadlocks": self.immune_deadlocks,
            "immune": self.immune,
            "vulnerable_exhausted": self.vulnerable_exhausted,
            "immune_exhausted": self.immune_exhausted,
            "full_interleavings": self.full_interleavings,
            "reduction": self.reduction,
            "states_per_sec": round(self.states_per_second, 1),
        }


def run_exploration_matrix(scenarios: Optional[Dict[str, Callable]] = None,
                           max_runs: int = 5_000,
                           max_depth: Optional[int] = None,
                           preemption_bound: Optional[int] = None,
                           strategy: Optional[str] = None,
                           measure_reduction: bool = True,
                           ) -> List[ExplorationRow]:
    """Run the :class:`ImmunityChecker` over every registered scenario.

    ``strategy`` selects the reduction for both exploration phases
    (default: the explorer's default, source-DPOR).  With
    ``measure_reduction`` the unreduced vulnerable tree is also sized
    (one extra plain-DFS search per scenario, same bounds) so each row
    carries its reduction ratio; a ratio of ``None`` with
    ``vulnerable_exhausted=False`` means the search was truncated, not
    reduced.
    """
    selected = scenarios if scenarios is not None else SCENARIOS
    rows: List[ExplorationRow] = []
    for name, scenario in selected.items():
        checker = ImmunityChecker(scenario, name=name, max_runs=max_runs,
                                  max_depth=max_depth,
                                  preemption_bound=preemption_bound,
                                  strategy=strategy)
        resolved = checker._explorer(
            lambda: scenario(NullBackend())).resolve_strategy()
        full_runs: Optional[int] = None
        if measure_reduction and resolved != "dfs":
            full = Explorer(lambda: scenario(NullBackend()), name=name,
                            max_runs=max_runs, max_depth=max_depth,
                            strategy="dfs").explore()
            if full.exhausted:
                full_runs = full.runs
        rows.append(ExplorationRow.from_report(checker.check(), resolved,
                                               full_runs))
    return rows
