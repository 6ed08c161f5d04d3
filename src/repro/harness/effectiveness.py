"""Tables 1 and 2: effectiveness against real deadlock bugs.

For every exploit the paper runs three configurations, 100 trials each:

1. the unmodified program                        → always deadlocks,
2. instrumented but ignoring all yield decisions → still always deadlocks,
3. full Dimmunix with the signature in history   → never deadlocks.

The runners here do the same (with a configurable, smaller trial count so
the whole sweep stays in CI-friendly time) and report the yields observed
per immune trial, the number of deadlock patterns archived, and the size
(depth) of the archived signatures, the last two beside the paper's.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.history import History
from ..instrument.runtime import InstrumentationRuntime
from ..workloads.exploits import (Exploit, ExploitOutcome, TABLE1_EXPLOITS,
                                  TABLE2_EXPLOITS, run_exploit)

_FAST = dict(monitor_interval=0.02, yield_timeout=None,
             auto_disable_abort_threshold=None)


@dataclass
class Table1Row:
    """One row of Table 1 (also used for Table 2)."""

    name: str
    system: str
    bug_id: str
    description: str
    baseline_deadlocks: int
    detection_deadlocks: int
    immune_deadlocks: int
    immune_trials: int
    yields_min: int
    yields_avg: float
    yields_max: int
    patterns: int
    #: The paper's own pattern count and depth for this bug, printed beside ours.
    paper_patterns: int
    paper_depth: int
    signature_depths: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "bug": f"{self.system} {self.bug_id}",
            "description": self.description,
            "baseline deadlocks": self.baseline_deadlocks,
            "instrumented-no-avoid deadlocks": self.detection_deadlocks,
            "immune deadlocks": self.immune_deadlocks,
            "yields min": self.yields_min,
            "yields avg": round(self.yields_avg, 1),
            "yields max": self.yields_max,
            "# patterns": self.patterns,
            "paper patterns": self.paper_patterns,
            "depth": ",".join(str(d) for d in self.signature_depths) or "-",
            "paper depth": self.paper_depth,
        }


def _runtime(history: Optional[History], detection_only: bool = False,
             engine_mode: str = "full") -> InstrumentationRuntime:
    config = DimmunixConfig(detection_only=detection_only, **_FAST)
    dimmunix = Dimmunix(config=config, history=history, engine_mode=engine_mode)
    dimmunix.start()
    return InstrumentationRuntime(dimmunix)


def _run_trials(exploit: Exploit, history: Optional[History], trials: int,
                detection_only: bool = False,
                engine_mode: str = "full") -> List[ExploitOutcome]:
    outcomes = []
    for _ in range(trials):
        runtime = _runtime(history, detection_only=detection_only,
                           engine_mode=engine_mode)
        try:
            outcomes.append(run_exploit(exploit, runtime))
        finally:
            runtime.dimmunix.stop()
    return outcomes


def run_bug(exploit: Exploit, trials: int = 1,
            baseline_trials: int = 1) -> Table1Row:
    """Run the three configurations for one bug and summarize them."""
    # Configuration 1: the "unmodified" program (locks pass straight through).
    baseline = _run_trials(exploit, history=None, trials=baseline_trials,
                           engine_mode="instrumentation_only")
    # Configuration 2: instrumented, yields ignored; signatures get archived.
    shared_history = History(path=None, autosave=False)
    detection = _run_trials(exploit, history=shared_history,
                            trials=baseline_trials, detection_only=True)
    # Configuration 3: full Dimmunix with the archived signatures.
    immune = _run_trials(exploit, history=shared_history, trials=trials)

    yields = [outcome.yields for outcome in immune] or [0]
    signatures = shared_history.signatures()
    return Table1Row(
        name=exploit.name,
        system=exploit.system,
        bug_id=exploit.bug_id,
        description=exploit.description,
        baseline_deadlocks=sum(1 for o in baseline if o.deadlocked),
        detection_deadlocks=sum(1 for o in detection if o.deadlocked),
        immune_deadlocks=sum(1 for o in immune if o.deadlocked),
        immune_trials=len(immune),
        yields_min=min(yields),
        yields_avg=statistics.mean(yields),
        yields_max=max(yields),
        patterns=len(signatures),
        paper_patterns=exploit.patterns,
        paper_depth=exploit.paper_depth,
        signature_depths=[max(len(stack) for stack in sig.stacks)
                          for sig in signatures],
    )


def run_table1(trials: int = 1, exploits: Optional[Sequence[Exploit]] = None
               ) -> List[Table1Row]:
    """Reproduce Table 1: the ten real deadlock bugs."""
    selected = list(exploits) if exploits is not None else TABLE1_EXPLOITS
    return [run_bug(exploit, trials=trials) for exploit in selected]


def run_table2(trials: int = 1, exploits: Optional[Sequence[Exploit]] = None
               ) -> List[Table1Row]:
    """Reproduce Table 2: the JDK invitations to deadlock."""
    selected = list(exploits) if exploits is not None else TABLE2_EXPLOITS
    return [run_bug(exploit, trials=trials) for exploit in selected]
