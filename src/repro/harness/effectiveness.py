"""Tables 1 and 2: effectiveness against real deadlock bugs.

For every exploit the paper runs three configurations, 100 timed trials each:

1. the unmodified program                        → always deadlocks,
2. instrumented but ignoring all yield decisions → still always deadlocks,
3. full Dimmunix with the signature in history   → never deadlocks.

Here each configuration is an exploration of *every* interleaving of the
exploit's threads (:mod:`repro.workloads.exploits`), not a trial of one:
the ImmunityChecker explores the program under
:class:`~repro.sim.backends.NullBackend`, learns from its deadlocks until
no interleaving deadlocks under Dimmunix with the learned history, and the
instrumented-only configuration is explored under
:class:`~repro.baselines.detection.DetectionOnlyBackend` with that same
history.  A row reports the deadlocking interleavings of each
configuration, the yields per interleaving of the immune one, the number
of signatures learned (``# patterns``) and their depth, the last two
beside the paper's.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from ..baselines.detection import DetectionOnlyBackend
from ..sim.explore import Explorer, ImmunityChecker
from ..workloads.exploits import TABLE1_EXPLOITS, TABLE2_EXPLOITS, Exploit


@dataclass
class Table1Row:
    """One row of Table 1 (also used for Table 2)."""

    name: str
    system: str
    bug_id: str
    description: str
    #: Interleavings explored without avoidance, and how many deadlocked.
    interleavings: int
    baseline_deadlocks: int
    detection_deadlocks: int
    #: Interleavings explored under full Dimmunix, and how many deadlocked.
    immune_interleavings: int
    immune_deadlocks: int
    #: Whether the immune exploration covered its whole tree.
    immune_exhausted: bool
    #: Yields per immune interleaving.
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
            "interleavings": self.interleavings,
            "baseline deadlocks": self.baseline_deadlocks,
            "instrumented-no-avoid deadlocks": self.detection_deadlocks,
            "immune interleavings": self.immune_interleavings,
            "immune deadlocks": self.immune_deadlocks,
            "exhausted": self.immune_exhausted,
            "yields min": self.yields_min,
            "yields avg": round(self.yields_avg, 1),
            "yields max": self.yields_max,
            "# patterns": self.patterns,
            "paper patterns": self.paper_patterns,
            "depth": ",".join(str(d) for d in self.signature_depths) or "-",
            "paper depth": self.paper_depth,
        }


def run_bug(exploit: Exploit) -> Table1Row:
    """Explore one bug in the three configurations and summarize them."""
    report = ImmunityChecker(exploit.scenario, name=exploit.name).check()
    history = report.history
    detection = DetectionOnlyBackend(history=history)
    instrumented = Explorer(lambda: exploit.scenario(detection.fork()),
                            name=exploit.name).explore()
    immune = report.immune
    yields = immune.run_yields if immune and immune.run_yields else [0]
    signatures = history.signatures() if history is not None else []
    return Table1Row(
        name=exploit.name,
        system=exploit.system,
        bug_id=exploit.bug_id,
        description=exploit.description,
        interleavings=report.vulnerable.runs,
        baseline_deadlocks=report.vulnerable.deadlock_count,
        detection_deadlocks=instrumented.deadlock_count,
        immune_interleavings=immune.runs if immune else 0,
        immune_deadlocks=immune.deadlock_count if immune else 0,
        immune_exhausted=immune.exhausted if immune else False,
        yields_min=min(yields),
        yields_avg=statistics.mean(yields),
        yields_max=max(yields),
        patterns=len(signatures),
        paper_patterns=exploit.patterns,
        paper_depth=exploit.paper_depth,
        signature_depths=[max(len(stack) for stack in sig.stacks)
                          for sig in signatures],
    )


def run_table1() -> List[Table1Row]:
    """Reproduce Table 1: the ten real deadlock bugs."""
    return [run_bug(exploit) for exploit in TABLE1_EXPLOITS]


def run_table2() -> List[Table1Row]:
    """Reproduce Table 2: the JDK invitations to deadlock."""
    return [run_bug(exploit) for exploit in TABLE2_EXPLOITS]
