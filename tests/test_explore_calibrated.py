"""Exploration with calibration on: the immunity claim holds while depths move.

Every registered scenario and every Table 1/2 exploit runs through
``ImmunityChecker`` with a backend whose calibrator moves a signature's
depth after each avoidance (``calibration_na=1``), on the monitor passes
the simulator runs.
"""

from __future__ import annotations

import pytest

from repro.core.config import DimmunixConfig
from repro.core.history import History
from repro.sim.backends import DimmunixBackend
from repro.sim.explore import SCENARIOS, ImmunityChecker
from repro.workloads.exploits import all_exploits

CASES = {**{name: SCENARIOS[name] for name in sorted(SCENARIOS)},
         **{exploit.name: exploit.scenario for exploit in all_exploits()}}


def test_every_scenario_and_exploit_is_swept():
    assert len(CASES) == len(SCENARIOS) + 15 == 22


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_immunity_claim_holds_while_depths_move(name, monkeypatch):
    changes, set_depth = [], History.set_depth
    monkeypatch.setattr(History, "set_depth",
                        lambda self, *args: changes.append(set_depth(self, *args)) or changes[-1])
    prototype = DimmunixBackend(config=DimmunixConfig.for_testing(calibration_enabled=True,
                                                                  calibration_na=1))
    report = ImmunityChecker(CASES[name], name=name, backend_prototype=prototype).check()
    assert report.holds, report.as_dict()
    assert any(changes), "no depth moved"
