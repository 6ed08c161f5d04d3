"""Fault and housekeeping behaviour of the parallel wave runner.

The equivalence of parallel and serial exploration is pinned in
``test_differential``; this file covers what happens around it: a worker
that fails or dies must fail the exploration (it used to hang the parent
forever), and a spool directory the explorer created itself must not
outlive the exploration.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile

import pytest

from repro.core.errors import SimulationError
from repro.sim import NullBackend, ParallelExplorer
from repro.sim.explore import SCENARIOS, build_two_lock_inversion

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the faulty scenario reaches the workers by fork inheritance")


@pytest.fixture
def hard_timeout():
    """Fail (instead of hanging the suite) if the test takes over 60 s."""
    def expired(_signum, _frame):
        raise TimeoutError("parallel exploration hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def faulty_scenario(fault):
    """two-lock-inversion whose third build in any one process ``fault()``s."""
    builds = []

    def build(backend):
        builds.append(None)
        if len(builds) == 3:
            fault()
        return build_two_lock_inversion(backend)
    return build


def explode():
    raise RuntimeError("boom on the third build")


@needs_fork
class TestWorkerFailureFailsTheExploration:
    @pytest.mark.parametrize("strategy", ["dfs", "dpor"])
    def test_raising_scenario_is_reported_with_its_node(
            self, strategy, monkeypatch, hard_timeout):
        monkeypatch.setitem(SCENARIOS, "boom", faulty_scenario(explode))
        explorer = ParallelExplorer("boom", workers=2, strategy=strategy)
        with pytest.raises(SimulationError) as raised:
            explorer.explore()
        message = str(raised.value)
        assert "RuntimeError: boom on the third build" in message
        assert "failed on node [" in message

    def test_dead_worker_is_noticed_while_others_live(
            self, monkeypatch, hard_timeout):
        monkeypatch.setitem(SCENARIOS, "boom",
                            faulty_scenario(lambda: os._exit(3)))
        explorer = ParallelExplorer("boom", workers=2, strategy="dfs")
        with pytest.raises(SimulationError, match="exited"):
            explorer.explore()

    def test_memory_transport_raises_the_same_error(self, monkeypatch):
        monkeypatch.setitem(SCENARIOS, "boom", faulty_scenario(explode))
        explorer = ParallelExplorer("boom", workers=2, strategy="dfs",
                                    transport="memory")
        with pytest.raises(SimulationError, match="failed on node"):
            explorer.explore()


class TestSpoolDirectoryOwnership:
    def test_own_spool_directory_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = ParallelExplorer("two-lock-inversion", workers=2,
                                  backend=NullBackend()).explore()
        assert result.exhausted
        assert os.listdir(tmp_path) == []

    def test_caller_supplied_spool_directory_is_kept(self, tmp_path):
        spool = tmp_path / "spool"
        result = ParallelExplorer("two-lock-inversion", workers=2,
                                  spool_dir=str(spool)).explore()
        assert result.exhausted
        assert (spool / "spec.json").exists()
        assert len(os.listdir(spool / "results")) >= 1
