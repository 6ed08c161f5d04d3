"""End-to-end cross-deployment immunity with real OS processes.

Runs the ``examples/share_demo.py`` orchestration in miniature: worker A (a
real subprocess) deadlocks once, the pool learns the signature, and a
fresh worker process is immune on its *first* run.  The full ≥4-worker
fan-out over both transports runs in CI's ``history-sharing-smoke`` job;
here one orchestrated story per transport keeps tier-1 honest without
making it slow.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest


def _src_path() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _ensure_children_find_repro(monkeypatch):
    """Worker subprocesses import repro through PYTHONPATH."""
    existing = os.environ.get("PYTHONPATH", "")
    src = _src_path()
    if src not in existing.split(os.pathsep):
        monkeypatch.setenv(
            "PYTHONPATH", src + (os.pathsep + existing if existing else ""))


class TestMultiProcessImmunity:
    def test_file_transport_story(self, tmp_path, share_demo):
        summary = share_demo.run_demo("file", workers=3, workdir=str(tmp_path),
                                      verbose=False)
        results = {r["worker"]: r for r in summary["results"]}
        assert results["A"]["deadlocked"]
        assert not results["B"]["deadlocked"]
        assert not results["C"]["deadlocked"]
        assert results["B"]["signatures"] >= 1
        assert results["C"]["signatures"] >= 1

    def test_daemon_transport_story(self, tmp_path, share_demo):
        if not os.path.exists("/tmp") or os.name == "nt":
            pytest.skip("needs unix sockets")
        summary = share_demo.run_demo("unix", workers=3, workdir=str(tmp_path),
                                      verbose=False)
        results = {r["worker"]: r for r in summary["results"]}
        assert [w for w, r in results.items() if r["deadlocked"]] == ["A"]
        for name in ("B", "C"):
            assert results[name]["completed"] == 2
            assert results[name]["synced_before_run"]

    def test_worker_cli_json_contract(self, tmp_path, share_demo):
        """The worker subcommand prints exactly one JSON object."""
        share = "file://" + str(tmp_path / "pool.sig")
        process = subprocess.run(
            [sys.executable, share_demo.SCRIPT, "worker",
             "--share", share, "--id", "solo"],
            capture_output=True, text=True, timeout=60)
        assert process.returncode == 0, process.stderr
        result = json.loads(process.stdout.strip().splitlines()[-1])
        assert result["worker"] == "solo"
        assert result["deadlocked"]                # nobody immunized it
        assert result["signatures"] >= 1           # and it published

    def test_in_process_worker_pools_through_file(self, tmp_path, share_demo):
        """run_worker is importable and pools through a plain path spec."""
        share = str(tmp_path / "pool.sig")         # bare path == file://
        first = share_demo.run_worker(share, "first")
        assert first["deadlocked"]
        second = share_demo.run_worker(share, "second", expect_immunity=True)
        assert not second["deadlocked"]
        assert second["synced_before_run"]
        assert second["yields"] >= 1

    def test_fleet_gossip_story_in_miniature(self, tmp_path, share_demo):
        """The multi-host fabric, shrunk to tier-1 size: 4 workers across
        2 simulated hosts on a gossip mesh, plus the live-disable
        sentinel finale.  CI's ``fleet-convergence`` job runs the full
        50x3 version of this."""
        timeline = str(tmp_path / "timeline.json")
        summary = share_demo.run_fleet(workers=4, hosts=2,
                                       timeline_path=timeline, batch_size=4,
                                       verbose=False)
        results = {r["worker"]: r for r in summary["results"]}
        deadlocked = [w for w, r in results.items() if r["deadlocked"]]
        assert deadlocked == ["A"]
        assert summary["hosts"] == 2
        assert summary["sentinel"]["disabled_live"]
        with open(timeline, encoding="utf-8") as handle:
            events = json.load(handle)["events"]
        names = [e["event"] for e in events]
        assert "host_converged" in names
        assert "sentinel_disabled_live" in names
