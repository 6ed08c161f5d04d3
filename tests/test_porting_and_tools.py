"""Tests for the histctl CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.core.callstack import CallStack, Frame
from repro.core.history import History
from repro.core.signature import Signature
from repro.tools.histctl import main as histctl


def make_signature():
    return Signature([
        CallStack([Frame("insert", "db.py", 10), Frame("handle", "srv.py", 40)]),
        CallStack([Frame("truncate", "db.py", 15), Frame("admin", "srv.py", 80)]),
    ], matching_depth=4)


class TestHistctl:
    @pytest.fixture
    def history_file(self, tmp_path):
        path = str(tmp_path / "app.history")
        history = History(path=path)
        history.add(make_signature())
        return path, history.signatures()[0].fingerprint

    def test_list(self, history_file, capsys):
        path, fingerprint = history_file
        assert histctl(["list", path]) == 0
        output = capsys.readouterr().out
        assert fingerprint in output

    def test_list_empty(self, tmp_path, capsys):
        path = str(tmp_path / "empty.history")
        History(path=path).save()
        assert histctl(["list", path]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show(self, history_file, capsys):
        path, fingerprint = history_file
        assert histctl(["show", path, fingerprint]) == 0
        assert "deadlock signature" in capsys.readouterr().out

    def test_show_unknown(self, history_file):
        path, _ = history_file
        assert histctl(["show", path, "ffff"]) == 1

    def test_disable_enable_cycle(self, history_file):
        path, fingerprint = history_file
        assert histctl(["disable", path, fingerprint]) == 0
        assert History(path=path).get(fingerprint).disabled
        assert histctl(["enable", path, fingerprint]) == 0
        assert not History(path=path).get(fingerprint).disabled

    def test_remove(self, history_file):
        path, fingerprint = history_file
        assert histctl(["remove", path, fingerprint]) == 0
        assert len(History(path=path)) == 0

    def test_file_edits_survive_a_live_program_saving_the_same_file(self, tmp_path):
        """A running program's history autosaves the file histctl edits: its
        next save joins the operator's stamped disable and removal."""
        path = str(tmp_path / "live.history")
        disabled, removed = make_signature(), Signature([
            CallStack([Frame("grab", "pool.py", 3)]),
            CallStack([Frame("drop", "pool.py", 9)])])
        live = History(path=path)
        live.add(disabled)
        live.add(removed)
        assert histctl(["disable", path, disabled.fingerprint]) == 0
        assert histctl(["remove", path, removed.fingerprint]) == 0
        learned = Signature([CallStack([Frame("late", "app.py", 1)]),
                             CallStack([Frame("later", "app.py", 2)])])
        live.add(learned)                        # autosaves over the edits
        fresh = History(path=path, autosave=False)
        assert {s.fingerprint: s.disabled for s in fresh.signatures()} == {
            disabled.fingerprint: True, learned.fingerprint: False}
        assert not live.get(disabled.fingerprint).enabled
        assert live.get(removed.fingerprint) is None

    @pytest.fixture
    def v2_file_with_unknown_kind(self, tmp_path):
        """A v2 history mixing a loadable shared-mode record with one of a
        kind this build does not know (written by a 'newer' release)."""
        known = Signature([
            CallStack([Frame("read", "cache.py", 21)]),
            CallStack([Frame("read", "cache.py", 22)]),
        ], matching_depth=2, modes=["shared", "shared"])
        payload = {
            "format_version": 2,
            "signatures": [
                known.to_dict(),
                {"kind": "resource-exhaustion",
                 "stacks": [["grab|pool.py|3"]],
                 "modes": ["exclusive"],
                 "matching_depth": 2,
                 "fingerprint": "feedfacecafebeef"},
            ],
        }
        path = str(tmp_path / "v2.history")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path, known.fingerprint

    def test_list_renders_unknown_kinds_gracefully(self, v2_file_with_unknown_kind,
                                                   capsys):
        path, known_fp = v2_file_with_unknown_kind
        assert histctl(["list", path]) == 0
        output = capsys.readouterr().out
        assert known_fp in output
        assert "resource-exhaustion" in output
        assert "unrecognized" in output

    def test_list_shows_shared_modes(self, v2_file_with_unknown_kind, capsys):
        path, known_fp = v2_file_with_unknown_kind
        assert histctl(["list", path]) == 0
        output = capsys.readouterr().out
        assert "2sh" in output  # the shared-mode column for the rwlock record

    def test_show_renders_raw_record(self, v2_file_with_unknown_kind, capsys):
        path, _ = v2_file_with_unknown_kind
        assert histctl(["show", path, "feedfacecafebeef"]) == 0
        output = capsys.readouterr().out
        assert "resource-exhaustion" in output
        assert "grab|pool.py|3" in output

    def test_mutating_command_refuses_partial_files(self, v2_file_with_unknown_kind,
                                                    capsys):
        """disable would drop the unknown record on save; it must refuse
        with a clean error, not a traceback."""
        path, known_fp = v2_file_with_unknown_kind
        assert histctl(["disable", path, known_fp]) == 1
        err = capsys.readouterr().err
        assert "histctl:" in err
        # The file is untouched: both records still present.
        with open(path, encoding="utf-8") as handle:
            assert len(json.load(handle)["signatures"]) == 2

    def test_export_and_merge(self, history_file, tmp_path):
        path, fingerprint = history_file
        export_path = str(tmp_path / "sigs.json")
        assert histctl(["export", path, export_path]) == 0
        with open(export_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["signatures"]) == 1

        other_path = str(tmp_path / "other.history")
        History(path=other_path).save()
        assert histctl(["merge", other_path, export_path]) == 0
        assert len(History(path=other_path)) == 1
        # Merging again adds nothing new.
        assert histctl(["merge", other_path, export_path]) == 0
        assert len(History(path=other_path)) == 1


def test_running_histctl_as_a_module_warns_nothing():
    """``python -m repro.tools.histctl``, the form the docstrings show: the
    package must not import the module before ``runpy`` runs it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "repro.tools.histctl", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stderr == "" and "pool-status" in run.stdout
