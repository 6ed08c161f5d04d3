"""``benchmarks/paper.py``: one registry row per paper artefact, one CLI.

The real artefacts take minutes (CI's bench-smoke job runs them all);
here the registry is pinned by name, the payload and the failure path
are driven through stand-in rows, and one cheap real artefact runs end to
end in a subprocess.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "paper.py")


@pytest.fixture(scope="module")
def paper():
    spec = importlib.util.spec_from_file_location("paper", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_artefact_of_the_paper_has_one_row(paper):
    assert list(paper.ARTEFACTS) == [
        "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2",
        "resources", "ablation", "explore", "scaling"]


def test_the_payload_describes_itself(paper, monkeypatch, tmp_path):
    def check_pair(first, second):
        assert first[0]["threads"] < second[0]["threads"]

    monkeypatch.setattr(paper, "ARTEFACTS", {
        "demo": paper.Artefact(lambda: ([{"threads": 1}], [{"threads": 4}]),
                               ("Demo: one", "Demo: four"), check_pair)})
    output = tmp_path / "out.json"
    assert paper.main(["--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert set(payload) == {"python", "gil_enabled", "elapsed_seconds", "artefacts"}
    assert payload["gil_enabled"] is getattr(sys, "_is_gil_enabled", lambda: True)()
    assert payload["python"] == ".".join(map(str, sys.version_info[:3]))
    demo = payload["artefacts"]["demo"]
    assert set(demo) == {"elapsed_seconds", "check", "tables"}
    assert demo["check"] == "pass"
    assert demo["tables"] == {"Demo: one": [{"threads": 1}], "Demo: four": [{"threads": 4}]}


def test_a_failed_check_exits_1_and_is_named(paper, monkeypatch, tmp_path, capsys):
    def check_many(rows):
        assert len(rows) == 2, "one row short"

    monkeypatch.setattr(paper, "ARTEFACTS", {
        "fine": paper.Artefact(lambda: [{"x": 1}], ("Fine",), lambda rows: None),
        "short": paper.Artefact(lambda: [{"x": 1}], ("Short",), check_many)})
    output = tmp_path / "out.json"
    assert paper.main(["--output", str(output)]) == 1
    # (pytest rewrites this module's asserts, so their messages run on.)
    named = 'assert len(rows) == 2, "one row short": one row short'
    assert f"paper.py: FAILED short: {named}" in capsys.readouterr().err
    artefacts = json.loads(output.read_text())["artefacts"]
    assert artefacts["fine"]["check"] == "pass"
    assert artefacts["short"]["check"].startswith(f"fail: {named}")
    assert artefacts["short"]["tables"] == {"Short": [{"x": 1}]}


def test_unknown_names_are_refused(paper, tmp_path):
    with pytest.raises(SystemExit):
        paper.main(["fig10", "--output", str(tmp_path / "out.json")])
    assert not os.path.exists(tmp_path / "out.json")


def test_the_ablation_runs_end_to_end_in_under_a_second(tmp_path):
    output = tmp_path / "ablation.json"
    done = subprocess.run([sys.executable, SCRIPT, "ablation", "--output", str(output)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    payload = json.loads(output.read_text())
    assert list(payload["artefacts"]) == ["ablation"]
    assert payload["artefacts"]["ablation"]["check"] == "pass"
    # The run's own clock: interpreter start and imports add ~0.4 s more.
    # It reads ~0.5 s on a 2-core x86-64 Xeon (most of it the monitor's real
    # sleeps at tau = 0.01/0.05/0.1 s), so a runner twice as slow still passes.
    assert payload["elapsed_seconds"] < 1.0
