"""Unit tests for the persistent signature history."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.errors import HistoryFormatError
from repro.core.history import History
from repro.core.signature import Signature


def make_signature(suffix="a", depth=4):
    return Signature.from_stacks([[f"lock{suffix}:1", "update:2"],
                                  [f"lock{suffix}:3", "main:4"]],
                                 matching_depth=depth)


class TestInMemory:
    def test_add_and_lookup(self):
        history = History()
        signature = make_signature()
        assert history.add(signature)
        assert signature in history
        assert history.get(signature.fingerprint) is signature
        assert len(history) == 1

    def test_duplicate_add_bumps_occurrence(self):
        history = History()
        history.add(make_signature())
        assert not history.add(make_signature())
        assert len(history) == 1
        assert history.signatures()[0].occurrence_count == 2

    def test_disable_enable(self):
        history = History()
        signature = make_signature()
        history.add(signature)
        assert history.disable(signature.fingerprint)
        assert history.enabled_signatures() == []
        assert history.enable(signature.fingerprint)
        assert len(history.enabled_signatures()) == 1

    def test_disable_unknown_returns_false(self):
        assert not History().disable("nope")

    def test_remove(self):
        history = History()
        signature = make_signature()
        history.add(signature)
        assert history.remove(signature.fingerprint)
        assert len(history) == 0
        assert not history.remove(signature.fingerprint)

    def test_clear(self):
        history = History()
        history.add(make_signature("a"))
        history.add(make_signature("b"))
        history.clear()
        assert len(history) == 0

    def test_merge_counts_new_only(self):
        history = History()
        history.add(make_signature("a"))
        other = [make_signature("a"), make_signature("b")]
        assert history.merge(other) == 1
        assert len(history) == 2

    def test_listener_invoked_on_new_signature(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def on_signature_added(self, signature):
                self.seen.append(signature)

        history = History()
        observer = Observer()
        history.add_observer(observer)
        history.add(make_signature("a"))
        history.add(make_signature("a"))
        assert len(observer.seen) == 1

    def test_iteration(self):
        history = History()
        history.add(make_signature("a"))
        history.add(make_signature("b"))
        assert len(list(history)) == 2


class TestPersistence:
    def test_save_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "history.json")
        history = History(path=path)
        signature = make_signature(depth=6)
        signature.record_avoidance()
        history.add(signature)

        loaded = History(path=path)
        assert len(loaded) == 1
        restored = loaded.signatures()[0]
        assert restored == signature
        assert restored.matching_depth == 6
        assert restored.avoidance_count == 1

    def test_autosave_on_disable(self, tmp_path):
        path = str(tmp_path / "history.json")
        history = History(path=path)
        signature = make_signature()
        history.add(signature)
        history.disable(signature.fingerprint)
        loaded = History(path=path)
        assert loaded.signatures()[0].disabled

    def test_reload_picks_up_external_changes(self, tmp_path):
        path = str(tmp_path / "history.json")
        history = History(path=path)
        history.add(make_signature("a"))
        # Another process (the vendor's patch tool) adds a signature.
        other = History(path=None, autosave=False)
        other.add(make_signature("a"))
        other.add(make_signature("b"))
        other.save(path)
        assert history.reload() == 2

    def test_load_missing_file_is_noop(self, tmp_path):
        history = History(path=str(tmp_path / "absent.json"))
        assert len(history) == 0

    def test_load_garbage_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(HistoryFormatError):
            History(path=str(path))

    def test_load_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"something": []}))
        with pytest.raises(HistoryFormatError):
            History(path=str(path))

    def test_save_without_path_returns_none(self):
        assert History().save() is None

    def test_export_import(self, tmp_path):
        history = History()
        history.add(make_signature("a"))
        history.add(make_signature("b"))
        export_path = str(tmp_path / "signatures.json")
        assert history.export_signatures(export_path) == 2
        imported = History.import_signatures(export_path)
        assert len(imported) == 2

    def test_export_selected_fingerprints(self, tmp_path):
        history = History()
        sig_a = make_signature("a")
        history.add(sig_a)
        history.add(make_signature("b"))
        export_path = str(tmp_path / "one.json")
        assert history.export_signatures(export_path, [sig_a.fingerprint]) == 1

    def test_disk_footprint_positive(self):
        history = History()
        history.add(make_signature())
        assert history.disk_footprint() > 100

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "history.json")
        history = History(path=path)
        history.add(make_signature())
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.startswith(".dimmunix-history-")]
        assert leftovers == []
