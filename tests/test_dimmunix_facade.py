"""Tests for the Dimmunix facade (lifecycle, wakers, signature management)."""

from __future__ import annotations

import os


from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.runtime_api import RuntimeCore, ThreadParker
from repro.core.signature import Signature
from repro.instrument.runtime import YieldManager


def stack(*labels):
    return CallStack.from_labels(list(labels))


S1 = stack("lock:4", "update:1", "main:0")
S2 = stack("lock:4", "update:2", "main:0")


def paper_signature():
    return Signature([stack("lock:4", "update:1"), stack("lock:4", "update:2")],
                     matching_depth=2)


class TestLifecycle:
    def test_start_stop_idempotent(self, config):
        dimmunix = Dimmunix(config=config)
        dimmunix.start()
        dimmunix.start()
        assert dimmunix.running
        dimmunix.stop()
        dimmunix.stop()
        assert not dimmunix.running

    def test_context_manager(self, config):
        with Dimmunix(config=config) as dimmunix:
            assert dimmunix.running
        assert not dimmunix.running

    def test_stop_saves_history(self, tmp_path):
        path = str(tmp_path / "h.json")
        config = DimmunixConfig(history_path=path, monitor_interval=0.02)
        dimmunix = Dimmunix(config=config)
        dimmunix.start()
        dimmunix.history.add(paper_signature())
        dimmunix.stop()
        assert os.path.exists(path)
        assert len(History(path=path)) == 1

    def test_process_now_detects_synchronously(self, dimmunix):
        dimmunix.request(1, 1, S1)
        dimmunix.acquired(1, 1, S1)
        dimmunix.request(2, 2, S2)
        dimmunix.acquired(2, 2, S2)
        dimmunix.request(1, 2, S1)
        dimmunix.request(2, 1, S2)
        found = dimmunix.process_now()
        assert len(found) == 1
        assert dimmunix.report()["deadlocks_seen"] == 1


class RecordingParker(ThreadParker):
    """Arms nothing; its waker records the id of the thread it wakes."""

    def __init__(self):
        self.woken = []

    def prepare(self, thread_id):
        return lambda: self.woken.append(thread_id)


class TestWakers:
    def test_release_wakes_yielded_thread(self, dimmunix):
        dimmunix.history.add(paper_signature())
        parker = RecordingParker()
        dimmunix.request(1, 2, S2)
        dimmunix.acquired(1, 2, S2)
        assert dimmunix.engine.request(2, 1, S1, parker=parker).is_yield
        assert parker.woken == []
        assert dimmunix.release(1, 2) == [2]
        assert parker.woken == [2]

    def test_a_stale_waker_only_wakes_spuriously(self, dimmunix):
        """The waker of an earlier yield may fire late: the park returns, the
        re-request yields again, and nothing is granted."""
        dimmunix.history.add(paper_signature())
        wakers = []

        class Recording(YieldManager):
            def prepare(self, thread_id):
                wakers.append(super().prepare(thread_id))
                return wakers[-1]

        core = RuntimeCore(dimmunix, parker=Recording())
        for attempt in range(2):
            assert core.request(1, 2, S2).is_go
            core.acquired(1, 2, S2)
            assert core.request(2, 1, S1).is_yield
            assert not core.park(2, 0)  # armed, not yet woken
            if attempt == 0:
                assert core.release(1, 2) == [2]
                assert core.park(2, 0)
                assert core.request(2, 1, S1).is_go
                core.acquired(2, 1, S1)
                core.release(2, 1)
        wakers[0]()  # the first yield's waker, long after its park ended
        assert core.park(2, 0)
        assert core.request(2, 1, S1).is_yield
        assert dimmunix.engine.cache.yielding_threads() == [2]


class TestSignatureManagement:
    def test_disable_last_signature(self, dimmunix):
        dimmunix.history.add(paper_signature())
        dimmunix.request(1, 2, S2)
        dimmunix.acquired(1, 2, S2)
        dimmunix.request(2, 1, S1)
        disabled = dimmunix.disable_last_signature()
        assert disabled is not None
        assert not dimmunix.history.get(disabled.fingerprint).enabled

    def test_disable_last_signature_without_avoidance(self, dimmunix):
        assert dimmunix.disable_last_signature() is None

    def test_export_import(self, dimmunix, tmp_path):
        dimmunix.history.add(paper_signature())
        path = str(tmp_path / "sigs.json")
        assert dimmunix.export_signatures(path) == 1
        other = Dimmunix(config=DimmunixConfig.for_testing())
        assert other.import_signatures(path) == 1
        assert len(other.history) == 1

    def test_reload_history(self, tmp_path):
        path = str(tmp_path / "h.json")
        config = DimmunixConfig(history_path=path, monitor_interval=0.02)
        dimmunix = Dimmunix(config=config)
        # Simulate a vendor patch: another process writes a signature.
        vendor = History(path=None, autosave=False)
        vendor.add(paper_signature())
        vendor.save(path)
        assert dimmunix.reload_history() == 1
        assert len(dimmunix.signatures()) == 1

    def test_report_shape(self, dimmunix):
        report = dimmunix.report()
        assert set(report) == {"stats", "history_size", "enabled_signatures",
                               "deadlocks_seen", "starvations_seen",
                               "history_bytes"}
