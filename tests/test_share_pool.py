"""Tests for the SignaturePool and its engine/runtime wiring.

Proves the tentpole properties without any worker processes:

* locally archived signatures publish to the channel the instant the
  history learns them,
* remote signatures install into the *live* engine on a monitor pass —
  the striped signature index picks them up and the very next request
  can yield on them (no restart),
* installs never echo back out of the pool,
* deterministic cross-"deployment" immunity through the memory hub, for
  engines and for two full runtimes in one process.
"""

from __future__ import annotations

import json

import pytest

from repro.core.avoidance import Decision
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.errors import MonitorError
from repro.core.history import History
from repro.core.signature import Signature
from repro.share import FileChannel, MemoryHub, SignaturePool, make_control
from repro.share.channel import HistoryChannel


def stack(*labels):
    return CallStack.from_labels(list(labels))


def make_signature(label: str, depth: int = 2) -> Signature:
    return Signature([stack(f"{label}:1", "update:1"),
                      stack(f"{label}:1", "update:2")],
                     matching_depth=depth)


class FailingChannel(HistoryChannel):
    """A channel whose transport always fails (dead daemon stand-in)."""

    def _send(self, records, controls):
        raise OSError("transport down")

    def _receive(self):
        raise OSError("transport down")

    def _snapshot(self, timeout):
        raise OSError("transport down")


class TestSignaturePool:
    def test_local_add_publishes_immediately(self):
        hub = MemoryHub()
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, hub.channel())
        history.add(make_signature("local"))
        assert len(hub) == 1
        assert pool.published == 1

    def test_pump_installs_remote_signatures(self):
        hub = MemoryHub()
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, hub.channel())
        hub.channel().send([make_signature("remote").to_dict()])
        assert pool.pump() == 1
        assert len(history) == 1
        assert pool.pump() == 0

    def test_installed_signatures_do_not_echo(self):
        hub = MemoryHub()
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, hub.channel())
        hub.channel().send([make_signature("remote").to_dict()])
        pool.pump()
        # The install triggered the history listener, but the pool must
        # not publish a remote signature back into the pool.
        assert pool.published == 0
        assert len(hub) == 1

    def test_sync_pushes_existing_history(self):
        hub = MemoryHub()
        history = History(path=None, autosave=False)
        history.add(make_signature("preexisting"))
        pool = SignaturePool(history, hub.channel())
        hub.channel().send([make_signature("remote").to_dict()])
        installed = pool.sync()
        assert installed == 1
        assert len(history) == 2
        assert len(hub) == 2

    def test_transport_failures_never_raise(self):
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, FailingChannel())
        history.add(make_signature("doomed"))       # publish swallowed
        assert pool.publish_errors == 1
        assert pool.pump() == 0                     # receive swallowed
        assert pool.sync() == 0                     # snapshot swallowed
        assert len(history) == 1                    # immunity still local

    def test_close_detaches_listener(self):
        hub = MemoryHub()
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, hub.channel())
        pool.close()
        assert pool.closed
        # The listener must actually be gone (bound-method equality, not
        # identity): repeated attach/detach cycles must not accumulate
        # dead listeners on a long-lived history.
        assert pool._publish_local not in history._listeners
        history.add(make_signature("after-close"))
        assert len(hub) == 0
        pool.close()  # idempotent

    def test_report(self):
        hub = MemoryHub()
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, hub.channel())
        history.add(make_signature("r")); pool.pump()
        report = pool.report()
        assert report["published"] == 1
        assert report["history_size"] == 1


class TestDimmunixWiring:
    def test_attach_via_constructor_and_monitor_pass(self):
        hub = MemoryHub()
        a = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        b = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        a.history.add(make_signature("cross"))
        assert len(b.history) == 0
        b.process_now()                      # the monitor pass pumps
        assert len(b.history) == 1
        assert b.report()["share"]["installed"] == 1

    def test_double_attach_raises(self):
        hub = MemoryHub()
        dim = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        with pytest.raises(MonitorError):
            dim.attach_share(hub.channel())
        dim.detach_share()
        dim.attach_share(hub.channel())      # fine after detach

    def test_attach_share_by_memory_spec(self):
        from repro.share import memory_hub, reset_memory_hubs
        reset_memory_hubs()
        a = Dimmunix(DimmunixConfig.for_testing(), share="memory://spec-test")
        b = Dimmunix(DimmunixConfig.for_testing(), share="memory://spec-test")
        a.history.add(make_signature("spec"))
        b.process_now()
        assert len(b.history) == 1
        assert len(memory_hub("spec-test")) == 1

    def test_runtime_core_passthrough(self):
        hub = MemoryHub()
        dim = Dimmunix(DimmunixConfig.for_testing())
        pool = dim.runtime_core.attach_share(hub.channel())
        assert dim.runtime_core.share_pool is pool
        assert dim.share_pool is pool

    def test_stop_flushes_and_closes_the_pool(self):
        hub = MemoryHub()
        dim = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        pool = dim.share_pool
        other = hub.channel()
        other.send([make_signature("late").to_dict()])
        dim.start()
        dim.stop()
        # stop() pumped one final time before closing the channel.
        assert len(dim.history) == 1
        assert pool.closed
        assert dim.share_pool is None

    def test_remote_signature_reaches_live_engine(self):
        """The headline property: a remote install makes the *running*
        engine yield on the next matching request — no restart."""
        hub = MemoryHub()
        dim = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        engine = dim.engine
        s1 = stack("lock:1", "update:1", "main:0")
        s2 = stack("lock:1", "update:2", "main:0")
        # Before the remote signature arrives: everything is GO.
        assert engine.request(1, 10, s1).decision is Decision.GO
        engine.acquired(1, 10, s1)
        # Another "process" learns the deadlock and publishes it.
        hub.channel().send([make_signature("lock", depth=2).to_dict()])
        dim.process_now()
        # The same pattern is now dangerous: thread 2 must yield.
        outcome = engine.request(2, 20, s2)
        assert outcome.decision is Decision.YIELD
        assert outcome.signature.fingerprint == \
            make_signature("lock", depth=2).fingerprint


class TestDeterministicCrossRuntimeImmunity:
    """Two full runtimes in one process, pooled through the memory hub.

    This is the sim-channel acceptance criterion: the cross-deployment
    immunity story runs deterministically — every install point is an
    explicit ``process_now()`` call, no sockets, files, or sleeps.
    """

    def test_run_twice_across_two_runtimes(self, share_demo):
        from repro.instrument.runtime import InstrumentationRuntime
        _deadlock_prone_program = share_demo._deadlock_prone_program

        hub = MemoryHub()
        # Deployment A: empty history, deadlocks once.
        dim_a = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        dim_a.start()
        outcome_a = _deadlock_prone_program(InstrumentationRuntime(dim_a))
        dim_a.stop()
        assert outcome_a["deadlocked"]
        assert len(dim_a.history) >= 1
        assert len(hub) >= 1

        # Deployment B: fresh runtime, never deadlocked, first run immune.
        dim_b = Dimmunix(DimmunixConfig.for_testing(), share=hub.channel())
        assert len(dim_b.history) >= 1        # installed on attach sync
        dim_b.start()
        outcome_b = _deadlock_prone_program(InstrumentationRuntime(dim_b))
        dim_b.stop()
        assert not outcome_b["deadlocked"]
        assert outcome_b["completed"] == 2
        assert dim_b.stats.snapshot()["yield_decisions"] >= 1


class ControlRejectingChannel(HistoryChannel):
    """Carries records but fails every control send."""

    def _send(self, records, controls):
        if controls:
            raise OSError("control plane down")

    def _receive(self):
        return [], []

    def _snapshot(self, timeout):
        return [], []


class TestPoolControlPlane:
    def make_wired_pair(self):
        """Two histories pooled through one hub (two 'workers')."""
        hub = MemoryHub()
        history_a = History(path=None, autosave=False)
        history_b = History(path=None, autosave=False)
        pool_a = SignaturePool(history_a, hub.channel(), origin="worker-a")
        pool_b = SignaturePool(history_b, hub.channel(), origin="worker-b")
        return hub, (history_a, pool_a), (history_b, pool_b)

    def test_local_disable_originates_a_control(self):
        hub, (history_a, pool_a), (history_b, pool_b) = self.make_wired_pair()
        signature = make_signature("shared")
        history_a.add(signature)
        pool_b.pump()
        history_a.disable(signature.fingerprint)
        assert pool_a.controls_published == 1
        # The other worker applies it on its next pump — live, no restart.
        pool_b.pump()
        assert pool_b.controls_applied == 1
        assert history_b.enabled_signatures() == []
        assert len(history_b) == 1

    def test_applied_controls_do_not_echo(self):
        hub, (history_a, pool_a), (history_b, pool_b) = self.make_wired_pair()
        signature = make_signature("echoes")
        history_a.add(signature)
        pool_b.pump()
        history_a.disable(signature.fingerprint)
        pool_b.pump()
        # pool_b disabled its local history, but must not re-originate
        # that as a fresh control record.
        assert pool_b.controls_published == 0
        # Nothing new after the first: one standing control, delivered once.
        assert hub._state.counts()["controls"] == 1
        assert len(hub.channel().receive()[1]) == 1

    def test_stale_controls_lose_last_writer_wins(self):
        hub, (history_a, pool_a), (history_b, pool_b) = self.make_wired_pair()
        signature = make_signature("lww")
        history_a.add(signature)
        pool_b.pump()
        history_b.disable(signature.fingerprint)     # clock 1 @ worker-b
        pool_a.pump()
        history_a.enable(signature.fingerprint)      # clock 2 @ worker-a
        pool_b.pump()
        assert [s.fingerprint for s in history_b.enabled_signatures()] == \
            [signature.fingerprint]
        # Replay the stale disable from a fresh endpoint: it must not win,
        # neither in the pool's state nor in the history.
        stale = make_control("disable", signature.fingerprint,
                             clock=1, origin="worker-b")
        applied = pool_b.controls_applied
        hub.channel().send(controls=[stale])
        pool_b.pump()
        assert pool_b.controls_applied == applied
        assert pool_b._state.controls[signature.fingerprint].action == "enable"
        assert history_b.enabled_signatures() != []

    def test_remove_control_blocks_late_arrivals(self):
        hub, (history_a, pool_a), (history_b, pool_b) = self.make_wired_pair()
        signature = make_signature("tombstone")
        history_a.add(signature)
        history_a.remove(signature.fingerprint)
        pool_b.pump()
        assert pool_b.controls_applied == 1
        # The record arrives *after* the remove (late, out of order):
        # the held control keeps it out of the history.
        hub.channel().send([make_signature("tombstone").to_dict()])
        pool_b.pump()
        assert len(history_b) == 0

    @pytest.mark.parametrize("clock", ["zzz", None])
    def test_poisoned_control_in_a_share_log_is_counted_not_raised(
            self, tmp_path, clock):
        """A control line nobody can read must not take ``sync`` down, nor
        the valid controls received in the same batch."""
        path = str(tmp_path / "pool.sig")
        writer = FileChannel(path)
        signature = make_signature("poisoned-log")
        writer.send([signature.to_dict()])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"control": {
                "action": "disable", "fingerprint": "ab",
                "clock": clock}}) + "\n")
        writer.send(controls=[make_control(
            "disable", signature.fingerprint, clock=1, origin="operator")])
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, FileChannel(path))
        assert pool.sync() == 1
        assert pool.pump() == 0
        assert pool.report()["rejected"] == 1
        assert pool.controls_applied == 1          # the later, valid one
        assert len(history) == 1 and history.enabled_signatures() == []
        # The same log through the front door a program uses.
        dim = Dimmunix(DimmunixConfig.for_testing(), share=path)
        assert dim.report()["share"]["rejected"] == 1
        assert dim.history.enabled_signatures() == []
        dim.stop()

    def test_control_failures_degrade_not_raise(self):
        history = History(path=None, autosave=False)
        pool = SignaturePool(history, ControlRejectingChannel())
        signature = make_signature("unlucky")
        history.add(signature)
        history.disable(signature.fingerprint)      # swallowed
        assert pool.control_errors == 1
        assert pool.controls_published == 0
        assert history.signatures()                 # local state intact

    def test_report_counters(self):
        hub, (history_a, pool_a), _ = self.make_wired_pair()
        signature = make_signature("counted")
        history_a.add(signature)
        history_a.disable(signature.fingerprint)
        report = pool_a.report()
        assert report["controls_published"] == 1
        assert report["controls_applied"] == 0
        assert report["control_errors"] == 0
        assert report["rejected"] == 0
