"""Unit tests for the monitor (detection, archiving, starvation breaking)."""

from __future__ import annotations

import pytest

from repro.core.avoidance import AvoidanceEngine
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig, STRONG_IMMUNITY
from repro.core.errors import RestartRequired
from repro.core.history import History
from repro.core.monitor import MonitorCore
from repro.core.runtime_api import ThreadParker
from repro.core.signature import Signature


def stack(*labels):
    return CallStack.from_labels(list(labels))


S1 = stack("lock:4", "update:1", "main:0")
S2 = stack("lock:4", "update:2", "main:0")


def build(config=None, history=None, **monitor_kwargs):
    history = history if history is not None else History()
    config = config or DimmunixConfig.for_testing()
    engine = AvoidanceEngine(history, config)
    monitor = MonitorCore(engine, history, config, **monitor_kwargs)
    return engine, monitor, history


def drive_deadlock(engine):
    """Thread 1 holds lock 1 and waits for 2; thread 2 holds 2 and waits for 1."""
    engine.request(1, 1, S1)
    engine.acquired(1, 1, S1)
    engine.request(2, 2, S2)
    engine.acquired(2, 2, S2)
    engine.request(1, 2, S1)
    engine.request(2, 1, S2)


class TestDeadlockDetection:
    def test_deadlock_archived_once(self):
        engine, monitor, history = build()
        drive_deadlock(engine)
        new = monitor.process()
        assert len(new) == 1
        assert new[0].kind == "deadlock"
        assert len(history) == 1
        # Re-processing while the cycle persists must not duplicate it.
        assert monitor.process() == []
        assert len(history) == 1

    def test_signature_contains_hold_stacks(self):
        engine, monitor, history = build()
        drive_deadlock(engine)
        monitor.process()
        signature = history.signatures()[0]
        tops = sorted(frame.top().function for frame in signature.stacks)
        assert tops == ["lock", "lock"]
        assert signature.size == 2

    def test_deadlock_handler_invoked(self):
        calls = []
        engine, monitor, history = build(
            deadlock_handler=lambda sig, cycle: calls.append((sig, cycle)))
        drive_deadlock(engine)
        monitor.process()
        assert len(calls) == 1
        assert calls[0][0] in history

    def test_stats_updated(self):
        engine, monitor, _ = build()
        drive_deadlock(engine)
        monitor.process()
        assert engine.stats.deadlocks_detected == 1
        assert engine.stats.signatures_added == 1
        assert engine.stats.monitor_wakeups >= 1
        assert engine.stats.events_processed >= 6

    def test_no_false_deadlocks_for_clean_program(self):
        engine, monitor, history = build()
        engine.request(1, 1, S1)
        engine.acquired(1, 1, S1)
        engine.release(1, 1)
        engine.request(2, 1, S2)
        engine.acquired(2, 1, S2)
        engine.release(2, 1)
        monitor.process()
        assert len(history) == 0


class TestStarvationHandling:
    # Stacks used to manufacture an induced starvation: two signatures make
    # thread 1 yield because of thread 2's hold and vice versa, so neither
    # parked thread's cause can ever release — the paper's yield cycle.
    SA = stack("acquire:1", "producer:0")
    SB = stack("acquire:2", "consumer:0")
    SC = stack("acquire:3", "producer:0")
    SD = stack("acquire:4", "consumer:0")

    def _drive_starvation(self, engine, parker=None):
        """Two threads yielding on each other's holds (no real deadlock)."""
        engine.history.add(Signature([self.SC.suffix(2), self.SB.suffix(2)],
                                     matching_depth=2))
        engine.history.add(Signature([self.SD.suffix(2), self.SA.suffix(2)],
                                     matching_depth=2))
        engine.request(1, 1, self.SA)
        engine.acquired(1, 1, self.SA)
        engine.request(2, 2, self.SB)
        engine.acquired(2, 2, self.SB)
        # Thread 1 asks for lock 3: matches {SC, SB} via thread 2's hold.
        assert engine.request(1, 3, self.SC, parker=parker).is_yield
        # Thread 2 asks for lock 4: matches {SD, SA} via thread 1's hold.
        assert engine.request(2, 4, self.SD, parker=parker).is_yield

    def test_weak_immunity_breaks_starvation(self):
        woken = []

        class RecordingParker(ThreadParker):
            def prepare(self, thread_id):
                return lambda: woken.append(thread_id)

        engine, monitor, history = build()
        self._drive_starvation(engine, RecordingParker())
        new = monitor.process()
        kinds = [c.kind for c in new]
        assert "starvation" in kinds
        assert engine.stats.starvations_broken == 1
        assert len(woken) == 1  # the victim's armed park, and no other
        victim = woken[0]
        # The victim's next request is forced to GO.
        retry_lock = 3 if victim == 1 else 4
        retry_stack = self.SC if victim == 1 else self.SD
        assert engine.request(victim, retry_lock, retry_stack).is_go
        # The starvation signature was archived in the history.
        assert any(sig.kind == "starvation" for sig in history.signatures())

    def test_strong_immunity_requests_restart(self):
        config = DimmunixConfig.for_testing(immunity=STRONG_IMMUNITY)
        engine, monitor, _ = build(config=config)
        self._drive_starvation(engine)
        with pytest.raises(RestartRequired):
            monitor.process()
        assert engine.stats.restarts_requested == 1

    def test_strong_immunity_with_handler(self):
        restarts = []
        config = DimmunixConfig.for_testing(immunity=STRONG_IMMUNITY)
        engine, monitor, _ = build(config=config,
                                   restart_handler=lambda sig, cyc: restarts.append(sig))
        self._drive_starvation(engine)
        monitor.process()
        assert len(restarts) == 1
