"""Differential tests: lazy call-stack capture vs eager capture.

The lazy-capture hot path defers the deep stack walk behind the
signature index's top-frame filter; the deep walk happens only when a
request might park (filter hit), when a thread is about to block
(``note_blocked``), or when the monitor archives a deadlock.  These
tests prove the deferral is semantically invisible where it must be —
archived signatures and serialized histories are byte-identical between
the two capture modes on real-runtime deadlocks (and a third leg, in
which a seeded signature names every site the exploit acquires at, so
each capture is walked in place at the named site), and schedule-trace
replays in the simulator are unaffected — and they pin the one place the
modes are *allowed* to diverge: a hold whose acquiring frame returned
before any materialization archives a degraded one-frame stack, which
still matches (and immunizes) by the single-frame matching rule.
"""

from __future__ import annotations

import json
import threading

import pytest

from races.harness import preemption_pressure
from repro.core.callstack import CallStack, LazyCallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument.runtime import InstrumentationRuntime
from repro.sim import DimmunixBackend, ReplayPolicy, ScheduleTrace
from repro.sim.explore import SCENARIOS
from repro.workloads.exploits import exploit_by_name, run_exploit

FAST_CONFIG = dict(monitor_interval=0.02, yield_timeout=None,
                   auto_disable_abort_threshold=None)

#: Bracket-style exploits: every frame that can enter a signature is
#: still live on its thread's stack when the thread blocks, so the lazy
#: materialization at ``note_blocked`` reconstructs the exact eager walk.
BRACKET_EXPLOITS = ["mysql-37080", "jdbc-2147", "jdk-vector"]


def _run_detection_trial(name: str, lazy: bool, prepare=None):
    """One deterministic deadlock-detection trial; returns its history.

    ``prepare``, when given, is handed the Dimmunix instance before it starts.
    """
    history = History(path=None, autosave=False)
    config = DimmunixConfig(detection_only=True, lazy_capture=lazy,
                            **FAST_CONFIG)
    dimmunix = Dimmunix(config=config, history=history)
    if prepare is not None:
        prepare(dimmunix)
    dimmunix.start()
    runtime = InstrumentationRuntime(dimmunix)
    try:
        outcome = run_exploit(exploit_by_name(name), runtime)
    finally:
        dimmunix.stop()
    return outcome, history


def _immunity_cycle(name: str, lazy: bool):
    """Detection trial then immune trial sharing one history."""
    outcome, history = _run_detection_trial(name, lazy)
    config = DimmunixConfig(lazy_capture=lazy, **FAST_CONFIG)
    dimmunix = Dimmunix(config=config, history=history)
    dimmunix.start()
    runtime = InstrumentationRuntime(dimmunix)
    try:
        second = run_exploit(exploit_by_name(name), runtime)
    finally:
        dimmunix.stop()
    return outcome, second, history


def _serialized(history: History) -> str:
    """Canonical byte form of a history: volatile timestamps zeroed."""
    payload = history.to_dict()
    for record in payload["signatures"]:
        record["created_at"] = 0.0
    payload["signatures"].sort(key=lambda record: record["fingerprint"])
    return json.dumps(payload, sort_keys=True)


class TestRealRuntimeDifferential:
    @pytest.mark.parametrize("name", BRACKET_EXPLOITS)
    def test_archived_history_byte_identical(self, name):
        eager_outcome, eager_history = _run_detection_trial(name, lazy=False)
        lazy_outcome, lazy_history = _run_detection_trial(name, lazy=True)
        assert eager_outcome.deadlocked and lazy_outcome.deadlocked
        assert len(eager_history) >= 1
        assert _serialized(lazy_history) == _serialized(eager_history)

    @pytest.mark.parametrize("name", BRACKET_EXPLOITS)
    def test_named_site_captures_archive_the_same_bytes(self, name):
        # The third leg: a seeded signature names every call site the exploit
        # acquires at, so each capture is walked in place (no LazyCallStack).
        sites, worlds = set(), []

        def record_sites(dimmunix):
            request = dimmunix.engine.request

            def recording_request(thread_id, lock_id, stack, *rest):
                sites.add(stack.top())
                return request(thread_id, lock_id, stack, *rest)

            dimmunix.engine.request = recording_request

        _, eager_history = _run_detection_trial(name, lazy=False, prepare=record_sites)
        _, lazy_history = _run_detection_trial(name, lazy=True)
        seed = Signature([CallStack([site]) for site in sites])

        def name_every_site(dimmunix):
            dimmunix.history.add(seed)
            worlds.append(dimmunix)

        outcome, named_history = _run_detection_trial(name, lazy=True, prepare=name_every_site)
        stats = worlds[0].stats
        assert outcome.deadlocked
        assert stats.capture_materialized == stats.capture_deferred > 0
        named_history.remove(seed.fingerprint)
        assert _serialized(named_history) == _serialized(eager_history) == _serialized(lazy_history)

    @pytest.mark.parametrize("name", BRACKET_EXPLOITS)
    def test_signature_fingerprints_identical(self, name):
        _, eager_history = _run_detection_trial(name, lazy=False)
        _, lazy_history = _run_detection_trial(name, lazy=True)
        eager = sorted(sig.fingerprint for sig in eager_history)
        lazy = sorted(sig.fingerprint for sig in lazy_history)
        assert lazy == eager

    def test_immunity_equivalent_under_lazy_capture(self):
        # The full cycle: the signature a lazy run archives must immunize
        # exactly like the eager one (one representative bracket exploit;
        # the whole registry sweep lives in test_exploits.py).
        for lazy in (False, True):
            first, second, history = _immunity_cycle("mysql-37080", lazy)
            assert first.deadlocked
            assert not second.deadlocked
            assert second.completed
            assert second.yields >= 1

    def test_degraded_hold_stack_archives_single_frame_and_immunizes(self):
        # The allowed divergence, pinned: sqlite-1672's inner hold is
        # taken by a helper that returns while the hold persists, so a
        # lazy run can never materialize that hold stack faithfully at
        # archive time — it archives the one-frame fallback instead.
        # The single-frame matching rule keeps that signature effective.
        first, second, history = _immunity_cycle("sqlite-1672", lazy=True)
        assert first.deadlocked
        assert not second.deadlocked
        assert second.yields >= 1
        depths = sorted(len(sig_stack.frames)
                        for sig in history for sig_stack in sig.stacks)
        assert depths[0] == 1, "degraded hold should archive one frame"
        assert depths[-1] > 1, "the blocked waiter should archive deep"


class TestSimulatorDifferential:
    @pytest.mark.parametrize("scenario_name",
                             ["two-lock-inversion", "philosophers-3"])
    def test_replay_histories_identical(self, scenario_name):
        # The simulator runs on symbolic stacks (no capture site at all):
        # flipping lazy_capture must not perturb a deterministic replay's
        # archived history in any byte.
        import glob
        import os
        fixture_dir = os.path.join(os.path.dirname(__file__), "fixtures")
        matches = [path for path in glob.glob(
            os.path.join(fixture_dir, "*.trace.json"))
            if scenario_name in os.path.basename(path)]
        assert matches, f"no fixture for {scenario_name}"
        trace = ScheduleTrace.load(matches[0])
        scenario = SCENARIOS[trace.meta["scenario"]]
        serialized = []
        for lazy in (False, True):
            backend = DimmunixBackend(
                config=DimmunixConfig.for_testing(lazy_capture=lazy))
            scheduler = scenario(backend)
            scheduler.policy = ReplayPolicy(trace, strict=True)
            assert scheduler.run().deadlocked
            serialized.append(_serialized(backend.history))
        assert serialized[0] == serialized[1]


class TestMaterializationSeams:
    """Concurrent materialization — the free-threaded CI job runs these
    under ``PYTHON_GIL=0``, where the reader races are real races."""

    def test_concurrent_materialize_is_single_winner(self):
        ready = threading.Event()
        done = threading.Event()
        captured = {}

        def capturing_thread():
            def inner():
                captured["lazy"] = CallStack.capture_lazy(skip=0, limit=8)
                captured["eager"] = CallStack.capture_cached(skip=0, limit=8)
                ready.set()
                done.wait(10.0)
            inner()

        worker = threading.Thread(target=capturing_thread)
        worker.start()
        try:
            assert ready.wait(10.0)
            lazy = captured["lazy"]
            assert isinstance(lazy, LazyCallStack)
            results = []
            with preemption_pressure():
                racers = [threading.Thread(
                    target=lambda: results.append(lazy.materialize().frames))
                    for _ in range(8)]
                for racer in racers:
                    racer.start()
                for racer in racers:
                    racer.join(10.0)
            assert len(results) == 8
            assert all(frames == results[0] for frames in results)
            # The origin invocation is still parked on its thread, so the
            # cross-thread walk must reconstruct the eager capture's
            # parent chain exactly (the top frames sit on adjacent source
            # lines — the two capture calls — so only linenos differ).
            eager = captured["eager"]
            assert lazy.frames[1:] == eager.frames[1:]
            assert lazy.frames[0].function == eager.frames[0].function
            assert lazy.frames[0].filename == eager.frames[0].filename
        finally:
            done.set()
            worker.join(10.0)

    def test_discard_racing_materialize_never_corrupts(self):
        # discard_origin vs materialize: the survivor is either the full
        # deep walk or the documented one-frame fallback — never a torn
        # mix — and the identity hash never changes.
        for _ in range(50):
            holder = {}

            def site():
                holder["stack"] = CallStack.capture_lazy(skip=0, limit=8)

            site()
            stack = holder["stack"]
            before = hash(stack)
            with preemption_pressure():
                discarder = threading.Thread(target=stack.discard_origin)
                materializer = threading.Thread(target=stack.materialize)
                discarder.start()
                materializer.start()
                discarder.join(10.0)
                materializer.join(10.0)
            frames = stack.frames
            assert len(frames) >= 1
            assert frames[0] == stack.top()
            assert hash(stack) == before
