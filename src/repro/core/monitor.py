"""The monitor: asynchronous deadlock / starvation detection.

The monitor periodically drains the event queue filled by the avoidance
code, applies the events to the resource allocation graph, searches for
deadlock cycles and induced-starvation conditions, archives their
signatures into the persistent history, and — depending on the immunity
level — breaks starvation or requests a restart (paper sections 3, 5.2,
5.4).

The detection logic lives in :class:`MonitorCore`, which is runtime
agnostic and can be driven synchronously (the simulator calls
``process()`` directly); :class:`MonitorThread` wraps it in a background
``threading.Thread`` for the real-thread runtime.

With the striped avoidance engine the monitor is also the safety net for
the lock-free fast path: requests that cannot instantiate any signature
are granted without engine-wide synchronization, so in principle two
simultaneous requests could slip past avoidance into a *new* deadlock —
exactly the situation the paper designs for: the monitor detects the
cycle, archives its signature (which reaches the engine's incremental
index through the history's observer hooks), and the pattern is avoided
from then on.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Set, Tuple

from .avoidance import AvoidanceEngine
from .config import DimmunixConfig
from .cycles import (DetectedCycle, find_deadlock_cycles, find_starvation,
                     pick_starvation_victim)
from .errors import RestartRequired
from .history import History
from .rag import ResourceAllocationGraph
from .signature import Signature
from .stats import EngineStats

#: Type of the hook invoked right after a deadlock signature is saved.  The
#: paper suggests plugging application-specific recovery (e.g. Rx-style
#: checkpoint/rollback) into this hook.
DeadlockHandler = Callable[[Signature, DetectedCycle], None]
#: Hook invoked when strong immunity requires a restart.
RestartHandler = Callable[[Signature, DetectedCycle], None]
#: Hook used to wake threads parked by the runtime (starvation breaking).
WakeCallback = Callable[[List[int]], None]


class MonitorCore:
    """Runtime-agnostic detection engine."""

    def __init__(self, engine: AvoidanceEngine, history: History,
                 config: Optional[DimmunixConfig] = None,
                 stats: Optional[EngineStats] = None,
                 deadlock_handler: Optional[DeadlockHandler] = None,
                 restart_handler: Optional[RestartHandler] = None,
                 wake_callback: Optional[WakeCallback] = None):
        self.engine = engine
        self.history = history
        self.config = config or engine.config
        self.stats = stats or engine.stats
        self.rag = ResourceAllocationGraph()
        self.deadlock_handler = deadlock_handler
        self.restart_handler = restart_handler
        self.wake_callback = wake_callback
        self._mutex = threading.RLock()
        #: Callables run at the start of every :meth:`process` pass, before
        #: detection.  The history-sharing pool registers its pump here so
        #: remote signatures install on the monitor's cadence — one knob
        #: (``monitor_interval``) governs both detection latency and pool
        #: convergence, and simulator-driven tests get deterministic
        #: installs through ``process_now()``.  Hook failures are isolated:
        #: a broken share transport must not stop deadlock detection.
        self._process_hooks: List[Callable[[], None]] = []
        #: Canonical keys of conditions already reported, so a persisting
        #: cycle is not archived again on every wakeup.
        self._reported_deadlocks: Set[Tuple[int, ...]] = set()
        self._reported_starvations: Set[Tuple[int, ...]] = set()
        #: All cycles detected over the monitor's lifetime (for reports).
        self.detected: List[DetectedCycle] = []

    # -- process hooks (history sharing and other per-pass work) --------------------------

    def add_process_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at the start of every monitor pass."""
        self._process_hooks.append(hook)

    def remove_process_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a previously added process hook (no-op when absent).

        Equality, not identity: bound methods (the usual hook shape) are
        fresh objects on every attribute access, so ``is`` never matches.
        """
        self._process_hooks = [h for h in self._process_hooks if h != hook]

    # -- main entry point ----------------------------------------------------------------

    def process(self) -> List[DetectedCycle]:
        """Drain pending events, update the RAG, and handle new conditions.

        Returns the list of *new* deadlock / starvation conditions handled
        during this invocation.
        """
        for hook in list(self._process_hooks):
            try:
                hook()
            except Exception:
                pass
        with self._mutex:
            self.stats.bump("monitor_wakeups")
            # The bus hands over encoded records that the RAG consumes
            # field by field — no per-event decode.  _mutex also enforces
            # the bus's single-consumer contract: drain_raw must never run
            # concurrently with itself, and the RAG (not thread-safe) is
            # only ever touched under it.
            records = self.engine.events.drain_raw()
            if records:
                self.rag.apply_encoded(records)
                self.stats.bump("events_processed", len(records))
            new_conditions: List[DetectedCycle] = []

            roots = self.rag.dirty_threads or None
            deadlocks = find_deadlock_cycles(self.rag, sorted(roots) if roots else None)
            self.rag.clear_dirty()
            current_deadlock_keys = set()
            for cycle in deadlocks:
                key = tuple(sorted(cycle.threads))
                current_deadlock_keys.add(key)
                if key in self._reported_deadlocks:
                    continue
                self._reported_deadlocks.add(key)
                new_conditions.append(cycle)
                self._handle_deadlock(cycle)
            # Forget cycles that no longer exist so a later reoccurrence of
            # the same thread set is reported again.
            self._reported_deadlocks &= current_deadlock_keys | {
                key for key in self._reported_deadlocks if self._still_blocked(key)}

            starvations = find_starvation(self.rag)
            current_starvation_keys = set()
            for cycle in starvations:
                key = tuple(sorted(cycle.threads))
                current_starvation_keys.add(key)
                if key in self._reported_starvations:
                    continue
                self._reported_starvations.add(key)
                new_conditions.append(cycle)
                self._handle_starvation(cycle)
            self._reported_starvations &= current_starvation_keys

            self.detected.extend(new_conditions)
            return new_conditions

    def _still_blocked(self, key: Tuple[int, ...]) -> bool:
        """Are all threads of a previously reported deadlock still waiting?"""
        for thread_id in key:
            state = self.rag.thread(thread_id)
            if state.allow is None and state.request is None:
                return False
        return True

    # -- handlers ---------------------------------------------------------------------------

    def _handle_deadlock(self, cycle: DetectedCycle) -> None:
        self.stats.bump("deadlocks_detected")
        signature = self._archive(cycle)
        if self.deadlock_handler is not None:
            self.deadlock_handler(signature, cycle)

    def _handle_starvation(self, cycle: DetectedCycle) -> None:
        self.stats.bump("starvations_detected")
        signature = self._archive(cycle)
        if self.config.strong_immunity:
            self.stats.bump("restarts_requested")
            if self.restart_handler is not None:
                self.restart_handler(signature, cycle)
                return
            raise RestartRequired(signature_fingerprint=signature.fingerprint)
        # Weak immunity: break the starvation by releasing the starved
        # yielding thread that holds the most locks (section 3).
        victim = pick_starvation_victim(self.rag, cycle)
        if victim is None:
            victim = self._victim_from_engine(cycle)
        if victim is not None:
            self.engine.force_go(victim)
            self.stats.bump("starvations_broken")
            if self.wake_callback is not None:
                self.wake_callback([victim])

    def _victim_from_engine(self, cycle: DetectedCycle) -> Optional[int]:
        """Fallback victim choice using the engine cache (RAG may lag)."""
        best = None
        best_holds = -1
        for thread_id in self.engine.yielding_threads():
            if thread_id not in cycle.threads:
                continue
            holds = self.engine.cache.total_holds(thread_id)
            if holds > best_holds:
                best = thread_id
                best_holds = holds
        return best

    def _archive(self, cycle: DetectedCycle) -> Signature:
        signature = cycle.to_signature(self.config.matching_depth,
                                       created_at=self.engine.clock.now())
        if self.history.add(signature):
            self.stats.bump("signatures_added")
            return signature
        # A duplicate: reuse the stored signature so counters accumulate.
        stored = self.history.get(signature.fingerprint)
        return stored if stored is not None else signature

    # -- introspection -----------------------------------------------------------------------

    def deadlocks_seen(self) -> List[DetectedCycle]:
        """Deadlock conditions detected so far."""
        return [c for c in self.detected if c.kind == "deadlock"]

    def starvations_seen(self) -> List[DetectedCycle]:
        """Starvation conditions detected so far."""
        return [c for c in self.detected if c.kind == "starvation"]


class MonitorThread(threading.Thread):
    """Background thread running :meth:`MonitorCore.process` every ``tau`` seconds."""

    def __init__(self, core: MonitorCore, interval: Optional[float] = None,
                 name: str = "dimmunix-monitor"):
        super().__init__(name=name, daemon=True)
        self.core = core
        self.interval = interval if interval is not None else core.config.monitor_interval
        self._stop_event = threading.Event()
        self._restart_signal: Optional[RestartRequired] = None

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        while not self._stop_event.is_set():
            try:
                self.core.process()
            except RestartRequired as exc:
                # Strong immunity without a restart handler: remember the
                # request so the embedding application can observe it.
                self._restart_signal = exc
            self._stop_event.wait(self.interval)

    def stop(self, final_process: bool = True) -> None:
        """Stop the monitor; optionally run one final processing pass."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=5.0)
        if final_process:
            try:
                self.core.process()
            except RestartRequired as exc:
                self._restart_signal = exc

    @property
    def restart_signal(self) -> Optional[RestartRequired]:
        """The pending strong-immunity restart request, if any."""
        return self._restart_signal
