"""Matching-depth calibration (paper section 5.5).

A signature carries a matching depth: how long a suffix of each call stack
is compared against runtime stacks.  Too deep a suffix misses other
manifestations of the same bug (false negatives); too shallow a suffix
avoids executions that would not have deadlocked (false positives).

Dimmunix calibrates the depth at runtime:

1. After every avoidance (yield) it opens a *retrospective episode* that
   logs the subsequent lock operations of the threads involved, plus the
   operations of the yielded thread after it is released.
2. When the episode closes, the log is scanned for *lock inversions*
   (thread A acquired l2 while holding l1 and thread B acquired l1 while
   holding l2).  No inversion means the avoidance was likely a false
   positive.
3. Per-depth avoidance and FP counters are maintained: the depth starts at
   1 and is incremented every ``NA`` avoidances until the maximum depth is
   reached; then the smallest depth with the lowest FP rate is selected.
   As a speed-up, a FP observed at depth k is also charged to every deeper
   depth that would have performed the same avoidance.
4. After ``NT`` further avoidances the signature is recalibrated (program
   conditions may have changed), and recalibration is also re-enabled
   after an upgrade (section 8) via :meth:`Calibrator.recalibrate_all`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callstack import CallStack
from .config import DimmunixConfig
from .signature import Signature
from .stats import EngineStats


@dataclass
class LockOp:
    """One logged lock acquisition: who, what, and what was already held."""

    thread_id: int
    lock_id: int
    held_before: Tuple[int, ...]


@dataclass
class Episode:
    """A retrospective-analysis window opened after one avoidance."""

    episode_id: int
    signature: Signature
    yielded_thread: int
    participants: Set[int]
    depth: int
    deeper_depths: Tuple[int, ...]
    ops: List[LockOp] = field(default_factory=list)
    yielded_thread_resumed: bool = False
    closed: bool = False

    def involves(self, thread_id: int) -> bool:
        return thread_id in self.participants


@dataclass
class _CalibrationState:
    """Per-signature calibration progress."""

    current_depth: int = 1
    avoidances_at_depth: Dict[int, int] = field(default_factory=dict)
    fps_at_depth: Dict[int, int] = field(default_factory=dict)
    completed: bool = False
    avoidances_since_completion: int = 0


def find_lock_inversion(ops: Sequence[LockOp]) -> Optional[Tuple[int, int]]:
    """Return a pair of locks acquired in opposite nesting order, if any.

    An inversion exists when thread A acquires ``l2`` while holding ``l1``
    and a different thread B acquires ``l1`` while holding ``l2``.  Returns
    ``(l1, l2)`` or ``None``.
    """
    nesting: Dict[int, Set[Tuple[int, int]]] = {}
    for op in ops:
        pairs = nesting.setdefault(op.thread_id, set())
        for held in op.held_before:
            if held != op.lock_id:
                pairs.add((held, op.lock_id))
    threads = list(nesting)
    for a, b in itertools.combinations(threads, 2):
        for held, acquired in nesting[a]:
            if (acquired, held) in nesting[b]:
                return held, acquired
    return None


class Calibrator:
    """Runs the FP heuristic and adjusts per-signature matching depths."""

    def __init__(self, config: Optional[DimmunixConfig] = None,
                 stats: Optional[EngineStats] = None):
        self.config = config or DimmunixConfig()
        self.stats = stats or EngineStats()
        self._states: Dict[str, _CalibrationState] = {}
        self._episodes: List[Episode] = []
        self._episode_counter = itertools.count(1)
        self._mutex = threading.RLock()
        #: Verdict log: (fingerprint, depth, was_false_positive) per episode.
        self.verdicts: List[Tuple[str, int, bool]] = []
        #: Callbacks invoked with a signature after its matching depth was
        #: changed; the incremental signature index re-buckets through this.
        self._depth_listeners: List = []

    def add_depth_listener(self, listener) -> None:
        """Register ``listener(signature)``, called after depth changes."""
        self._depth_listeners.append(listener)

    def _set_depth(self, signature: Signature, depth: int) -> None:
        if signature.matching_depth == depth:
            return
        signature.matching_depth = depth
        for listener in list(self._depth_listeners):
            listener(signature)

    # -- engine hooks ------------------------------------------------------------------

    def watching(self) -> bool:
        """Is an episode open?  Only then does the engine report acquisitions and releases."""
        return bool(self._episodes)

    def on_avoidance(self, signature: Signature, thread_id: int, lock_id: int,
                     stack: CallStack, causes: Sequence, deeper_depths: Sequence[int]
                     ) -> Optional[int]:
        """Called by the engine whenever it answers YIELD."""
        if not self.config.calibration_enabled:
            return None
        with self._mutex:
            state = self._state_of(signature)
            participants = {thread_id} | {binding[0] for binding in causes}
            episode = Episode(
                episode_id=next(self._episode_counter),
                signature=signature,
                yielded_thread=thread_id,
                participants=participants,
                depth=signature.matching_depth,
                deeper_depths=tuple(deeper_depths),
            )
            self._episodes.append(episode)
            if not state.completed:
                state.avoidances_at_depth[episode.depth] = \
                    state.avoidances_at_depth.get(episode.depth, 0) + 1
                for depth in episode.deeper_depths:
                    if depth != episode.depth:
                        state.avoidances_at_depth[depth] = \
                            state.avoidances_at_depth.get(depth, 0) + 1
            else:
                state.avoidances_since_completion += 1
                if state.avoidances_since_completion >= self.config.calibration_nt:
                    self._restart_calibration(signature, state)
            return episode.episode_id

    def on_lock_acquired(self, thread_id: int, lock_id: int,
                         held_before: Tuple[int, ...], stack: CallStack) -> None:
        """Called by the engine after a successful acquisition, while :meth:`watching`."""
        with self._mutex:
            op = LockOp(thread_id=thread_id, lock_id=lock_id, held_before=held_before)
            for episode in self._episodes:
                if episode.closed or not episode.involves(thread_id):
                    continue
                episode.ops.append(op)
                if thread_id == episode.yielded_thread:
                    episode.yielded_thread_resumed = True
                if len(episode.ops) >= self.config.fp_window:
                    self._close_episode(episode)

    def on_lock_released(self, thread_id: int, lock_id: int) -> None:
        """Called by the engine after a release, while :meth:`watching`.

        An episode closes once the yielded thread has resumed, acquired and
        then released a lock — by then its critical section completed and
        we know whether a deadlock danger (lock inversion) materialized.
        """
        with self._mutex:
            for episode in self._episodes:
                if episode.closed:
                    continue
                if episode.yielded_thread_resumed and thread_id == episode.yielded_thread:
                    self._close_episode(episode)
            self._episodes = [ep for ep in self._episodes if not ep.closed]

    # -- episode analysis ----------------------------------------------------------------

    def _close_episode(self, episode: Episode) -> None:
        episode.closed = True
        inversion = find_lock_inversion(episode.ops)
        false_positive = inversion is None
        self.verdicts.append((episode.signature.fingerprint, episode.depth,
                              false_positive))
        if false_positive:
            self.stats.bump("false_positives")
        else:
            self.stats.bump("true_positives")
        state = self._state_of(episode.signature)
        if state.completed:
            return
        if false_positive:
            state.fps_at_depth[episode.depth] = \
                state.fps_at_depth.get(episode.depth, 0) + 1
            for depth in episode.deeper_depths:
                if depth != episode.depth:
                    state.fps_at_depth[depth] = state.fps_at_depth.get(depth, 0) + 1
        self._advance_calibration(episode.signature, state)

    def _advance_calibration(self, signature: Signature,
                             state: _CalibrationState) -> None:
        """Move to the next candidate depth / finish calibration if due."""
        na = self.config.calibration_na
        max_depth = self.config.max_stack_depth
        current = state.current_depth
        if state.avoidances_at_depth.get(current, 0) < na:
            self._set_depth(signature, current)
            return
        if current < max_depth:
            state.current_depth = current + 1
            self._set_depth(signature, state.current_depth)
            return
        # Every depth has been sampled: pick the smallest depth with the
        # lowest FP rate (the most general pattern among the best).
        best_depth = None
        best_rate = None
        for depth in range(1, max_depth + 1):
            avoidances = state.avoidances_at_depth.get(depth, 0)
            if avoidances == 0:
                continue
            rate = state.fps_at_depth.get(depth, 0) / avoidances
            if best_rate is None or rate < best_rate:
                best_rate = rate
                best_depth = depth
        if best_depth is not None:
            self._set_depth(signature, best_depth)
        state.completed = True
        state.avoidances_since_completion = 0

    def _restart_calibration(self, signature: Signature,
                             state: _CalibrationState) -> None:
        state.completed = False
        state.current_depth = 1
        state.avoidances_at_depth.clear()
        state.fps_at_depth.clear()
        state.avoidances_since_completion = 0
        self._set_depth(signature, 1)

    # -- public API ---------------------------------------------------------------------

    def _state_of(self, signature: Signature) -> _CalibrationState:
        state = self._states.get(signature.fingerprint)
        if state is None:
            state = _CalibrationState(current_depth=signature.matching_depth
                                      if not self.config.calibration_enabled else 1)
            if self.config.calibration_enabled:
                state.current_depth = 1
                self._set_depth(signature, 1)
            self._states[signature.fingerprint] = state
        return state

    def state_of(self, signature: Signature) -> Dict:
        """Introspection: the calibration progress of a signature."""
        with self._mutex:
            state = self._state_of(signature)
            return {
                "current_depth": state.current_depth,
                "completed": state.completed,
                "avoidances_at_depth": dict(state.avoidances_at_depth),
                "fps_at_depth": dict(state.fps_at_depth),
            }

    def recalibrate_all(self, signatures: Sequence[Signature]) -> None:
        """Restart calibration for every signature (e.g. after an upgrade).

        Section 8: after an upgrade the deadlock behaviours may have
        changed, so calibration is re-enabled for all signatures; any
        signature that subsequently shows a 100% FP rate can be discarded
        as obsolete by the caller.
        """
        with self._mutex:
            for signature in signatures:
                state = self._state_of(signature)
                self._restart_calibration(signature, state)

    def false_positive_rate(self, signature: Signature) -> Optional[float]:
        """Overall FP rate observed for a signature, or ``None`` if unknown."""
        with self._mutex:
            relevant = [fp for fp_sig, _depth, fp in self.verdicts
                        if fp_sig == signature.fingerprint]
            if not relevant:
                return None
            return sum(1 for fp in relevant if fp) / len(relevant)

    def open_episodes(self) -> int:
        """Number of episodes still collecting lock operations."""
        with self._mutex:
            return sum(1 for episode in self._episodes if not episode.closed)
