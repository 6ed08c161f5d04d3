"""Matching-depth calibration (paper section 5.5).

A signature carries a matching depth: how long a suffix of each call stack
is compared against runtime stacks.  Too deep a suffix misses other
manifestations of the same bug (false negatives); too shallow a suffix
avoids executions that would not have deadlocked (false positives).

Dimmunix calibrates the depth at runtime, from the records the monitor
drains (:meth:`Calibrator.observe` sees each one before the RAG applies
it, so a thread's holds are read from the RAG):

1. Every avoidance (a YIELD record) opens a *retrospective episode* that
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
   depth at which the YIELD's own instance (its request and its causes)
   still instantiates the signature.  A depth moves through
   :meth:`History.set_depth`, which re-keys that signature in every index.
4. After ``NT`` further avoidances the signature is recalibrated (program
   conditions may have changed), and recalibration is also re-enabled
   after an upgrade (section 8) via :meth:`Calibrator.recalibrate_all`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import DimmunixConfig
from .events import EV_ACQUIRED, EV_RELEASE, EV_YIELD
from .history import History
from .rag import ResourceAllocationGraph
from .sigindex import SignatureIndex
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

    signature: Signature
    yielded_thread: int
    participants: Set[int]
    #: The signature's depth at the yield, then every deeper one the instance reaches.
    depths: Tuple[int, ...]
    ops: List[LockOp] = field(default_factory=list)
    yielded_thread_resumed: bool = False
    closed: bool = False


@dataclass
class _CalibrationState:
    """Per-signature calibration progress."""

    current_depth: int = 1
    avoidances_at_depth: Dict[int, int] = field(default_factory=dict)
    fps_at_depth: Dict[int, int] = field(default_factory=dict)
    completed: bool = False
    avoidances_since_completion: int = 0
    #: Episodes judged, and how many of them were false positives.
    judged: int = 0
    false_positives: int = 0


def _instantiates(stacks: Sequence, instance: Sequence, depth: int) -> bool:
    """Do the bindings of ``instance`` stand at ``stacks``, one each, at ``depth``?"""
    if not instance:
        return not stacks
    stack = instance[0][2]
    return any(sig_stack.matches(stack, depth)
               and _instantiates(stacks[:i] + stacks[i + 1:], instance[1:], depth)
               for i, sig_stack in enumerate(stacks))


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
    for a, b in itertools.combinations(nesting, 2):
        for held, acquired in nesting[a]:
            if (acquired, held) in nesting[b]:
                return held, acquired
    return None


class Calibrator:
    """Runs the FP heuristic over the monitor's records and moves depths through ``history``."""

    def __init__(self, history: History, index: SignatureIndex,
                 config: Optional[DimmunixConfig] = None,
                 stats: Optional[EngineStats] = None):
        self.history = history
        self.index = index
        self.config = config or DimmunixConfig()
        self.stats = stats or EngineStats()
        self._states: Dict[str, _CalibrationState] = {}
        self._episodes: List[Episode] = []
        self._mutex = threading.RLock()

    # -- the monitor's record stream ------------------------------------------------------

    def observe(self, record: Tuple, rag: ResourceAllocationGraph) -> None:
        """One drained record, just before ``rag`` applies it."""
        code, thread_id, lock_id, stack, causes = record[:5]
        with self._mutex:
            if code == EV_YIELD:
                self._on_yield(thread_id, lock_id, stack, causes)
            elif code == EV_ACQUIRED and self._episodes:
                op = LockOp(thread_id, lock_id, tuple(rag.thread(thread_id).holds))
                for episode in self._episodes:
                    if not episode.closed and thread_id in episode.participants:
                        episode.ops.append(op)
                        episode.yielded_thread_resumed |= thread_id == episode.yielded_thread
                        if len(episode.ops) >= self.config.fp_window:
                            self._close_episode(episode)
            elif code == EV_RELEASE and self._episodes:
                # The yielded thread resumed, acquired and released: its critical
                # section completed, and a danger (a lock inversion) showed or not.
                for episode in self._episodes:
                    if (not episode.closed and episode.yielded_thread_resumed
                            and thread_id == episode.yielded_thread):
                        self._close_episode(episode)
                self._episodes = [ep for ep in self._episodes if not ep.closed]

    def _on_yield(self, thread_id: int, lock_id: int, stack, causes: Sequence) -> None:
        """Open an episode on the signature the YIELD's instance instantiates.

        None does if calibration deepened its depth since: the yield is not counted.
        """
        instance = ((thread_id, lock_id, stack),) + tuple(causes)
        signature = next((sig for sig in self.index.candidates(stack)
                          if _instantiates(sig.stacks, instance, sig.matching_depth)), None)
        if signature is None:
            return
        state = self._state_of(signature)
        depths = tuple(depth for depth in range(signature.matching_depth,
                                                self.config.max_stack_depth + 1)
                       if _instantiates(signature.stacks, instance, depth))
        self._episodes.append(Episode(
            signature=signature, yielded_thread=thread_id,
            participants={thread_id} | {binding[0] for binding in causes}, depths=depths))
        if not state.completed:
            for depth in depths:
                state.avoidances_at_depth[depth] = state.avoidances_at_depth.get(depth, 0) + 1
        else:
            state.avoidances_since_completion += 1
            if state.avoidances_since_completion >= self.config.calibration_nt:
                self._restart_calibration(signature, state)

    # -- episode analysis ----------------------------------------------------------------

    def _close_episode(self, episode: Episode) -> None:
        episode.closed = True
        false_positive = find_lock_inversion(episode.ops) is None
        self.stats.bump("false_positives" if false_positive else "true_positives")
        state = self._state_of(episode.signature)
        state.judged += 1
        state.false_positives += false_positive
        if state.completed:
            return
        if false_positive:
            for depth in episode.depths:
                state.fps_at_depth[depth] = state.fps_at_depth.get(depth, 0) + 1
        self._advance_calibration(episode.signature, state)

    def _advance_calibration(self, signature: Signature, state: _CalibrationState) -> None:
        """Move to the next candidate depth / finish calibration if due."""
        current = state.current_depth
        if state.avoidances_at_depth.get(current, 0) < self.config.calibration_na:
            self.history.set_depth(signature.fingerprint, current)
            return
        if current < self.config.max_stack_depth:
            state.current_depth = current + 1
            self.history.set_depth(signature.fingerprint, state.current_depth)
            return
        # Every depth has been sampled: pick the smallest depth with the
        # lowest FP rate (the most general pattern among the best).
        rates = {depth: state.fps_at_depth.get(depth, 0) / avoided
                 for depth, avoided in state.avoidances_at_depth.items()}
        if rates:
            self.history.set_depth(signature.fingerprint,
                                   min(rates, key=lambda depth: (rates[depth], depth)))
        state.completed = True
        state.avoidances_since_completion = 0

    def _restart_calibration(self, signature: Signature, state: _CalibrationState) -> None:
        state.completed = False
        state.current_depth = 1
        state.avoidances_at_depth.clear()
        state.fps_at_depth.clear()
        state.avoidances_since_completion = 0
        self.history.set_depth(signature.fingerprint, 1)

    # -- public API ---------------------------------------------------------------------

    def _state_of(self, signature: Signature) -> _CalibrationState:
        """The signature's progress; first contact starts it at depth 1."""
        state = self._states.get(signature.fingerprint)
        if state is None:
            state = self._states[signature.fingerprint] = _CalibrationState()
            self.history.set_depth(signature.fingerprint, 1)
        return state

    def state_of(self, signature: Signature) -> Optional[Dict]:
        """The calibration progress of a signature (``None`` before its first yield)."""
        with self._mutex:
            state = self._states.get(signature.fingerprint)
            return None if state is None else asdict(state)

    def recalibrate_all(self, signatures: Sequence[Signature]) -> None:
        """Restart calibration for every signature (e.g. after an upgrade).

        Section 8: after an upgrade the deadlock behaviours may have
        changed, so calibration is re-enabled for all signatures; any
        signature that subsequently shows a 100% FP rate can be discarded
        as obsolete by the caller.
        """
        with self._mutex:
            for signature in signatures:
                self._restart_calibration(signature, self._state_of(signature))

    def false_positive_rate(self, signature: Signature) -> Optional[float]:
        """Overall FP rate observed for a signature, or ``None`` if unknown."""
        with self._mutex:
            state = self._states.get(signature.fingerprint)
            return state.false_positives / state.judged if state and state.judged else None

    def open_episodes(self) -> int:
        """Number of episodes still collecting lock operations."""
        with self._mutex:
            return sum(1 for episode in self._episodes if not episode.closed)
