"""The avoidance engine: GO/YIELD decisions on every lock request.

This is the synchronous half of Dimmunix (Figure 1 in the paper).  Both
runtimes — the real-thread instrumentation and the deterministic
simulator — funnel every lock operation through the four entry points of
:class:`AvoidanceEngine`:

* :meth:`AvoidanceEngine.request`  — before blocking on a lock; decides GO or YIELD,
* :meth:`AvoidanceEngine.acquired` — after the lock has actually been obtained,
* :meth:`AvoidanceEngine.release`  — just before the lock is released,
* :meth:`AvoidanceEngine.cancel`   — when a trylock / timed lock gives up.

The engine keeps the avoidance cache current, emits events for the
asynchronous monitor, matches the current state against the signature
history (exact-cover search over the Allowed sets), and manages yield
causes, aborted yields and forced-GO overrides used to break starvation.

Concurrency design (the paper's section 5.6 fast path): engine state is
striped rather than guarded by one global mutex.  Per-thread yield and
forced-GO state lives in the thread's one slot, the cache's, which each
entry point fetches once; the :class:`~repro.core.cache.AvoidanceCache`
is lock-striped; and the signature history is consulted through a
read-mostly incremental :class:`~repro.core.sigindex.SignatureIndex`.  A
request whose call site no signature names — the common case — is decided
by one probe of the index's ``sites``, the capture's, whose verdict holds
for that filter object: no engine-wide lock, and no Allowed-set entry in
the cache, which is handed the same set.  Only requests that could
instantiate a signature serialize on a single match mutex, which keeps the
exact-cover search and the publication of the resulting yield state atomic
with respect to other potential matches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cache import AvoidanceCache, Binding
from .callstack import CallStack
from .config import DimmunixConfig
from .errors import AvoidanceError
from .events import (EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE,
                     EV_REQUEST, EV_YIELD, EventBus)
from .history import History
from .sigindex import SignatureIndex
from .signature import EXCLUSIVE, SHARED, Signature
from .stats import EngineStats
from ..util.clock import Clock, WallClock


class Decision(Enum):
    """Answer of the request method."""

    GO = "go"
    YIELD = "yield"


#: Engine modes used by the overhead-breakdown experiment (Figure 8).
MODE_FULL = "full"
MODE_INSTRUMENTATION_ONLY = "instrumentation_only"

_VALID_MODES = (MODE_FULL, MODE_INSTRUMENTATION_ONLY)


@dataclass(frozen=True)
class RequestOutcome:
    """Full description of a request decision (GO or YIELD)."""

    decision: Decision
    signature: Optional[Signature] = None
    causes: Tuple[Binding, ...] = ()

    @property
    def is_go(self) -> bool:
        return self.decision is Decision.GO

    @property
    def is_yield(self) -> bool:
        return self.decision is Decision.YIELD


#: The one GO outcome.  A plain GO carries no signature and no causes, so
#: every grant — the 99.99% production case — returns this frozen
#: singleton instead of allocating a fresh dataclass per acquisition.
GO_OUTCOME = RequestOutcome(Decision.GO)


@dataclass
class _YieldState:
    """Book-keeping about a thread currently parked by an avoidance decision."""

    signature: Signature
    lock_id: int
    stack: CallStack
    causes: Tuple[Binding, ...]
    since: float = 0.0


class AvoidanceEngine:
    """Makes GO/YIELD decisions and keeps the avoidance cache up to date."""

    def __init__(self, history: History, config: Optional[DimmunixConfig] = None,
                 event_queue: Optional[EventBus] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[EngineStats] = None,
                 calibrator=None,
                 mode: str = MODE_FULL):
        if mode not in _VALID_MODES:
            raise AvoidanceError(f"unknown engine mode {mode!r}")
        self.config = (config or DimmunixConfig()).validate()
        self.history = history
        self.cache = AvoidanceCache()
        #: The monitor-facing event channel: the per-thread ring-buffer
        #: bus (tests and benchmarks inject one to read it themselves).
        self.events = (event_queue if event_queue is not None
                       else EventBus(
                           ring_capacity=self.config.event_ring_size,
                           gap_timeout=self.config.event_gap_timeout))
        self.clock = clock or WallClock()
        self.stats = stats or EngineStats()
        self.calibrator = calibrator
        self.mode = mode
        self._external_names = set(self.config.external_synchronization)
        #: Section 5.6: the suffix-keyed signature index.  It maintains
        #: itself incrementally from history observer notifications and
        #: calibrator depth-listener callbacks, so the request path never
        #: scans the history for staleness and never triggers a rebuild.
        self.index = SignatureIndex(history)
        if calibrator is not None:
            calibrator.add_depth_listener(self.index.refresh)
        #: Serializes only the matching slow path: requests whose stack
        #: suffix hits at least one index bucket.
        self._match_mutex = threading.Lock()
        #: Fingerprint of the most recently avoided signature (section 5.7
        #: "disable the last avoided signature" semantics).
        self._last_avoided_fp: Optional[str] = None
        #: Lazily learned per-resource capacities (permits); resources not
        #: in the map are plain one-permit mutexes.
        self._capacities: Dict[int, int] = {}
        #: Resources that may legitimately have several concurrent holders
        #: (capacity above one, or any SHARED acquisition seen).  These
        #: are exempt from the reentrancy bypass and from the exact-cover
        #: "distinct locks" constraint: several bindings on one semaphore
        #: are distinct permits, not one lock counted twice.
        self._multiholder: Set[int] = set()

    def _learn_spec(self, lock_id: int, mode: str, capacity: int) -> None:
        """Record a multi-holder resource's permit semantics (lazily, from call sites)."""
        if capacity > 1:
            if self._capacities.get(lock_id, 1) < capacity:
                self._capacities[lock_id] = capacity
            self._multiholder.add(lock_id)
        if mode == SHARED:
            self._multiholder.add(lock_id)

    def capacity_of(self, lock_id: int) -> int:
        """The learned permit count of a resource (1 unless told otherwise)."""
        return self._capacities.get(lock_id, 1)

    def is_multiholder(self, lock_id: int) -> bool:
        """True for resources that may have several concurrent holders."""
        return lock_id in self._multiholder

    # ------------------------------------------------------------------ request --

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1) -> RequestOutcome:
        """Decide whether ``thread_id`` may block waiting for ``lock_id``.

        ``mode`` is the acquisition mode (exclusive permit vs shared
        reader) and ``capacity`` the resource's permit count; both default
        to plain mutex semantics.  Returns a :class:`RequestOutcome`; on
        YIELD the caller must park the thread and call :meth:`request`
        again once it is woken (or once the yield timeout expires, after
        calling :meth:`abort_yield`).
        """
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return GO_OUTCOME
        now = self.clock.now()
        self.stats.bump("requests")
        if capacity > 1 or mode == SHARED:
            self._learn_spec(lock_id, mode, capacity)
        cache = self.cache
        slot = cache.slots.get(thread_id)
        sites = self.index.sites
        if cache.sites is not sites:
            # The index republished its filter (a signature archived, installed
            # by the pool, removed, re-enabled).  The Allowed sets only feed the
            # cover search, which probes the sites a signature names, so the
            # cache keeps them there alone: told on a republication only (no
            # cache-line ping-pong), *before* the rebuild indexes what predates it.
            cache.sites = sites
            cache.rebuild_allowed()

        # Fast path: no signature has a stack whose depth-d suffix equals
        # this request's suffix, so no instance can involve this binding —
        # grant without any engine-wide synchronization, or index entry.
        if self._should_bypass(slot, lock_id, stack, sites):
            return self._grant(slot, thread_id, lock_id, stack, now, mode, capacity)
        candidates = self.index.candidates(stack)
        if not candidates:
            return self._grant(slot, thread_id, lock_id, stack, now, mode, capacity)

        # The request is entering the cover search and may park, so now —
        # and only now — publish the REQUEST edge.  On the granted fast
        # path the edge would be dissolved by the ALLOW that follows in
        # the same call (the RAG's ALLOW handler fully supersedes it), so
        # emitting it would only tax the ring and the monitor.
        self.events.emit(EV_REQUEST, thread_id, lock_id, stack, (), now,
                         mode, capacity)

        with self._match_mutex:
            while True:
                match = self._match_candidates(candidates, thread_id, lock_id, stack)
                if match is None:
                    return self._grant(slot, thread_id, lock_id, stack, now,
                                       mode, capacity)
                signature, instance = match
                causes = tuple(binding for binding in instance
                               if binding[0] != thread_id)
                cache.remove_allow(thread_id, slot)
                cache.set_yield_cause(thread_id, causes)
                if not all(self.cache.binding_live(tid, lid)
                           for tid, lid, _stack in causes):
                    # A concurrent release or cancel dissolved the instance
                    # between the cover search and the cause publication;
                    # re-match so the thread is not parked on a dead cause.
                    self.cache.clear_yield_cause(thread_id)
                    continue
                # The thread is about to park: its request stack and every
                # hold stack it contributes to the danger group must be
                # fully materialized *now*, in-thread, because signatures
                # archived from this episode will read them and — in the
                # asyncio runtime — the task's frames leave the OS
                # thread's stack the moment it suspends.  The request
                # stack is typically already deep (the cover search read
                # its frames); held stacks may still be deferred.
                stack.materialize()
                for held_stack in self.cache.held_stacks(thread_id):
                    held_stack.materialize()
                slot.yield_state = _YieldState(
                    signature=signature, lock_id=lock_id, stack=stack,
                    causes=causes, since=now)
                self._last_avoided_fp = signature.fingerprint
                signature.record_avoidance()
                self.stats.bump("yield_decisions")
                self.events.emit(EV_YIELD, thread_id, lock_id, stack, causes,
                                 now, mode, capacity)
                if self.calibrator is not None:
                    deeper = self._depths_matching(signature, thread_id, lock_id,
                                                   stack)
                    self.calibrator.on_avoidance(signature, thread_id, lock_id,
                                                 stack, causes, deeper)
                return RequestOutcome(Decision.YIELD, signature=signature,
                                      causes=causes)

    def _should_bypass(self, slot, lock_id: int, stack: CallStack,
                       sites: frozenset) -> bool:
        """Cases in which no history matching is performed."""
        if self.config.detection_only:
            return True
        if slot.forced_go:
            slot.forced_go = False
            self.stats.bump("forced_go")
            return True
        if lock_id in slot.holds and lock_id not in self._multiholder:
            # Reentrant re-acquisition of a plain mutex can never deadlock
            # on its own.  Multi-holder resources do NOT get this bypass:
            # taking a second semaphore permit, or upgrading a read hold
            # to a write hold, can absolutely complete a cycle.
            return True
        if stack.absent_from is sites:
            return True  # the capture probed this very object, and a frozenset never changes
        top = stack.top()
        if top not in sites:
            # The miss filter, the paper's 99.99% case: no signature names
            # this call site (none names any while the history is empty).
            return True
        # Foreign synchronization routine: ignore the avoidance decision
        # (section 5.7).
        return top is not None and top.function in self._external_names

    def _grant(self, slot, thread_id: int, lock_id: int, stack: CallStack,
               now: float, mode: str, capacity: int) -> RequestOutcome:
        self.cache.add_allow(thread_id, lock_id, stack, slot)
        if slot.yield_cause:
            self.cache.clear_yield_cause(thread_id)
        slot.yield_state = None
        # No go_decisions bump: every request ends in a grant or a YIELD,
        # so EngineStats derives go_decisions = requests - yield_decisions
        # and the hot path saves a sharded counter write.
        self.events.emit(EV_ALLOW, thread_id, lock_id, stack, (), now,
                         mode, capacity)
        return GO_OUTCOME

    # ------------------------------------------------------------- history match --

    def _match_candidates(self, candidates: Sequence[Signature], thread_id: int,
                          lock_id: int, stack: CallStack
                          ) -> Optional[Tuple[Signature, List[Binding]]]:
        """Find a signature whose instantiation includes the tentative request.

        ``candidates`` come from the incremental suffix index: only
        signatures having a stack whose depth-d suffix equals the request
        stack's suffix can possibly be covered by the tentative binding, so
        everything else was already discarded in O(1) (the paper's section
        5.6 fast path).
        """
        for signature in candidates:
            if signature.disabled:
                continue
            instance = self._find_instance(signature, thread_id, lock_id, stack,
                                           signature.matching_depth)
            if instance is not None:
                return signature, instance
        return None

    def _find_instance(self, signature: Signature, thread_id: int, lock_id: int,
                       stack: CallStack, depth: int) -> Optional[List[Binding]]:
        """Exact-cover search for an instantiation of ``signature``.

        The tentative binding (thread, lock, stack) must cover one of the
        signature's stacks; the remaining stacks must be covered by current
        bindings from the Allowed sets, all with distinct threads.  Locks
        must be distinct too — except multi-holder resources (semaphores,
        rwlocks), where several bindings on one resource are distinct
        permits of the same pool, exactly the shape of a permit-exhaustion
        cycle.

        Pruned by vacancy before anything is allocated: only the request
        can cover a stack at whose call site no binding stands, so two
        vacant positions rule the signature out and one is the only
        position the request may take.
        """
        stacks = signature.stacks
        vacant = self.cache.vacant
        forced = None
        for index, sig_stack in enumerate(stacks):
            if vacant(sig_stack):
                if forced is not None:
                    return None
                forced = index
        if forced is None:
            coverable = signature.matching_stacks(stack, depth)
        else:
            coverable = [forced] if stacks[forced].matches(stack, depth) else []
        used_locks = set() if lock_id in self._multiholder else {lock_id}
        for chosen in coverable:
            rest = self._cover(stacks[:chosen] + stacks[chosen + 1:], depth,
                               {thread_id}, used_locks)
            if rest is not None:
                return [(thread_id, lock_id, stack)] + rest
        return None

    def _cover(self, sig_stacks: Tuple[CallStack, ...], depth: int,
               used_threads: Set[int], used_locks: Set[int]) -> Optional[List[Binding]]:
        """Bindings standing at ``sig_stacks``, one each, in order; ``None`` if none do."""
        if not sig_stacks:
            return []
        for thread_id, lock_id, stack in self.cache.candidates_matching(
                sig_stacks[0], depth, used_threads, used_locks):
            next_locks = (used_locks if lock_id in self._multiholder
                          else used_locks | {lock_id})
            rest = self._cover(sig_stacks[1:], depth, used_threads | {thread_id},
                               next_locks)
            if rest is not None:
                return [(thread_id, lock_id, stack)] + rest
        return None

    def _depths_matching(self, signature: Signature, thread_id: int, lock_id: int,
                         stack: CallStack) -> List[int]:
        """All depths >= the current one at which the instance still exists.

        Used by the calibration speed-up of section 5.5: a false positive at
        depth k also counts as a false positive at every deeper depth that
        would have triggered the same avoidance.
        """
        depths = []
        for depth in range(signature.matching_depth, self.config.max_stack_depth + 1):
            if self._find_instance(signature, thread_id, lock_id, stack, depth) is not None:
                depths.append(depth)
        return depths

    # ------------------------------------------------------------------ blocking --

    def note_blocked(self, thread_id: int) -> None:
        """The thread is about to *natively* block waiting for its resource.

        Called by the lock wrappers after a failed non-blocking attempt,
        just before parking on the native primitive (or awaiting a permit
        future).  Materializes every lazily captured stack the thread
        could contribute to a deadlock signature — its request/allowed
        stack and all of its hold stacks — while the thread can still
        walk its own frames.  This is the contract that keeps lazy
        capture byte-identical to eager capture in every archive: *no
        stack belonging to a blocked thread is ever lazy.*  A blocked
        real thread's frames do stay live (the monitor could walk them
        cross-thread), but a blocked asyncio task's frames leave the OS
        thread's stack on suspension — materializing here, in-thread,
        closes that gap for all runtimes uniformly.

        Cheap when nothing is deferred (a handful of no-op calls), and
        never on the uncontended fast path, which doesn't block at all.
        """
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return
        waiting = self.cache.waiting_of(thread_id)
        if waiting is not None:
            waiting[1].materialize()
        for held_stack in self.cache.held_stacks(thread_id):
            held_stack.materialize()

    # --------------------------------------------------------------------- acquired --

    def acquired(self, thread_id: int, lock_id: int,
                 stack: Optional[CallStack] = None, mode: str = EXCLUSIVE,
                 capacity: int = 1) -> None:
        """Record that the thread actually obtained the lock."""
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return
        now = self.clock.now()
        if capacity > 1 or mode == SHARED:
            self._learn_spec(lock_id, mode, capacity)
        slot = self.cache.slots.get(thread_id)
        if stack is None:
            waiting = slot.waiting
            stack = waiting[1] if waiting is not None else CallStack(())
        # Episodes open only after a YIELD; without one nothing is reported.
        calibrator = self.calibrator
        watching = calibrator is not None and calibrator.watching()
        held_before = tuple(slot.holds) if watching else ()
        self.cache.add_hold(thread_id, lock_id, stack, mode, capacity, slot)
        slot.yield_state = None
        self.stats.bump("acquisitions")
        self.events.emit(EV_ACQUIRED, thread_id, lock_id, stack, (), now,
                         mode, capacity)
        if watching:
            calibrator.on_lock_acquired(thread_id, lock_id, held_before, stack)

    # ---------------------------------------------------------------------- release --

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        """Record a release; returns the ids of threads that should be woken."""
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return []
        now = self.clock.now()
        fully, stack = self.cache.release_hold(thread_id, lock_id)
        self.stats.bump("releases")
        self.events.emit(EV_RELEASE, thread_id, lock_id, stack, (), now)
        calibrator = self.calibrator
        if calibrator is not None and calibrator.watching():
            calibrator.on_lock_released(thread_id, lock_id)
        if not fully and lock_id not in self._multiholder:
            # A reentrant partial release of a mutex frees nothing.  A
            # multi-holder resource, however, frees a permit on *every*
            # release, so its wake scan runs regardless.
            stack.discard_origin()
            return []
        woken = self.cache.threads_to_wake(thread_id, lock_id, stack)
        # The hold is gone; this stack can no longer enter a signature
        # (archives only read stacks of *current* holds and waits), so stop
        # pinning the interpreter frame it was captured from.  A late
        # materialization — e.g. the monitor decoding old ring records —
        # falls back to the one-frame stack, which is benign by the
        # matching contract.
        stack.discard_origin()
        return woken

    # ----------------------------------------------------------------------- cancel --

    def cancel(self, thread_id: int, lock_id: int) -> None:
        """Roll back a previously allowed request (trylock / timed lock)."""
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return
        now = self.clock.now()
        slot = self.cache.slots.get(thread_id)
        previous = self.cache.remove_allow(thread_id, slot)
        if slot.yield_cause:
            self.cache.clear_yield_cause(thread_id)
        slot.yield_state = None
        self.stats.bump("cancels")
        self.events.emit(EV_CANCEL, thread_id, lock_id, timestamp=now)
        if previous is not None:
            # The allow edge is gone; the request stack can no longer be
            # drafted into a signature, so release its captured frame.
            previous[1].discard_origin()

    # ---------------------------------------------------------- yield management --

    def abort_yield(self, thread_id: int) -> Optional[Signature]:
        """Give up on the current yield of ``thread_id`` (timeout expired).

        Records the abort against the signature, optionally auto-disables it
        (section 5.7), arranges for the thread's next request to be answered
        with GO, and returns the signature involved.
        """
        slot = self.cache.slots.get(thread_id)
        state = slot.yield_state
        slot.yield_state = None
        self.cache.clear_yield_cause(thread_id)
        slot.forced_go = True
        self.stats.bump("aborted_yields")
        if state is None:
            return None
        signature = state.signature
        aborts = signature.record_abort()
        threshold = self.config.auto_disable_abort_threshold
        if threshold is not None and aborts >= threshold and not signature.disabled:
            self.history.disable(signature.fingerprint)
        return signature

    def force_go(self, thread_id: int) -> None:
        """Force the thread's next request to be granted (starvation breaking)."""
        slot = self.cache.slots.get(thread_id)
        slot.yield_state = None
        self.cache.clear_yield_cause(thread_id)
        slot.forced_go = True

    def yielding_threads(self) -> List[int]:
        """Threads currently parked by an avoidance decision."""
        return [tid for tid, slot in self.cache.slots.items()
                if slot.yield_state is not None]

    def last_avoided_signature(self) -> Optional[Signature]:
        """The signature involved in the most recent yield, if any.

        Supports the "disable the last avoided signature" user interaction
        described in section 5.7.  Prefers a currently parked thread's
        signature; otherwise falls back to the explicitly tracked
        fingerprint of the most *recently* avoided signature (not the most
        *often* avoided one).
        """
        latest: Optional[_YieldState] = None
        for _thread_id, slot in self.cache.slots.items():
            state = slot.yield_state
            if state is not None and (latest is None or state.since > latest.since):
                latest = state
        if latest is not None:
            return latest.signature
        if self._last_avoided_fp is not None:
            return self.history.get(self._last_avoided_fp)
        return None

    # ---------------------------------------------------------------- maintenance --

    def forget_thread(self, thread_id: int) -> None:
        """Drop all engine state about a terminated thread."""
        self.cache.forget_thread(thread_id)

    def reset(self) -> None:
        """Clear all runtime state (cache, yields, queue) but keep the history."""
        self.cache.clear()
        self.events.clear()
