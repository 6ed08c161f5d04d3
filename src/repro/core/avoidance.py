"""The avoidance engine: GO/YIELD decisions on every lock request.

This is the synchronous half of Dimmunix (Figure 1 in the paper).  Both
runtimes — the real-thread instrumentation and the deterministic
simulator — funnel every lock operation through the four entry points of
:class:`AvoidanceEngine`:

* :meth:`AvoidanceEngine.request`  — before blocking on a lock; decides GO or YIELD,
* :meth:`AvoidanceEngine.acquired` — after the lock has actually been obtained,
* :meth:`AvoidanceEngine.release`  — just before the lock is released,
* :meth:`AvoidanceEngine.cancel`   — when a trylock / timed lock gives up.

A driver's first request hands the engine its non-blocking take as well:
where the engine grants and the take succeeds, that one call records the
hold too, so an uncontended acquisition is a single engine call.

The engine keeps the avoidance cache current, emits events for the
asynchronous monitor, matches the current state against the signature
history (exact-cover search over the Allowed sets), and manages yield
causes, aborted yields and forced-GO overrides used to break starvation.

Concurrency design (the paper's section 5.6 fast path): engine state is
striped rather than guarded by one global mutex.  A thread's standing
yield (one :class:`~repro.core.cache.Yield` record) and its forced-GO flag
live in the thread's one slot, the cache's, which each entry point fetches
once; the :class:`~repro.core.cache.AvoidanceCache` is lock-striped; and
the signature history is consulted through a read-mostly incremental
:class:`~repro.core.sigindex.SignatureIndex`.  A
request whose call site no signature names — the common case — is decided
by one probe of the index's ``sites``, the capture's, whose verdict holds
for that very object: no engine-wide lock, and no Allowed-set entry in
the cache, which is handed the same object.  Only requests that could
instantiate a signature serialize on a single match mutex, which keeps the
exact-cover search and the publication of the resulting yield state atomic
with respect to other potential matches.  There a candidate is searched
only if every call site it needs holds a binding, which each index group
asks of the cache's one site map, not once per candidate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .cache import AvoidanceCache, Binding, Yield
from .callstack import CallStack
from .config import DimmunixConfig
from .errors import AvoidanceError
from .events import (EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE,
                     EV_REQUEST, EV_YIELD, EventBus)
from .history import History
from .sigindex import Group, SignatureIndex
from .signature import EXCLUSIVE, SHARED, STARVATION, Signature
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
    #: A GO whose request also took the primitive and recorded the hold.
    taken: bool = False

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

#: The one GO that also took the primitive (a request given ``take``):
#: the acquisition is recorded and over, nothing is left to call.
TAKEN_OUTCOME = RequestOutcome(Decision.GO, taken=True)


class AvoidanceEngine:
    """Makes GO/YIELD decisions and keeps the avoidance cache up to date."""

    def __init__(self, history: History, config: Optional[DimmunixConfig] = None,
                 clock: Optional[Clock] = None,
                 stats: Optional[EngineStats] = None,
                 mode: str = MODE_FULL):
        if mode not in _VALID_MODES:
            raise AvoidanceError(f"unknown engine mode {mode!r}")
        self.config = (config or DimmunixConfig()).validate()
        self.history = history
        self.cache = AvoidanceCache()
        self.stats = stats if stats is not None else EngineStats(EventBus(
            ring_capacity=self.config.event_ring_size))
        #: The monitor-facing event queue, whose per-thread rings hold the
        #: counters ``stats`` reads.
        self.events = self.stats.bus
        self.clock = clock or WallClock()
        self.mode = mode
        self._external_names = set(self.config.external_synchronization)
        #: Section 5.6: the site-keyed signature index.  It maintains
        #: itself incrementally from history observer notifications, so the
        #: request path never scans the history and never triggers a
        #: rebuild; a depth change re-keys the one signature it moved.
        self.index = SignatureIndex(history)
        #: Serializes only the matching slow path: requests whose stack
        #: matches a stack of some signature.
        self._match_mutex = threading.Lock()
        #: Fingerprint of the most recently avoided signature (section 5.7
        #: "disable the last avoided signature" semantics).
        self._last_avoided_fp: Optional[str] = None
        #: Resources that may legitimately have several concurrent holders
        #: (capacity above one, or any SHARED acquisition seen).  These
        #: are exempt from the reentrancy bypass and from the exact-cover
        #: "distinct locks" constraint: several bindings on one semaphore
        #: are distinct permits, not one lock counted twice.
        self._multiholder: Set[int] = set()

    def _learn_spec(self, lock_id: int, mode: str, capacity: int) -> None:
        """Record a multi-holder resource (lazily, from call sites)."""
        if capacity > 1 or mode == SHARED:
            self._multiholder.add(lock_id)

    def is_multiholder(self, lock_id: int) -> bool:
        """True for resources that may have several concurrent holders."""
        return lock_id in self._multiholder

    # ------------------------------------------------------------------ request --

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1,
                take: Optional[Callable[[int, str], bool]] = None,
                parker=None) -> RequestOutcome:
        """Decide whether ``thread_id`` may block waiting for ``lock_id``.

        ``mode`` is the acquisition mode (exclusive permit vs shared
        reader) and ``capacity`` the resource's permit count; both default
        to plain mutex semantics.  Returns a :class:`RequestOutcome`; on
        YIELD the caller must park the thread and call :meth:`request`
        again once it is woken (or once the yield timeout expires, after
        calling :meth:`abort_yield`).

        ``take(thread_id, mode)``, if given, takes the primitive without
        blocking.  Where the request is granted and the take succeeds, the
        hold is recorded as :meth:`acquired` records it and
        :data:`TAKEN_OUTCOME` returned: the acquisition is over, in one call.
        Otherwise the GO leaves an allow edge for the caller's own take or
        wait, then :meth:`acquired` or :meth:`cancel`.  ``parker.prepare(thread_id)``
        arms the caller's parker and returns the waker of that park; it runs
        only before a YIELD is published, and the waker is published inside
        the yield's record, so :meth:`release` and :meth:`force_go` wake the
        park it armed.
        """
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return GO_OUTCOME
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

        if slot.forced_go:
            slot.forced_go = False
            self.stats.bump("forced_go")
            return self._grant(slot, thread_id, lock_id, stack, mode, capacity, take, False)
        # No history matching: the capture already asked this very filter and
        # no signature names the call site (the paper's 99.99% case), or
        # detection only, or the reentrant re-acquisition of a plain mutex,
        # which can never deadlock on its own.  Multi-holder resources get no
        # such bypass: a second semaphore permit, or a read hold upgraded to a
        # write hold, can absolutely complete a cycle.
        if (stack.absent_from is sites or self.config.detection_only
                or (lock_id in slot.holds and lock_id not in self._multiholder)):
            return self._grant(slot, thread_id, lock_id, stack, mode, capacity, take, False)
        groups = self.index.lookup(stack, sites)
        if not groups or stack.top().function in self._external_names:
            # No signature has a stack that this one matches (none has any
            # while the history is empty), so no instance can involve this
            # binding — grant without any engine-wide synchronization.  A
            # foreign synchronization routine's avoidance decision is
            # ignored (5.7).
            return self._grant(slot, thread_id, lock_id, stack, mode, capacity, take, False)

        # The request enters the cover search and may park, so it publishes
        # its REQUEST edge; on the unsearched grants above the edge would be
        # dissolved by the ALLOW that follows in the same call (the RAG's
        # ALLOW handler fully supersedes it), so emitting it would only tax
        # the queue and the monitor.  The mutex is held across the take and
        # the hold, which the next search then sees as it sees an allow edge.
        with self._match_mutex:
            while True:
                match = self._match_candidates(groups, thread_id, lock_id, stack)
                if match is None:
                    return self._grant(slot, thread_id, lock_id, stack, mode, capacity,
                                       take, True)
                signature, instance = match
                causes = tuple(binding for binding in instance
                               if binding[0] != thread_id)
                cache.remove_allow(thread_id, slot)
                now = self.clock.now()
                cache.begin_yield(thread_id, slot, Yield(
                    signature, lock_id, stack, causes, now,
                    parker.prepare(thread_id) if parker is not None else None))
                if slot.forced_go:
                    # The monitor forced a GO since the bypass check, and the
                    # arming may have cleared its wake: honour it here (the
                    # grant withdraws the record just published).
                    slot.forced_go = False
                    self.stats.bump("forced_go")
                    return self._grant(slot, thread_id, lock_id, stack, mode, capacity,
                                       take, True)
                if not all(cache.binding_live(tid, lid) for tid, lid, _stack in causes):
                    # A concurrent release or cancel dissolved the instance
                    # between the cover search and the publication;
                    # re-match so the thread is not parked on a dead cause.
                    cache.end_yield(thread_id, slot)
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
                for held_stack in cache.held_stacks(thread_id):
                    held_stack.materialize()
                self._last_avoided_fp = signature.fingerprint
                signature.record_avoidance()
                emit = self.events.emit
                emit(EV_REQUEST, thread_id, lock_id, stack, (), now, mode, capacity)
                emit(EV_YIELD, thread_id, lock_id, stack, causes, now, mode, capacity)
                return RequestOutcome(Decision.YIELD, signature=signature,
                                      causes=causes)

    def _grant(self, slot, thread_id: int, lock_id: int, stack: CallStack, mode: str,
               capacity: int, take, searched: bool) -> RequestOutcome:
        """GO: the hold if ``take`` took the primitive, else an allow edge; then the records.

        A searched request's REQUEST leads them, and all share one timestamp,
        read after the take.
        """
        cache = self.cache
        if slot.yielding is not None:  # only this thread begins its yields
            cache.end_yield(thread_id, slot)
        if take is not None and take(thread_id, mode):
            if slot.waiting is not None:
                cache.remove_allow(thread_id, slot)  # as a new allow edge retires it
            cache.add_hold(thread_id, lock_id, stack, mode, capacity, slot)
            outcome = TAKEN_OUTCOME
        else:
            cache.add_allow(thread_id, lock_id, stack, slot)
            outcome = GO_OUTCOME
        now = self.clock.now()
        emit = self.events.emit
        if searched:
            emit(EV_REQUEST, thread_id, lock_id, stack, (), now, mode, capacity)
        emit(EV_ALLOW, thread_id, lock_id, stack, (), now, mode, capacity)
        if outcome is TAKEN_OUTCOME:
            emit(EV_ACQUIRED, thread_id, lock_id, stack, (), now, mode, capacity)
        return outcome

    # ------------------------------------------------------------- history match --

    def _match_candidates(self, groups: Sequence[Group], thread_id: int,
                          lock_id: int, stack: CallStack
                          ) -> Optional[Tuple[Signature, List[Binding]]]:
        """Find a signature whose instantiation includes the tentative request.

        ``groups`` hold the signatures with a stack the request matches
        (:meth:`SignatureIndex.lookup`): only those can be covered by the
        tentative binding, so everything else was already discarded
        lock-free (the paper's section 5.6 fast path).  Only those whose
        needed call sites are all occupied (:meth:`Group.admitted`) reach
        the exact-cover search, in the index's order.  All groups share
        the request's site: a signature in two is admitted by both or neither.
        """
        occupied = self.cache.allowed
        if len(groups) == 1:
            candidates = groups[0].admitted(occupied)
        else:
            candidates = {id(signature): signature for group in groups
                          for signature in group.admitted(occupied)}.values()
        for signature in candidates:
            if signature.disabled or len(signature.stacks) < 2:
                continue  # one stack is its own whole instance: nothing could wake it
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
        cycle, and in a starvation signature, where a blocked thread's
        allowed request and the hold it waits for are on one lock by
        construction (with distinct locks such a signature never fires, and
        the starvation it was archived for recurs).
        """
        stacks = signature.stacks
        distinct = signature.kind != STARVATION
        used_locks = {lock_id} if distinct and lock_id not in self._multiholder else set()
        for chosen in signature.matching_stacks(stack, depth):
            rest = self._cover(stacks[:chosen] + stacks[chosen + 1:], depth,
                               {thread_id}, used_locks, distinct)
            if rest is not None:
                return [(thread_id, lock_id, stack)] + rest
        return None

    def _cover(self, sig_stacks: Tuple[CallStack, ...], depth: int,
               used_threads: Set[int], used_locks: Set[int],
               distinct: bool) -> Optional[List[Binding]]:
        """Bindings standing at ``sig_stacks``, one each, in order; ``None`` if none do."""
        if not sig_stacks:
            return []
        for thread_id, lock_id, stack in self.cache.candidates_matching(
                sig_stacks[0], depth, used_threads, used_locks):
            next_locks = (used_locks | {lock_id}
                          if distinct and lock_id not in self._multiholder else used_locks)
            rest = self._cover(sig_stacks[1:], depth, used_threads | {thread_id},
                               next_locks, distinct)
            if rest is not None:
                return [(thread_id, lock_id, stack)] + rest
        return None

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
        self.cache.add_hold(thread_id, lock_id, stack, mode, capacity, slot)
        if slot.yielding is not None:
            self.cache.end_yield(thread_id, slot)
        self.events.emit(EV_ACQUIRED, thread_id, lock_id, stack, (), now,
                         mode, capacity)

    # ---------------------------------------------------------------------- release --

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        """Record a release and wake the threads whose yield cause it dissolves.

        Each is woken through the waker its parker returned when the engine
        armed its yield; their ids are returned for the caller's bookkeeping.
        """
        if self.mode == MODE_INSTRUMENTATION_ONLY:
            return []
        now = self.clock.now()
        fully, stack = self.cache.release_hold(thread_id, lock_id)
        self.events.emit(EV_RELEASE, thread_id, lock_id, stack, (), now)
        if not fully and lock_id not in self._multiholder:
            # A reentrant partial release of a mutex frees nothing.  A
            # multi-holder resource, however, frees a permit on *every*
            # release, so its wake scan runs regardless.
            stack.discard_origin()
            return []
        woken = []
        if self.cache.yielders:  # read lock-free, like the scan's copy (docs: "The wake scan")
            for yielder, record in self.cache.threads_to_wake(thread_id, lock_id, stack):
                woken.append(yielder)
                if record.waker is not None:
                    record.waker()
        # The hold is gone; this stack can no longer enter a signature
        # (archives only read stacks of *current* holds and waits), so stop
        # pinning the interpreter frame it was captured from.  A late
        # materialization — e.g. the monitor decoding old queued records —
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
        if slot.yielding is not None:
            self.cache.end_yield(thread_id, slot)
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
        record = self.cache.end_yield(thread_id, slot)
        slot.forced_go = True
        self.stats.bump("aborted_yields")
        if record is None:
            return None
        signature = record.signature
        aborts = signature.record_abort()
        threshold = self.config.auto_disable_abort_threshold
        if threshold is not None and aborts >= threshold and not signature.disabled:
            self.history.disable(signature.fingerprint)
        return signature

    def force_go(self, thread_id: int) -> None:
        """Withdraw the standing yield, grant the retry and wake the park (starvation breaking).

        ``forced_go`` is written under the cache's yielding mutex, before the
        withdrawal and only if a yield stands, and :meth:`request` reads it
        after it publishes one: either that request sees the flag and grants,
        or the withdrawal here finds its record and calls that park's waker.
        A thread with no standing yield is left alone: its next request is
        decided by the cover search, however much later it comes.
        """
        slot = self.cache.slots.get(thread_id)
        record = self.cache.end_yield(thread_id, slot, force_go=True)
        if record is not None and record.waker is not None:
            record.waker()

    def last_avoided_signature(self) -> Optional[Signature]:
        """The signature involved in the most recent yield, if any.

        Supports the "disable the last avoided signature" user interaction
        described in section 5.7.  Prefers a currently parked thread's
        signature; otherwise falls back to the explicitly tracked
        fingerprint of the most *recently* avoided signature (not the most
        *often* avoided one).
        """
        latest: Optional[Yield] = None
        for _thread_id, slot in self.cache.slots.items():
            record = slot.yielding
            if record is not None and (latest is None or record.since > latest.since):
                latest = record
        if latest is not None:
            return latest.signature
        if self._last_avoided_fp is not None:
            return self.history.get(self._last_avoided_fp)
        return None

    # ---------------------------------------------------------------- maintenance --

    def forget_thread(self, thread_id: int) -> None:
        """Drop all engine state about a terminated thread."""
        self.cache.forget_thread(thread_id)
