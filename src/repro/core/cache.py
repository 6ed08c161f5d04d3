"""The avoidance-side RAG cache, lock-striped for hot-path scalability.

The monitor's RAG is updated lazily and may lag behind reality; the
avoidance code, however, needs an always-current view of who holds what
and who is allowed to wait for what in order to make correct GO/YIELD
decisions (paper section 5.1).  This module provides that cache:

* *Allowed sets*: for every acquisition *call site* (the innermost frame
  of the acquisition stack), the (thread, lock, stack) bindings that
  currently hold — or are allowed to wait for — a lock acquired there
  (section 5.6).  Stacks that match at any depth share their innermost
  frame, so one hash probe of a signature stack's site reaches every
  binding that could cover it; a site without bindings is *vacant*.
* holders / waiters: the lock-to-owner map, sharded by lock id.
* per-thread state: the holds multiset, the allowed-wait edge, and the
  yield causes of each thread, owned by that thread's slot.

Nothing here is memoized; all of it is current state.  The cache is
striped the way the paper's generalized-Peterson design intends: Allowed
sets are sharded by site hash, holder records by lock id, and per-thread
state lives in per-thread slots that are written almost exclusively by
their owning thread — so unrelated lock operations never contend.
Cross-structure atomicity is *not* provided here; the engine serializes
the signature-matching slow path itself and treats the monitor's
detection pass as the safety net, exactly as the paper does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .callstack import CallStack, Frame
from .errors import AvoidanceError
from .signature import EXCLUSIVE, SHARED
from ..util.slots import SlotRegistry

#: A (thread_id, lock_id, stack) binding, as used in signature instances.
Binding = Tuple[int, int, CallStack]

#: Number of stripes of the allowed-set and holder shards.
STRIPES = 16


@dataclass
class HolderRecord:
    """Ownership record of one resource (multi-holder, reentrant).

    Plain mutexes have exactly one entry in ``stacks``' key set; counting
    semaphores one entry per permit-holding thread; rwlocks one entry per
    reader (plus the writer).  ``multiholder`` latches once the resource
    has been used with a capacity above one or in SHARED mode — only then
    are concurrent holders legal, so mutex double-acquire bugs still
    raise.
    """

    #: thread id -> LIFO acquisition stacks of that thread's hold edges.
    stacks: Dict[int, List[CallStack]] = field(default_factory=dict)
    multiholder: bool = False

    @property
    def count(self) -> int:
        return sum(len(stacks) for stacks in self.stacks.values())

    @property
    def thread_id(self) -> Optional[int]:
        """The sole holder when exactly one thread holds, else ``None``."""
        if len(self.stacks) == 1:
            return next(iter(self.stacks))
        return None


class _Stripe:
    """One shard: a mutex plus the allowed-set and holder maps it guards."""

    __slots__ = ("mutex", "allowed", "holders")

    def __init__(self):
        self.mutex = threading.Lock()
        #: call site (``None``: empty stack) -> bindings holding / allowed to wait there.
        self.allowed: Dict[Optional[Frame], Set[Binding]] = {}
        #: lock -> holder record (locks whose id maps to this stripe).
        self.holders: Dict[int, HolderRecord] = {}


class _ThreadSlot:
    """Per-thread cache state, written (almost) only by its owning thread."""

    __slots__ = ("waiting", "yield_cause", "holds")

    def __init__(self):
        #: (lock, stack) the thread is allowed to wait for, or None.
        self.waiting: Optional[Tuple[int, CallStack]] = None
        #: Immutable snapshot of the cause bindings it is yielding on;
        #: replaced wholesale so concurrent readers never see a partial set.
        self.yield_cause: frozenset = frozenset()
        #: {lock: [stacks]} currently held (reentrant holds stacked).
        self.holds: Dict[int, List[CallStack]] = {}


class AvoidanceCache:
    """Always-current synchronization state used by the request method."""

    def __init__(self):
        # The paper avoids locking here with a generalized Peterson
        # algorithm; under the GIL striped mutexes are cheaper and equally
        # correct.
        #: When False the Allowed sets are not maintained (the hold/wait
        #: ledger is): only the cover search reads them, so the engine
        #: clears this while its history is empty; :meth:`rebuild_allowed`.
        self.track_allowed = True
        self._stripes: List[_Stripe] = [_Stripe() for _ in range(STRIPES)]
        self._slots: SlotRegistry[_ThreadSlot] = SlotRegistry(_ThreadSlot)
        #: Slots of currently yielding threads only, so release-side wake
        #: scans stay O(yielders) instead of O(threads ever seen).
        self._yielding: Dict[int, _ThreadSlot] = {}
        self._yielding_lock = threading.Lock()

    # -- stripe / slot addressing ----------------------------------------------------

    def _lock_stripe(self, lock_id: int) -> _Stripe:
        return self._stripes[lock_id % len(self._stripes)]

    def _slot(self, thread_id: int) -> _ThreadSlot:
        return self._slots.get(thread_id)

    # -- allow / wait edges -------------------------------------------------------------

    def add_allow(self, thread_id: int, lock_id: int, stack: CallStack) -> None:
        """Record that ``thread_id`` is allowed to block waiting for ``lock_id``."""
        slot = self._slot(thread_id)
        previous = slot.waiting
        slot.waiting = (lock_id, stack)
        if previous is not None:
            self._retire(slot, thread_id, previous[0], previous[1])
        self._add_allowed(stack, thread_id, lock_id)

    def remove_allow(self, thread_id: int) -> Optional[Tuple[int, CallStack]]:
        """Drop the thread's allow edge (cancel / yield); returns what it was."""
        slot = self._slot(thread_id)
        previous = slot.waiting
        slot.waiting = None
        if previous is not None:
            self._retire(slot, thread_id, previous[0], previous[1])
        return previous

    def waiting_of(self, thread_id: int) -> Optional[Tuple[int, CallStack]]:
        """The (lock, stack) the thread is allowed to wait for, if any."""
        slot = self._slots.peek(thread_id)
        return slot.waiting if slot is not None else None

    # -- hold edges ------------------------------------------------------------------------

    def add_hold(self, thread_id: int, lock_id: int, stack: CallStack,
                 mode: str = EXCLUSIVE, capacity: int = 1) -> int:
        """Record an acquisition; returns the new reentrancy count.

        ``mode``/``capacity`` describe the resource semantics: concurrent
        holders are legal for resources with more than one permit or any
        SHARED usage; a second holder on a plain mutex still raises.
        """
        slot = self._slot(thread_id)
        waiting = slot.waiting
        if waiting is not None and waiting[0] == lock_id:
            # Promote the allow edge: the binding stays in the Allowed
            # set of the site it waited at, and the hold is recorded with
            # the acquisition stack.
            slot.waiting = None
            if waiting[1] != stack:
                self._retire(slot, thread_id, lock_id, waiting[1])
                self._add_allowed(stack, thread_id, lock_id)
        else:
            self._add_allowed(stack, thread_id, lock_id)
        stripe = self._lock_stripe(lock_id)
        with stripe.mutex:
            record = stripe.holders.get(lock_id)
            if record is None:
                record = HolderRecord()
                stripe.holders[lock_id] = record
            if capacity > 1 or mode == SHARED:
                record.multiholder = True
            if (not record.multiholder and record.stacks
                    and thread_id not in record.stacks):
                raise AvoidanceError(
                    f"lock {lock_id} acquired by thread {thread_id} while held "
                    f"by thread {next(iter(record.stacks))}")
            record.stacks.setdefault(thread_id, []).append(stack)
            count = len(record.stacks[thread_id])
        slot.holds.setdefault(lock_id, []).append(stack)
        return count

    def release_hold(self, thread_id: int, lock_id: int) -> Tuple[bool, CallStack]:
        """Record a release.

        Returns ``(fully_released, stack)`` where ``stack`` is the
        acquisition stack of the hold edge that was removed;
        ``fully_released`` is True when *this thread* dropped its last hold
        edge on the resource (for a mutex that is exactly "the lock became
        available"; for multi-holder resources other holders may remain).
        """
        stripe = self._lock_stripe(lock_id)
        with stripe.mutex:
            record = stripe.holders.get(lock_id)
            stacks = record.stacks.get(thread_id) if record is not None else None
            if not stacks:
                raise AvoidanceError(
                    f"thread {thread_id} released lock {lock_id} it does not hold")
            stack = stacks.pop()
            fully = not stacks
            if fully:
                del record.stacks[thread_id]
                if not record.stacks:
                    del stripe.holders[lock_id]
        slot = self._slot(thread_id)
        stacks = slot.holds.get(lock_id)
        if stacks:
            stacks.pop()
            if not stacks:
                del slot.holds[lock_id]
        self._retire(slot, thread_id, lock_id, stack)
        return fully, stack

    def holder_of(self, lock_id: int) -> Optional[int]:
        """The sole thread holding ``lock_id``, or ``None`` (free or shared)."""
        record = self._lock_stripe(lock_id).holders.get(lock_id)
        return record.thread_id if record is not None else None

    def holders_of(self, lock_id: int) -> List[int]:
        """All threads currently holding ``lock_id``."""
        stripe = self._lock_stripe(lock_id)
        with stripe.mutex:
            record = stripe.holders.get(lock_id)
            return list(record.stacks) if record is not None else []

    def hold_count(self, thread_id: int, lock_id: int) -> int:
        """How many times ``thread_id`` currently holds ``lock_id``."""
        slot = self._slots.peek(thread_id)
        if slot is None:
            return 0
        return len(slot.holds.get(lock_id, ()))

    def locks_held_by(self, thread_id: int) -> List[int]:
        """The locks currently held by ``thread_id`` (each listed once)."""
        slot = self._slots.peek(thread_id)
        return list(slot.holds) if slot is not None else []

    def held_stacks(self, thread_id: int) -> List[CallStack]:
        """Every acquisition stack behind ``thread_id``'s current hold edges.

        Reentrant holds contribute one stack per edge.  Used by the
        engine's about-to-block hook to materialize lazy stacks in-thread:
        a blocked thread's hold stacks are exactly what a deadlock
        signature would archive, so none of them may still be deferred
        once the thread can no longer walk its own frames.
        """
        slot = self._slots.peek(thread_id)
        if slot is None:
            return []
        return [stack for stacks in list(slot.holds.values())
                for stack in list(stacks)]

    def total_holds(self, thread_id: int) -> int:
        """Number of hold edges of ``thread_id`` (reentrant holds counted)."""
        slot = self._slots.peek(thread_id)
        if slot is None:
            return 0
        return sum(len(stacks) for stacks in list(slot.holds.values()))

    def binding_live(self, thread_id: int, lock_id: int) -> bool:
        """Is the (thread, lock) binding still backed by a hold or allow edge?

        Used by the engine to validate freshly recorded yield causes
        against concurrent releases/cancels (the striped design has no
        global mutex serializing request against release).
        """
        if self.hold_count(thread_id, lock_id) > 0:
            return True
        waiting = self.waiting_of(thread_id)
        return waiting is not None and waiting[0] == lock_id

    # -- yield causes -----------------------------------------------------------------------

    def set_yield_cause(self, thread_id: int, causes: Iterable[Binding]) -> None:
        """Record why ``thread_id`` is yielding."""
        slot = self._slot(thread_id)
        slot.yield_cause = frozenset(causes)
        with self._yielding_lock:
            if slot.yield_cause:
                self._yielding[thread_id] = slot
            else:
                self._yielding.pop(thread_id, None)

    def clear_yield_cause(self, thread_id: int) -> None:
        """Forget the thread's yield causes (it got GO, aborted, or was forced)."""
        slot = self._slots.peek(thread_id)
        if slot is not None and slot.yield_cause:
            slot.yield_cause = frozenset()
            with self._yielding_lock:
                self._yielding.pop(thread_id, None)

    def yield_cause_of(self, thread_id: int) -> Set[Binding]:
        """The thread's current yield causes (empty set when not yielding)."""
        slot = self._slots.peek(thread_id)
        return set(slot.yield_cause) if slot is not None else set()

    def yielding_threads(self) -> List[int]:
        """Threads currently parked by an avoidance decision."""
        return [tid for tid, slot in list(self._yielding.items())
                if slot.yield_cause]

    def threads_to_wake(self, thread_id: int, lock_id: int,
                        stack: CallStack) -> List[int]:
        """Threads whose yield cause dissolves when ``thread_id`` releases ``lock_id``.

        A cause matches when its thread and lock agree; the stack is
        compared only when both sides carry one, because a release may
        remove a different reentrant hold edge than the one recorded in the
        cause.
        """
        woken: List[int] = []
        for tid, slot in list(self._yielding.items()):
            for cause_thread, cause_lock, cause_stack in slot.yield_cause:
                if cause_thread != thread_id or cause_lock != lock_id:
                    continue
                if cause_stack and stack != cause_stack \
                        and self.hold_count(thread_id, lock_id) > 0:
                    # The released hold edge is not the one named by the
                    # cause and the causing hold is still in place.
                    continue
                woken.append(tid)
                break
        return woken

    # -- candidate enumeration for signature matching ----------------------------------------

    def vacant(self, signature_stack: CallStack) -> bool:
        """True when no binding stands at ``signature_stack``'s call site.

        Nothing can then cover it: ``matches`` at any depth >= 1 needs
        equal innermost frames.  One lock-free probe; a racing add may be
        missed, a missed match (docs/architecture.md, "The memory model").
        """
        site = signature_stack.top()
        return not self._stripes[hash(site) % STRIPES].allowed.get(site)

    def candidates_matching(self, signature_stack: CallStack, depth: int,
                            exclude_threads: Set[int],
                            exclude_locks: Set[int]) -> List[Binding]:
        """All current bindings whose stack matches ``signature_stack`` at ``depth``.

        Only the bindings at its call site are examined: a vacant site
        takes no mutex, otherwise the site's set is copied under its
        stripe's mutex and matched outside it (matching may materialize
        another thread's lazy stack).  Bindings for excluded threads/locks
        are omitted so the exact-cover search can enforce the "distinct
        threads and locks" requirement.
        """
        site = signature_stack.top()
        stripe = self._stripes[hash(site) % STRIPES]
        if not stripe.allowed.get(site):
            return []
        with stripe.mutex:
            bindings = tuple(stripe.allowed.get(site, ()))
        return [binding for binding in bindings
                if binding[0] not in exclude_threads
                and binding[1] not in exclude_locks
                and signature_stack.matches(binding[2], depth)]

    def allowed_set_sizes(self) -> Dict[CallStack, int]:
        """Indexed bindings per distinct stack; sums to the live hold and wait edges."""
        sizes: Dict[CallStack, int] = {}
        for stripe in self._stripes:
            with stripe.mutex:
                for bindings in stripe.allowed.values():
                    for _thread_id, _lock_id, stack in bindings:
                        sizes[stack] = sizes.get(stack, 0) + 1
        return sizes

    # -- maintenance ------------------------------------------------------------------------------

    def forget_thread(self, thread_id: int) -> None:
        """Drop all state of a terminated thread."""
        slot = self._slots.peek(thread_id)
        if slot is not None:
            self.remove_allow(thread_id)
            for lock_id in list(slot.holds):
                while lock_id in slot.holds:
                    self.release_hold(thread_id, lock_id)
            self._slots.pop(thread_id)
        with self._yielding_lock:
            self._yielding.pop(thread_id, None)

    def clear(self) -> None:
        """Reset the cache entirely (used between experiment trials)."""
        for stripe in self._stripes:
            with stripe.mutex:
                stripe.allowed.clear()
                stripe.holders.clear()
        self._slots.clear()
        with self._yielding_lock:
            self._yielding.clear()

    def rebuild_allowed(self) -> None:
        """Re-index every live waiting/hold binding into the Allowed sets.

        The engine calls this when its history transitions from empty to
        non-empty mid-run (first local archive, or a signature installed
        by the sharing pool): while the history was empty the per-site
        index was not maintained, yet the cover search must see bindings
        that predate the transition — a hold taken before a remote
        install is exactly the binding the installed signature needs.
        Racing releases can leave a just-released binding indexed; the
        engine re-validates every instantiation with ``binding_live``
        before parking a thread, so a stale entry costs one wasted
        candidate, never a wrong yield.
        """
        for thread_id, slot in self._slots.items():
            waiting = slot.waiting
            if waiting is not None:
                self._add_allowed(waiting[1], thread_id, waiting[0])
            for lock_id, stacks in list(slot.holds.items()):
                for stack in list(stacks):
                    self._add_allowed(stack, thread_id, lock_id)

    def _add_allowed(self, stack: CallStack, thread_id: int, lock_id: int) -> None:
        if not self.track_allowed:
            return
        site = stack.top()
        stripe = self._stripes[hash(site) % STRIPES]
        with stripe.mutex:
            stripe.allowed.setdefault(site, set()).add((thread_id, lock_id, stack))

    def _retire(self, slot: _ThreadSlot, thread_id: int, lock_id: int,
                stack: CallStack) -> None:
        """Un-index the binding of an edge just removed from ``slot``.

        Unless an equal stack still backs another edge of the thread on
        that lock (a reentrant hold, a second permit requested where the
        first was): the set holds the binding once.  "Equal" as in the set,
        same hash then ``==``, so lazy captures are not compared by content.
        """
        waiting = slot.waiting
        if waiting is not None and waiting[0] == lock_id \
                and hash(waiting[1]) == hash(stack) and waiting[1] == stack:
            return
        for other in slot.holds.get(lock_id, ()):
            if hash(other) == hash(stack) and other == stack:
                return
        # Runs even when tracking is off: what was indexed while it was on
        # must still go, and a never-indexed binding is a tolerated no-op.
        site = stack.top()
        stripe = self._stripes[hash(site) % STRIPES]
        with stripe.mutex:
            bindings = stripe.allowed.get(site)
            if bindings is not None:
                bindings.discard((thread_id, lock_id, stack))
                if not bindings:
                    del stripe.allowed[site]

    # -- introspection ----------------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-friendly snapshot (debugging and reports)."""
        holders: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        for stripe in self._stripes:
            with stripe.mutex:
                for lock, rec in stripe.holders.items():
                    sole = rec.thread_id
                    holders[lock] = (sole if sole is not None
                                     else tuple(rec.stacks), rec.count)
        waiting = {}
        yielding = {}
        for tid, slot in self._slots.items():
            if slot.waiting is not None:
                waiting[tid] = slot.waiting[0]
            if slot.yield_cause:
                yielding[tid] = len(slot.yield_cause)
        return {
            "holders": holders,
            "waiting": waiting,
            "yielding": yielding,
            "distinct_stacks": len(self.allowed_set_sizes()),
        }
