"""The avoidance-side RAG cache, lock-striped for hot-path scalability.

The monitor's RAG is updated lazily and may lag behind reality; the
avoidance code, however, needs an always-current view of who holds what
and who is allowed to wait for what in order to make correct GO/YIELD
decisions (paper section 5.1).  This module provides that cache:

* *Allowed sets*: one map, ``allowed``, from every acquisition *call
  site* (the innermost frame of the acquisition stack) that a signature
  names to the (thread, lock, stack) bindings that currently hold — or
  are allowed to wait for — a lock acquired there (section 5.6).  Stacks
  that match at any depth share their innermost frame, so one hash probe
  of a signature stack's site reaches every binding that could cover it,
  and a site is a key exactly while a binding stands there: whether the
  sites a signature needs are occupied is one dict read each.  Only
  signature stacks are ever probed with, so a binding at any other site
  could not be found and is not indexed (``sites``).
* per-thread state: the holds multiset, the allowed-wait edge, the
  standing :class:`Yield` and the forced-GO flag, in the thread's one slot.
  The slots are the only hold ledger; beside them one owner map names the
  thread holding each single-holder resource, for the double-acquire check.
  A yield is one immutable record, published by :meth:`AvoidanceCache.begin_yield`
  and withdrawn by :meth:`AvoidanceCache.end_yield`, both under one mutex
  that also guards the wake index: whoever withdraws a yield holds the
  record it removed, and so the waker of that park and of no later one.

Nothing here is memoized; all of it is current state.  The cache is
striped the way the paper's generalized-Peterson design intends: an
Allowed set is written under the mutex of its site's stripe (by site
hash), read without one, and per-thread state lives in per-thread
slots that are written almost exclusively by their owning thread — so
unrelated lock operations never contend, and a hold at a site no
signature names takes no mutex at all.
Cross-structure atomicity is *not* provided here; the engine serializes
the signature-matching slow path itself and treats the monitor's
detection pass as the safety net, exactly as the paper does.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .callstack import CallStack, Frame
from .errors import AvoidanceError
from .signature import EXCLUSIVE, SHARED, Signature
from ..util.slots import SlotRegistry

#: A (thread_id, lock_id, stack) binding, as used in signature instances.
Binding = Tuple[int, int, CallStack]

#: Number of stripe mutexes guarding the Allowed sets (sharded by call-site hash).
STRIPES = 16


class Yield(NamedTuple):
    """One standing yield: the signature instance that parked a thread, and its wake.

    ``causes`` are the other threads' bindings of the instance; a release
    that dissolves one calls ``waker``, the waker of the park the yield
    armed (``None`` when no parker armed one).
    """

    signature: Signature
    lock_id: int
    stack: CallStack
    causes: Tuple[Binding, ...]
    since: float
    waker: Optional[Callable[[], None]]


class _ThreadSlot:
    """Per-thread cache and engine state, written (almost) only by its owning thread:
    without locking, and the monitor only flips ``forced_go`` and withdraws ``yielding``.

    The engine looks a thread's slot up once per entry point and hands it on.
    """

    __slots__ = ("waiting", "holds", "yielding", "forced_go", "departed")

    def __init__(self):
        #: The thread's standing yield, or None; replaced whole, under the
        #: cache's yielding mutex, so a reader never sees a partial one.
        self.yielding: Optional[Yield] = None
        #: Set by an aborted yield or the monitor: the next request gets GO.
        self.forced_go = False
        #: (lock, stack) the thread is allowed to wait for, or None.
        self.waiting: Optional[Tuple[int, CallStack]] = None
        #: {lock: [stacks]} currently held (reentrant holds stacked).
        self.holds: Dict[int, List[CallStack]] = {}
        #: The thread ended holding something: the slot goes with its last hold.
        self.departed = False


class AvoidanceCache:
    """Always-current synchronization state used by the request method."""

    def __init__(self):
        # The paper avoids locking here with a generalized Peterson algorithm;
        # here holds take no mutex and the Allowed sets striped ones.
        #: The call sites Allowed sets are kept at; ``None`` is every site.
        #: State, not a setting: the engine stores its index's republished
        #: ``sites`` here *before* it calls :meth:`rebuild_allowed`.
        self.sites: Optional[dict] = None
        #: call site (``None``: empty stack) -> bindings holding / allowed to wait
        #: there, as dict keys (the search meets them in insertion, not hash, order); a
        #: key only while non-empty.  Read lock-free, written under its site's stripe.
        self.allowed: Dict[Optional[Frame], Dict[Binding, None]] = {}
        self._stripes: List[threading.Lock] = [threading.Lock() for _ in range(STRIPES)]
        self.slots: SlotRegistry[_ThreadSlot] = SlotRegistry(_ThreadSlot)
        #: The wake index: the standing yield of every yielding thread, the
        #: same record as its slot's, so release-side wake scans stay
        #: O(yielders) instead of O(threads ever seen).  Written with the slots
        #: under ``_yielding_lock``; a release reads it empty without one.
        self.yielders: Dict[int, Yield] = {}
        self._yielding_lock = threading.Lock()
        #: lock -> the thread holding it, for single-holder holds only (one
        #: EXCLUSIVE permit): the double-acquire check.  No mutex; see
        #: :meth:`add_hold`.
        self._owners: Dict[int, int] = {}

    # -- allow / wait edges -------------------------------------------------------------

    def add_allow(self, thread_id: int, lock_id: int, stack: CallStack,
                  slot: Optional[_ThreadSlot] = None) -> None:
        """Record that ``thread_id`` is allowed to block waiting for ``lock_id``.

        The edge enters the slot (``slot``, when the caller has it) *before*
        ``_add_allowed`` reads :attr:`sites`: a filter republished later is
        followed by a rebuild whose scan finds the edge, an earlier one is seen.
        """
        slot = slot or self.slots.get(thread_id)
        previous = slot.waiting
        slot.waiting = (lock_id, stack)
        if previous is not None:
            self._retire(slot, thread_id, previous[0], previous[1])
        self._add_allowed(stack, thread_id, lock_id)

    def remove_allow(self, thread_id: int, slot: Optional[_ThreadSlot] = None
                     ) -> Optional[Tuple[int, CallStack]]:
        """Drop the thread's allow edge (cancel / yield); returns what it was."""
        slot = slot or self.slots.get(thread_id)
        previous = slot.waiting
        slot.waiting = None
        if previous is not None:
            self._retire(slot, thread_id, previous[0], previous[1])
        return previous

    def waiting_of(self, thread_id: int) -> Optional[Tuple[int, CallStack]]:
        """The (lock, stack) the thread is allowed to wait for, if any."""
        slot = self.slots.peek(thread_id)
        return slot.waiting if slot is not None else None

    # -- hold edges ------------------------------------------------------------------------

    def add_hold(self, thread_id: int, lock_id: int, stack: CallStack,
                 mode: str = EXCLUSIVE, capacity: int = 1,
                 slot: Optional[_ThreadSlot] = None) -> int:
        """Record an acquisition; returns the new reentrancy count.

        ``mode``/``capacity`` describe the resource semantics.  A thread's
        first hold of a one-permit resource taken EXCLUSIVE enters the owner
        map, and a second such holder raises (and changes nothing); concurrent
        holders are legal, and unchecked, with more than one permit or in
        SHARED mode.  Ordered as :meth:`add_allow`: the hold enters the
        slot before the allow edge it promotes leaves and before
        :attr:`sites` is read, so a rebuild's scan finds one of the two.
        """
        slot = slot or self.slots.get(thread_id)
        held = slot.holds.get(lock_id)
        if held is None:
            if capacity == 1 and mode != SHARED:
                # Atomic on GIL and free-threaded builds.  The previous owner's
                # release_hold ran before its native release, this runs after
                # our native acquire: the primitive itself orders the two.
                owner = self._owners.setdefault(lock_id, thread_id)
                if owner != thread_id:
                    raise AvoidanceError(
                        f"lock {lock_id} acquired by thread {thread_id} while "
                        f"held by thread {owner}")
            held = slot.holds[lock_id] = [stack]
        else:
            held.append(stack)
        waiting = slot.waiting
        if waiting is not None and waiting[0] == lock_id:
            # Promote the allow edge: the binding stays in the Allowed
            # set of the site it waited at, and the hold is recorded with
            # the acquisition stack.
            slot.waiting = None
            if waiting[1] is stack or waiting[1] == stack:
                return len(held)
            self._retire(slot, thread_id, lock_id, waiting[1])
        self._add_allowed(stack, thread_id, lock_id)
        return len(held)

    def release_hold(self, thread_id: int, lock_id: int) -> Tuple[bool, CallStack]:
        """Record a release.

        Returns ``(fully_released, stack)`` where ``stack`` is the
        acquisition stack of the hold edge that was removed;
        ``fully_released`` is True when *this thread* dropped its last hold
        edge on the resource (for a mutex that is exactly "the lock became
        available"; for multi-holder resources other holders may remain).
        """
        slot = self.slots.peek(thread_id)
        stacks = slot.holds.get(lock_id) if slot is not None else None
        if not stacks:
            raise AvoidanceError(
                f"thread {thread_id} released lock {lock_id} it does not hold")
        stack = stacks.pop()
        fully = not stacks
        if fully:
            del slot.holds[lock_id]
            if self._owners.get(lock_id) == thread_id:
                self._owners.pop(lock_id, None)
            if slot.departed and not slot.holds:
                self.slots.pop(thread_id)
        self._retire(slot, thread_id, lock_id, stack)
        return fully, stack

    def holder_of(self, lock_id: int) -> Optional[int]:
        """The sole thread holding ``lock_id``, or ``None`` (free or shared)."""
        holders = self.holders_of(lock_id)
        return holders[0] if len(holders) == 1 else None

    def holders_of(self, lock_id: int) -> List[int]:
        """All threads currently holding ``lock_id``, by id (a scan of the slots)."""
        return [thread_id for thread_id, slot in sorted(self.slots.items())
                if slot.holds.get(lock_id)]

    def hold_count(self, thread_id: int, lock_id: int) -> int:
        """How many times ``thread_id`` currently holds ``lock_id``."""
        slot = self.slots.peek(thread_id)
        return len(slot.holds.get(lock_id, ())) if slot is not None else 0

    def locks_held_by(self, thread_id: int) -> List[int]:
        """The locks currently held by ``thread_id`` (each listed once)."""
        slot = self.slots.peek(thread_id)
        return list(slot.holds) if slot is not None else []

    def held_stacks(self, thread_id: int) -> List[CallStack]:
        """Every acquisition stack behind ``thread_id``'s current hold edges.

        Reentrant holds contribute one stack per edge.  Used by the
        engine's about-to-block hook to materialize lazy stacks in-thread:
        a blocked thread's hold stacks are exactly what a deadlock
        signature would archive, so none of them may still be deferred
        once the thread can no longer walk its own frames.
        """
        slot = self.slots.peek(thread_id)
        return [stack for stacks in list(slot.holds.values())
                for stack in list(stacks)] if slot is not None else []

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

    # -- yields ---------------------------------------------------------------------------------

    def begin_yield(self, thread_id: int, slot: _ThreadSlot, record: Yield) -> None:
        """Publish ``record`` as the thread's standing yield, replacing any earlier one."""
        with self._yielding_lock:
            slot.yielding = record
            self.yielders[thread_id] = record

    def end_yield(self, thread_id: int, slot: _ThreadSlot,
                  force_go: bool = False) -> Optional[Yield]:
        """Withdraw the thread's standing yield; returns the record it removed, or None.

        The read and the clear are one step under the mutex, so two callers
        racing to withdraw one yield (the thread granted, the monitor forcing
        a GO) never both get it.  ``force_go`` sets the slot's flag in that
        step, before the withdrawal, and only if a yield stands.
        """
        with self._yielding_lock:
            record = slot.yielding
            if record is not None:
                if force_go:
                    slot.forced_go = True
                slot.yielding = None
                del self.yielders[thread_id]
        return record

    def yielding_threads(self) -> List[int]:
        """Threads with a standing yield."""
        return list(self.yielders)

    def threads_to_wake(self, thread_id: int, lock_id: int,
                        stack: CallStack) -> List[Tuple[int, Yield]]:
        """(yielder, yield) pairs whose cause dissolves when ``thread_id`` releases ``lock_id``.

        A cause matches when its thread and lock agree; the stack is
        compared only when both sides carry one, because a release may
        remove a different reentrant hold edge than the one recorded in the
        cause.
        """
        woken: List[Tuple[int, Yield]] = []
        for tid, record in list(self.yielders.items()):
            for cause_thread, cause_lock, cause_stack in record.causes:
                if cause_thread != thread_id or cause_lock != lock_id:
                    continue
                if cause_stack and stack != cause_stack \
                        and self.hold_count(thread_id, lock_id) > 0:
                    # The released hold edge is not the one named by the
                    # cause and the causing hold is still in place.
                    continue
                woken.append((tid, record))
                break
        return woken

    # -- candidate enumeration for signature matching ----------------------------------------

    def candidates_matching(self, signature_stack: CallStack, depth: int,
                            exclude_threads: Set[int],
                            exclude_locks: Set[int]) -> List[Binding]:
        """All current bindings whose stack matches ``signature_stack`` at ``depth``.

        Only the bindings at its call site are examined: a site without
        any takes no mutex, otherwise the site's set is copied under its
        stripe's mutex and matched outside it (matching may materialize
        another thread's lazy stack).  Bindings for excluded threads/locks
        are omitted so the exact-cover search can enforce the "distinct
        threads and locks" requirement.
        """
        site = signature_stack.top()
        if site not in self.allowed:
            return []
        with self._stripes[hash(site) % STRIPES]:
            bindings = tuple(self.allowed.get(site, ()))
        return [binding for binding in bindings
                if binding[0] not in exclude_threads
                and binding[1] not in exclude_locks
                and signature_stack.matches(binding[2], depth)]

    def allowed_set_sizes(self) -> Dict[CallStack, int]:
        """Indexed bindings per distinct stack; sums to the live bindings at named sites."""
        sizes: Dict[CallStack, int] = {}
        for site in list(self.allowed):
            with self._stripes[hash(site) % STRIPES]:
                for _thread_id, _lock_id, stack in self.allowed.get(site, ()):
                    sizes[stack] = sizes.get(stack, 0) + 1
        return sizes

    # -- maintenance ------------------------------------------------------------------------------

    def forget_thread(self, thread_id: int) -> None:
        """Drop the state of a terminated thread, except what it still holds.

        A thread may end holding a resource: a semaphore permit that
        another thread returns later, say.  Its holds stay, as the
        monitor's RAG keeps its edges, so that release is still recorded
        against them; the slot goes with the last one.
        """
        slot = self.slots.peek(thread_id)
        if slot is not None:
            self.remove_allow(thread_id, slot)
            self.end_yield(thread_id, slot)
            slot.departed = True
            if not slot.holds:  # read after the flag: a racing release pops it too
                self.slots.pop(thread_id)

    def rebuild_allowed(self) -> None:
        """Index every live waiting/hold binding whose site :attr:`sites` names.

        The engine calls this each time it stores a republished filter
        (first local archive, a signature installed by the sharing pool,
        one re-enabled): a binding taken while no signature named its site
        was not indexed, yet a hold taken before a remote install is
        exactly the binding the installed signature needs.  An owner that
        drops an edge between the snapshot and the insert found nothing to
        un-index, so every insert is followed by the owner's own check
        (:meth:`_retire`).  Bindings at sites no longer named stay until released.
        """
        for thread_id, slot in self.slots.items():
            waiting = slot.waiting
            edges = [] if waiting is None else [waiting]
            for lock_id, stacks in list(slot.holds.items()):
                edges.extend((lock_id, stack) for stack in list(stacks))
            for lock_id, stack in edges:
                self._add_allowed(stack, thread_id, lock_id)
                self._retire(slot, thread_id, lock_id, stack)

    def _add_allowed(self, stack: CallStack, thread_id: int, lock_id: int) -> None:
        """Index the binding of an edge *already written* to its slot, at a named site."""
        sites = self.sites
        if sites is not None and stack.absent_from is sites:
            return  # the capture's verdict, on this very filter object
        site = stack.top()
        if sites is None or site in sites:
            if stack.absent_from is not None:
                stack.absent_from = None  # indexed now: _retire must not trust the verdict
            with self._stripes[hash(site) % STRIPES]:
                self.allowed.setdefault(site, {})[thread_id, lock_id, stack] = None

    def _retire(self, slot: _ThreadSlot, thread_id: int, lock_id: int,
                stack: CallStack) -> None:
        """Un-index the binding of an edge just removed from ``slot``.

        Unless an equal stack still backs another edge of the thread on
        that lock (a reentrant hold, a second permit requested where the
        first was): the set holds the binding once.  "Equal" as in the set,
        same hash then ``==``, so lazy captures are not compared by content.
        A capture whose verdict is the current ``sites`` was never indexed:
        :meth:`_add_allowed` skips it, and drops the verdict of any stack it
        indexes first (see docs/architecture.md, "The memory model").
        """
        sites = self.sites
        if sites is not None and stack.absent_from is sites:
            return
        site = stack.top()
        if site not in self.allowed:
            # Nothing is indexed here (the common case: no signature names
            # the site).  One lock-free probe; no scan and no mutex.
            return
        waiting = slot.waiting
        if waiting is not None and waiting[0] == lock_id \
                and hash(waiting[1]) == hash(stack) and waiting[1] == stack:
            return
        for other in slot.holds.get(lock_id, ()):
            if hash(other) == hash(stack) and other == stack:
                return
        with self._stripes[hash(site) % STRIPES]:
            bindings = self.allowed.get(site)
            if bindings is not None:
                bindings.pop((thread_id, lock_id, stack), None)
                if not bindings:
                    del self.allowed[site]

    # -- introspection ----------------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-friendly snapshot (debugging and reports)."""
        held: Dict[int, Dict[int, int]] = {}
        for tid, slot in sorted(self.slots.items()):
            for lock, stacks in list(slot.holds.items()):
                held.setdefault(lock, {})[tid] = len(stacks)
        holders = {lock: (next(iter(counts)) if len(counts) == 1 else tuple(counts),
                          sum(counts.values())) for lock, counts in held.items()}
        waiting = {tid: slot.waiting[0] for tid, slot in self.slots.items()
                   if slot.waiting is not None}
        yielding = {tid: len(record.causes)
                    for tid, record in list(self.yielders.items())}
        return {
            "holders": holders,
            "waiting": waiting,
            "yielding": yielding,
            "distinct_stacks": len(self.allowed_set_sizes()),
        }
