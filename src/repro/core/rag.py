"""The resource allocation graph (RAG) maintained by the monitor.

The RAG captures a program's synchronization state with two kinds of
vertices (threads and resources) and four kinds of edges:

* ``request`` — thread T wants resource R but has not been allowed to
  wait for it (this is the state of a yielding thread);
* ``allow``   — T has been allowed by Dimmunix to block waiting for R;
* ``hold``    — R is held by T; the edge is labeled with the call stack T
  had when it acquired R and with the acquisition mode (exclusive permit
  vs shared reader); held reentrantly means multiple hold edges (the RAG
  is a multiset of edges);
* ``yield``   — T is parked because of threads that hold or are allowed
  to wait for resources that, together with T's pending request, would
  instantiate a signature; each yield edge is labeled with the causing
  thread's hold stack.

Resources are capacity aware: a plain mutex is a one-permit resource, a
counting semaphore an N-permit one, and a reader-writer lock a one-permit
resource whose SHARED holders coexist.  A blocked requester therefore
waits on *all* the holders that block it ("waits-for-any-permit"), not on
a single owner — the cycle detectors in :mod:`repro.core.cycles` consume
that multi-successor view.

The RAG is updated lazily from the event stream produced by the avoidance
code (section 5.1/5.2); it is read by the cycle-detection routines in
:mod:`repro.core.cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .callstack import CallStack
from .errors import RAGError
from .events import Event, TYPE_TO_CODE
from .signature import EXCLUSIVE, SHARED


@dataclass
class ThreadState:
    """Per-thread view of the RAG."""

    thread_id: int
    #: Lock the thread requested but is not allowed to wait for (yielding).
    request: Optional[Tuple[int, CallStack]] = None
    #: Lock the thread is allowed to block waiting for.
    allow: Optional[Tuple[int, CallStack]] = None
    #: Acquisition mode of the pending request / allow edge.
    request_mode: str = EXCLUSIVE
    allow_mode: str = EXCLUSIVE
    #: Yield edges: (cause_thread, cause_lock, cause_stack) tuples.
    yields: Set[Tuple[int, int, CallStack]] = field(default_factory=set)
    #: Locks currently held (lock_id -> list of acquisition stacks, reentrant).
    holds: Dict[int, List[CallStack]] = field(default_factory=dict)

    @property
    def waiting_lock(self) -> Optional[int]:
        """The lock this thread is (or wants to be) waiting for, if any."""
        if self.allow is not None:
            return self.allow[0]
        if self.request is not None:
            return self.request[0]
        return None

    @property
    def waiting_mode(self) -> str:
        """Acquisition mode of the edge behind :attr:`waiting_lock`."""
        if self.allow is not None:
            return self.allow_mode
        return self.request_mode

    @property
    def is_yielding(self) -> bool:
        """True when the thread is parked by an avoidance decision."""
        return bool(self.yields)

    @property
    def hold_count(self) -> int:
        """Total number of hold edges (reentrant acquisitions count)."""
        return sum(len(stacks) for stacks in self.holds.values())


@dataclass
class ResourceState:
    """Per-resource view of the RAG (capacity-aware, multi-holder).

    ``edges`` is the hold-edge multiset in acquisition order: one
    ``(thread_id, stack, mode)`` entry per (possibly reentrant) hold.  A
    release removes the most recent edge of the releasing thread, which
    mirrors the LIFO hold bookkeeping of the avoidance cache.
    """

    lock_id: int
    #: Number of exclusive permits (1 = mutex / rwlock, N = semaphore).
    capacity: int = 1
    #: True once a SHARED acquisition has been observed (rwlock reader).
    shared_capable: bool = False
    #: Hold edges in acquisition order: (thread, stack, mode).
    edges: List[Tuple[int, CallStack, str]] = field(default_factory=list)
    #: Threads with an allow edge on this resource.
    waiters: Set[int] = field(default_factory=set)

    def holder_ids(self) -> List[int]:
        """Distinct holder thread ids, in first-acquisition order."""
        seen: List[int] = []
        for thread_id, _stack, _mode in self.edges:
            if thread_id not in seen:
                seen.append(thread_id)
        return seen

    def hold_stack_of(self, thread_id: int) -> Optional[CallStack]:
        """The most recent acquisition stack of ``thread_id`` on this resource."""
        for tid, stack, _mode in reversed(self.edges):
            if tid == thread_id:
                return stack
        return None

    def exclusive_edge_count(self) -> int:
        """Number of EXCLUSIVE hold edges (permits in use)."""
        return sum(1 for _tid, _stack, mode in self.edges if mode == EXCLUSIVE)

    def blocking_holders(self, thread_id: int,
                         mode: str) -> List[Tuple[int, CallStack, str]]:
        """The holders a ``mode`` request by ``thread_id`` waits on.

        Returns ``(holder, stack, holder_mode)`` triples — empty when the
        request would be grantable right now (so no wait edge exists):

        * SHARED requests wait on other threads' EXCLUSIVE holds only;
        * EXCLUSIVE requests wait on every other holder while another
          thread holds SHARED, and on the other EXCLUSIVE holders while
          the permit count is exhausted.
        """
        if not self.edges:
            return []
        others: List[Tuple[int, CallStack, str]] = []
        other_shared = False
        for tid, _stack, edge_mode in self.edges:
            if tid == thread_id:
                continue
            stack = self.hold_stack_of(tid)
            entry = (tid, stack, edge_mode)
            if entry not in others:
                others.append(entry)
            if edge_mode == SHARED:
                other_shared = True
        if mode == SHARED:
            return [(tid, stack, m) for tid, stack, m in others
                    if m == EXCLUSIVE]
        if other_shared:
            return others
        if self.exclusive_edge_count() >= self.capacity:
            return [(tid, stack, m) for tid, stack, m in others
                    if m == EXCLUSIVE]
        return []


class ResourceAllocationGraph:
    """Monitor-side RAG built incrementally from synchronization events."""

    def __init__(self, strict: bool = False):
        self._threads: Dict[int, ThreadState] = {}
        self._locks: Dict[int, ResourceState] = {}
        #: Threads touched by the most recently applied batch of events;
        #: cycle detection only needs to start from these (section 5.2).
        self._dirty_threads: Set[int] = set()
        self._strict = strict
        self._events_applied = 0
        #: Times the graph observed an event order section 5.2 forbids (an
        #: ACQUIRED for a single-holder resource that still shows another
        #: owner, i.e. the matching RELEASE had not been applied first).
        #: Outside strict mode the stale edges are dropped and this counts
        #: the repair; a correctly ordered event stream keeps it at 0, so
        #: the race harness uses it as its ordering oracle.
        self._order_violations = 0

    # -- accessors -------------------------------------------------------------------------

    def thread(self, thread_id: int) -> ThreadState:
        """The state of ``thread_id``, creating an empty record if needed."""
        state = self._threads.get(thread_id)
        if state is None:
            state = ThreadState(thread_id=thread_id)
            self._threads[thread_id] = state
        return state

    def lock(self, lock_id: int) -> ResourceState:
        """The state of ``lock_id``, creating an empty record if needed."""
        state = self._locks.get(lock_id)
        if state is None:
            state = ResourceState(lock_id=lock_id)
            self._locks[lock_id] = state
        return state

    def threads(self) -> List[ThreadState]:
        """All known thread states."""
        return list(self._threads.values())

    def locks(self) -> List[ResourceState]:
        """All known resource states."""
        return list(self._locks.values())

    def thread_ids(self) -> Set[int]:
        """The set of known thread identifiers."""
        return set(self._threads)

    @property
    def dirty_threads(self) -> Set[int]:
        """Threads touched since :meth:`clear_dirty` was last called."""
        return set(self._dirty_threads)

    def clear_dirty(self) -> None:
        """Forget which threads were recently touched."""
        self._dirty_threads.clear()

    @property
    def events_applied(self) -> int:
        """Total number of events applied to this RAG."""
        return self._events_applied

    @property
    def order_violations(self) -> int:
        """Times an applied event stream broke the section 5.2 order.

        Incremented when an ACQUIRED arrives for a single-holder resource
        the graph still believes another thread owns — possible only if
        the owner's RELEASE was reordered behind it (or lost).  Stays 0
        when the event source honors its ordering contract; the races
        harness asserts exactly that.
        """
        return self._order_violations

    def holder_of(self, lock_id: int) -> Optional[int]:
        """The sole thread holding ``lock_id`` (None if free/shared/unknown)."""
        holders = self.holders_of(lock_id)
        return holders[0] if len(holders) == 1 else None

    def holders_of(self, lock_id: int) -> List[int]:
        """All threads currently holding ``lock_id`` (empty if free/unknown)."""
        state = self._locks.get(lock_id)
        return state.holder_ids() if state is not None else []

    def hold_stack(self, lock_id: int,
                   thread_id: Optional[int] = None) -> Optional[CallStack]:
        """The most recent acquisition stack on ``lock_id``.

        With ``thread_id`` given, the most recent stack of that specific
        holder; otherwise the most recently added hold edge's stack.
        """
        state = self._locks.get(lock_id)
        if state is None or not state.edges:
            return None
        if thread_id is not None:
            return state.hold_stack_of(thread_id)
        return state.edges[-1][1]

    # -- event application ------------------------------------------------------------------

    def apply(self, event: Event) -> None:
        """Apply one synchronization event to the graph."""
        code = TYPE_TO_CODE.get(event.type)
        if code is None:  # pragma: no cover - defensive
            raise RAGError(f"unknown event type {event.type}")
        _HANDLERS[code](self, event.thread_id, event.lock_id, event.stack,
                        event.causes, event.mode, event.capacity)
        self._dirty_threads.add(event.thread_id)
        self._events_applied += 1

    def apply_batch(self, events) -> int:
        """Apply a sequence of events; returns how many were applied."""
        count = 0
        for event in events:
            self.apply(event)
            count += 1
        return count

    def apply_encoded(self, records) -> int:
        """Apply encoded records (see :mod:`repro.core.events`) directly.

        This is the monitor's standard path: the records drained from the
        ring-buffer bus are consumed field by field, so the per-event
        dataclass is never materialized.

        The RAG itself is not thread-safe — it relies on its caller being
        a single consumer (the monitor applies batches under its own
        mutex) and on ``records`` arriving in the emission order the bus
        guarantees; :attr:`order_violations` counts the times that
        contract was broken.
        """
        handlers = _HANDLERS
        dirty = self._dirty_threads
        count = 0
        for record in records:
            _seq, code, thread_id, lock_id, stack, causes, _ts, mode, capacity = record
            handlers[code](self, thread_id, lock_id, stack, causes, mode,
                           capacity)
            dirty.add(thread_id)
            count += 1
        self._events_applied += count
        return count

    def _learn_spec_fields(self, lock_id: int, mode: str,
                           capacity: int) -> ResourceState:
        """Update (and return) the resource record from an event's spec fields."""
        resource = self.lock(lock_id)
        if capacity > resource.capacity:
            resource.capacity = capacity
        if mode == SHARED:
            resource.shared_capable = True
        return resource

    # -- individual handlers (field-level, shared by both event forms) --------------------------

    def _on_request(self, thread_id, lock_id, stack, causes, mode, capacity) -> None:
        thread = self.thread(thread_id)
        thread.request = (lock_id, stack)
        thread.request_mode = mode
        self._learn_spec_fields(lock_id, mode, capacity)

    # ALLOW, ACQUIRED and RELEASE run once per lock operation each, in GIL time taken from
    # the clients: no helper call once their two states exist, no spec or yield set to update.

    def _on_allow(self, thread_id, lock_id, stack, causes, mode, capacity) -> None:
        thread = self._threads.get(thread_id) or self.thread(thread_id)
        thread.request = None
        thread.allow = (lock_id, stack)
        thread.allow_mode = mode
        if thread.yields:
            thread.yields.clear()
        resource = (self._learn_spec_fields(lock_id, mode, capacity)
                    if capacity > 1 or mode == SHARED
                    else self._locks.get(lock_id) or self.lock(lock_id))
        resource.waiters.add(thread_id)

    def _on_yield(self, thread_id, lock_id, stack, causes, mode, capacity) -> None:
        thread = self.thread(thread_id)
        # The tentative allow edge is flipped back into a request edge.
        if thread.allow is not None and thread.allow[0] == lock_id:
            self.lock(lock_id).waiters.discard(thread_id)
            thread.allow = None
        thread.request = (lock_id, stack)
        thread.request_mode = mode
        thread.yields = set(causes)
        self._learn_spec_fields(lock_id, mode, capacity)

    def _on_acquired(self, thread_id, lock_id, stack, causes, mode, capacity) -> None:
        thread = self._threads.get(thread_id) or self.thread(thread_id)
        resource = (self._learn_spec_fields(lock_id, mode, capacity)
                    if capacity > 1 or mode == SHARED
                    else self._locks.get(lock_id) or self.lock(lock_id))
        if thread.allow is not None and thread.allow[0] == lock_id:
            thread.allow = None
        if thread.request is not None and thread.request[0] == lock_id:
            thread.request = None
        resource.waiters.discard(thread_id)
        if thread.yields:
            thread.yields.clear()
        edges = resource.edges
        single_holder = (resource.capacity == 1
                         and not resource.shared_capable
                         and mode == EXCLUSIVE)
        if single_holder and edges \
                and (len(edges) > 1 or edges[0][0] != thread_id) \
                and any(tid != thread_id for tid, _s, _m in edges):
            # A release event from the previous owner has not been processed
            # yet.  The partial-ordering argument of section 5.2 guarantees
            # the release precedes this acquired in the queue, so reaching
            # this point means the caller violated that ordering.
            self._order_violations += 1
            if self._strict:
                raise RAGError(
                    f"lock {lock_id} acquired by {thread_id} while "
                    f"owned by {resource.holder_ids()}")
            # Be forgiving outside strict mode: drop the stale hold edges.
            for tid in resource.holder_ids():
                previous = self._threads.get(tid)
                if previous is not None:
                    previous.holds.pop(lock_id, None)
            edges.clear()
        edges.append((thread_id, stack, mode))
        thread.holds.setdefault(lock_id, []).append(stack)

    def _on_release(self, thread_id, lock_id, stack, causes, mode, capacity) -> None:
        thread = self._threads.get(thread_id) or self.thread(thread_id)
        resource = self._locks.get(lock_id) or self.lock(lock_id)
        stacks = thread.holds.get(lock_id)
        if not stacks:
            if self._strict:
                raise RAGError(
                    f"thread {thread_id} released lock {lock_id} "
                    "it does not hold")
            return
        stacks.pop()
        if not stacks:
            del thread.holds[lock_id]
        for index in range(len(resource.edges) - 1, -1, -1):
            if resource.edges[index][0] == thread_id:
                del resource.edges[index]
                break

    def _on_cancel(self, thread_id, lock_id, stack, causes, mode, capacity) -> None:
        thread = self.thread(thread_id)
        if thread.allow is not None and thread.allow[0] == lock_id:
            thread.allow = None
        if thread.request is not None and thread.request[0] == lock_id:
            thread.request = None
        self.lock(lock_id).waiters.discard(thread_id)
        thread.yields.clear()

    # -- statistics / introspection ---------------------------------------------------------------

    def edge_counts(self) -> Dict[str, int]:
        """Counts of each edge kind (used by resource-utilization reports)."""
        request = sum(1 for t in self._threads.values() if t.request is not None)
        allow = sum(1 for t in self._threads.values() if t.allow is not None)
        hold = sum(t.hold_count for t in self._threads.values())
        yields = sum(len(t.yields) for t in self._threads.values())
        return {"request": request, "allow": allow, "hold": hold, "yield": yields}

    def snapshot(self) -> Dict:
        """A JSON-friendly snapshot of the graph (debugging, reports)."""
        return {
            "threads": {
                tid: {
                    "request": state.request[0] if state.request else None,
                    "allow": state.allow[0] if state.allow else None,
                    "holds": {lid: len(stacks) for lid, stacks in state.holds.items()},
                    "yields": [(c[0], c[1]) for c in state.yields],
                }
                for tid, state in self._threads.items()
            },
            "locks": {
                lid: {
                    "holders": state.holder_ids(),
                    "capacity": state.capacity,
                    "shared": state.shared_capable,
                    "waiters": sorted(state.waiters),
                }
                for lid, state in self._locks.items()
            },
        }

    def forget_thread(self, thread_id: int) -> None:
        """Drop a terminated thread that holds nothing and waits for nothing."""
        state = self._threads.get(thread_id)
        if state is None:
            return
        if state.holds or state.allow or state.request:
            raise RAGError(f"cannot forget thread {thread_id}: it still has edges")
        del self._threads[thread_id]
        self._dirty_threads.discard(thread_id)


#: Dispatch table indexed by the integer event code (EV_REQUEST..EV_CANCEL).
_HANDLERS = (
    ResourceAllocationGraph._on_request,
    ResourceAllocationGraph._on_allow,
    ResourceAllocationGraph._on_yield,
    ResourceAllocationGraph._on_acquired,
    ResourceAllocationGraph._on_release,
    ResourceAllocationGraph._on_cancel,
)
