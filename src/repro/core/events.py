"""Synchronization events exchanged between the avoidance code and the monitor.

The avoidance instrumentation runs in the application's critical path and
must stay cheap; everything expensive (RAG maintenance, cycle detection,
history file I/O) happens asynchronously in the monitor.  The two halves
communicate through the event types defined here, exactly as in Figure 1
of the paper.

Two representations exist:

* :class:`Event` — the frozen dataclass, used by tests, reports, and any
  consumer that wants named fields;
* *encoded records* — plain tuples ``(seq, code, thread_id, lock_id,
  stack, causes, timestamp, mode, capacity)`` produced by the hot path
  through :class:`EventBus` and consumed directly by the monitor's RAG.
  The tuple form exists because building a dataclass per lock operation
  dominated the per-acquire cost; the monitor decodes to :class:`Event`
  only when a consumer actually needs one (:meth:`EventBus.drain`).

:class:`EventBus` is per-OS-thread bounded ring buffers, not one shared
MPSC queue: each emitting thread appends to its own ring without
contending with other producers (which matters on free-threaded builds,
where a shared deque serializes on its per-object lock), and the monitor
merges the rings by the bus's ``seq`` so the paper's section 5.2 partial
ordering — a release precedes the next acquire of the same lock — is
preserved across rings.  The rings are also the engine's only
per-thread counter store: each counts its records per event code, drops
included (:meth:`EventBus.counts`), and keeps one count column per
engine counter (:data:`COUNTER_NAMES`, :meth:`EventBus.bump`), all of
which :class:`~repro.core.stats.EngineStats` reads.  The ordering
contract and the publication-order assumptions the lock-free paths rely
on are spelled out in ``docs/architecture.md`` ("The memory model").
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from .callstack import CallStack, EMPTY_STACK
from .signature import EXCLUSIVE
from ..util.atomics import atomic_counter


class EventType(Enum):
    """The event kinds produced by the avoidance code.

    ``REQUEST``  — a thread asked to acquire a lock (before the decision).
    ``ALLOW``    — the request was granted a GO: the thread is now allowed
                   to block waiting for the lock.
    ``YIELD``    — the request was denied: the thread yields because of the
                   listed cause threads.
    ``ACQUIRED`` — the thread actually obtained the lock.
    ``RELEASE``  — the thread released the lock.
    ``CANCEL``   — a previously allowed request was abandoned (trylock
                   failure or timed lock expiry; section 6 of the paper).
    """

    REQUEST = "request"
    ALLOW = "allow"
    YIELD = "yield"
    ACQUIRED = "acquired"
    RELEASE = "release"
    CANCEL = "cancel"


#: Integer codes used in encoded records instead of :class:`EventType`
#: members — an int compare is what the RAG dispatch needs, and the hot
#: path never touches the Enum machinery.
EV_REQUEST = 0
EV_ALLOW = 1
EV_YIELD = 2
EV_ACQUIRED = 3
EV_RELEASE = 4
EV_CANCEL = 5

CODE_TO_TYPE = (EventType.REQUEST, EventType.ALLOW, EventType.YIELD,
                EventType.ACQUIRED, EventType.RELEASE, EventType.CANCEL)
TYPE_TO_CODE = {event_type: code
                for code, event_type in enumerate(CODE_TO_TYPE)}

#: The engine's counters (:class:`~repro.core.stats.EngineStats` reads
#: them).  Every ring keeps a count column for each, after its six
#: per-code record columns; :meth:`EventBus.bump` adds to one.
COUNTER_NAMES = (
    "requests", "go_decisions", "yield_decisions", "acquisitions", "releases",
    "cancels", "aborted_yields", "forced_go", "deadlocks_detected",
    "starvations_detected", "starvations_broken", "signatures_added",
    "restarts_requested", "false_positives", "true_positives",
    "monitor_wakeups", "events_processed",
    # Lazy capture observability: how many acquire-path captures deferred
    # the deep stack walk, and how many of those were later forced to
    # materialize (filter hit, YIELD, block, archive).  The ratio
    # 1 - materialized/deferred is the capture deferral ratio the
    # overhead benchmarks report.
    "capture_deferred", "capture_materialized",
)

#: Counter name -> its ring column.
COUNTER_COLUMNS = {name: column
                   for column, name in enumerate(COUNTER_NAMES, len(CODE_TO_TYPE))}

#: Count columns of a ring: the records per event code, then the counters.
RING_COLUMNS = len(CODE_TO_TYPE) + len(COUNTER_NAMES)

#: Sequence source for directly constructed :class:`Event` objects.  This
#: domain is independent from any :class:`EventBus`'s — each bus owns its
#: sequence space so its drain can reason about contiguity (see
#: :meth:`EventBus.drain_raw`).  Atomic on free-threaded builds too: a
#: bare ``itertools.count`` can hand two threads the same value there.
_SEQUENCE = atomic_counter(1)


@dataclass(frozen=True)
class Event:
    """One synchronization event.

    Attributes
    ----------
    type:
        The :class:`EventType`.
    thread_id:
        Stable identifier of the thread that produced the event.
    lock_id:
        Identifier of the lock involved (``None`` only for synthetic events).
    stack:
        The call stack the thread had when performing the operation.
    causes:
        For ``YIELD`` events: the ``(thread_id, lock_id, stack)`` tuples that
        caused the yield, i.e. the other participants of the matched
        signature instance.
    seq:
        Monotonic sequence number; preserves the per-thread ordering
        guarantees discussed in section 5.2.
    timestamp:
        Engine clock value at emission time (wall clock or virtual time).
    mode:
        Acquisition mode of the operation: ``EXCLUSIVE`` (mutex, semaphore
        permit) or ``SHARED`` (rwlock reader).  Carried by request/allow/
        yield/acquired events so the monitor's RAG can build
        waits-for-any-permit edges.
    capacity:
        Number of exclusive permits of the resource involved (1 for plain
        locks, N for counting semaphores).  The RAG learns a resource's
        capacity lazily from this field.
    """

    type: EventType
    thread_id: int
    lock_id: Optional[int]
    stack: CallStack = EMPTY_STACK
    causes: Tuple[Tuple[int, int, CallStack], ...] = ()
    seq: int = field(default_factory=_SEQUENCE.next)
    timestamp: float = 0.0
    mode: str = EXCLUSIVE
    capacity: int = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event({self.type.value}, thread={self.thread_id}, "
                f"lock={self.lock_id}, seq={self.seq})")


def request_event(thread_id: int, lock_id: int, stack: CallStack,
                  timestamp: float = 0.0, mode: str = EXCLUSIVE,
                  capacity: int = 1) -> Event:
    """Convenience constructor for a REQUEST event."""
    return Event(EventType.REQUEST, thread_id, lock_id, stack,
                 timestamp=timestamp, mode=mode, capacity=capacity)


def allow_event(thread_id: int, lock_id: int, stack: CallStack,
                timestamp: float = 0.0, mode: str = EXCLUSIVE,
                capacity: int = 1) -> Event:
    """Convenience constructor for an ALLOW event."""
    return Event(EventType.ALLOW, thread_id, lock_id, stack,
                 timestamp=timestamp, mode=mode, capacity=capacity)


def yield_event(thread_id: int, lock_id: int, stack: CallStack,
                causes: Tuple[Tuple[int, int, CallStack], ...],
                timestamp: float = 0.0, mode: str = EXCLUSIVE,
                capacity: int = 1) -> Event:
    """Convenience constructor for a YIELD event."""
    return Event(EventType.YIELD, thread_id, lock_id, stack, causes=causes,
                 timestamp=timestamp, mode=mode, capacity=capacity)


def acquired_event(thread_id: int, lock_id: int, stack: CallStack,
                   timestamp: float = 0.0, mode: str = EXCLUSIVE,
                   capacity: int = 1) -> Event:
    """Convenience constructor for an ACQUIRED event."""
    return Event(EventType.ACQUIRED, thread_id, lock_id, stack,
                 timestamp=timestamp, mode=mode, capacity=capacity)


def release_event(thread_id: int, lock_id: int, stack: CallStack = EMPTY_STACK,
                  timestamp: float = 0.0) -> Event:
    """Convenience constructor for a RELEASE event."""
    return Event(EventType.RELEASE, thread_id, lock_id, stack, timestamp=timestamp)


def cancel_event(thread_id: int, lock_id: int, stack: CallStack = EMPTY_STACK,
                 timestamp: float = 0.0) -> Event:
    """Convenience constructor for a CANCEL event."""
    return Event(EventType.CANCEL, thread_id, lock_id, stack, timestamp=timestamp)


# ---------------------------------------------------------------------------
# Encoded records and the ring-buffer event bus
# ---------------------------------------------------------------------------

def encode_event(event: Event) -> Tuple:
    """The encoded-record form of an :class:`Event` (same ``seq``)."""
    return (event.seq, TYPE_TO_CODE[event.type], event.thread_id,
            event.lock_id, event.stack, event.causes, event.timestamp,
            event.mode, event.capacity)


def decode_event(record: Tuple) -> Event:
    """Rebuild the :class:`Event` dataclass from an encoded record."""
    seq, code, thread_id, lock_id, stack, causes, timestamp, mode, capacity = record
    return Event(CODE_TO_TYPE[code], thread_id, lock_id, stack, causes,
                 seq, timestamp, mode, capacity)


#: Default per-thread ring capacity.  Generous on purpose: with a running
#: monitor the per-pass backlog is tiny, and the bound only matters when
#: nothing drains the bus (overhead harnesses, engines without monitors).
DEFAULT_RING_CAPACITY = 65536

#: How long (seconds) the drain waits for an allocated-but-unappended
#: sequence number before giving the slot up for lost.  An in-flight emit
#: closes its window within microseconds; a gap that persists this long
#: means the emitting thread died (or was interrupted) between allocating
#: its seq and appending the record — wait forever and the bus wedges.
DEFAULT_GAP_TIMEOUT = 0.05

#: Sort key of encoded records: the bus's emission sequence number.
_RECORD_SEQ = operator.itemgetter(0)


class _Ring:
    """One producer thread's bounded event ring.

    A ``deque`` appended only by the owning thread and drained only by
    the monitor — single producer, single consumer, opposite ends — so
    both operations are safe without a ring-level lock on GIL and
    free-threaded builds alike.  The bound is enforced by the producer
    (drop-newest with a counter).  ``counts`` is written by the owner
    alone too: its records per event code, then one column per engine
    counter (:data:`COUNTER_NAMES`).

    ``owner`` is a weak reference to the producing :class:`threading.Thread`;
    the drain uses it to retire rings whose thread has terminated, so a
    server churning short-lived threads does not accumulate empty rings
    (and a recycled ``threading.get_ident`` can never adopt a dead
    thread's ring, because rings are reached through ``threading.local``
    and never keyed by ident).
    """

    __slots__ = ("items", "capacity", "dropped", "high_water", "counts",
                 "owner")

    def __init__(self, capacity: int):
        self.items: deque = deque()
        self.capacity = capacity
        self.dropped = 0
        self.high_water = 0
        #: Records emitted per event code, dropped ones included, then the
        #: counters bumped on this thread.
        self.counts = [0] * RING_COLUMNS
        self.owner = weakref.ref(threading.current_thread())

    def owner_alive(self) -> bool:
        """Can this ring's producer still append?  Not once its thread is gone or has ended."""
        thread = self.owner()
        return thread is not None and thread.is_alive()


class EventBus:
    """Per-thread-slot ring buffers of encoded events, merged on drain.

    Producers call :meth:`emit` (or :meth:`put` with a prebuilt
    :class:`Event`); the single consumer — the monitor — calls
    :meth:`drain_raw` for encoded records or :meth:`drain` for decoded
    :class:`Event` objects.  Every thread gets its own ring, reached
    through ``threading.local`` (never keyed by the event's ``thread_id``:
    a semaphore release may be recorded on behalf of another holder), so
    each ring stays single-producer.

    **Sequence domain.**  The bus allocates its own contiguous sequence
    numbers (1, 2, 3, ...) with an atomic counter at emission time; it
    never uses an :class:`Event`'s own ``seq`` (:meth:`put` re-stamps).
    Contiguity is what makes the ordering guarantee below checkable: a
    missing seq is always an emission that allocated its number but has
    not appended its record yet.

    **Ordering guarantee.**  The concatenation of all records ever
    returned by :meth:`drain_raw` is in strictly increasing seq order —
    *across* drain boundaries, not just within one batch.  Allocation and
    append are two steps, so a drain can observe a later-seq record while
    an earlier-seq one is still in flight in another thread; the drain
    holds back everything past the first missing seq (the in-flight emit
    completes within microseconds) rather than releasing records that a
    straggler would have to precede.  The safety valve: a gap older than
    ``gap_timeout`` (an emitter killed between allocate and append) is
    skipped and counted in :attr:`seq_gaps_skipped`; should its record
    still arrive later it is released immediately, out of order, and
    counted in :attr:`stragglers` — under normal operation both counters
    stay 0 and the order is total.

    **Single consumer.**  :meth:`drain_raw` and :meth:`drain` must only
    ever be called by one thread at a time (the monitor serializes on its
    own mutex); ``_pending`` and the release cursor are consumer-owned
    state.  Nothing empties a bus in place: a trial that wants clean
    state builds a new engine (:meth:`~repro.core.dimmunix.Dimmunix.fork`).
    """

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY,
                 gap_timeout: float = DEFAULT_GAP_TIMEOUT):
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        if gap_timeout < 0:
            raise ValueError("gap_timeout must be >= 0")
        self._capacity = ring_capacity
        self._gap_timeout = gap_timeout
        #: ring id -> ring, for all live producer rings.  Values are only
        #: ever *added* by producers (under ``_mutex``) and *removed* by
        #: the consumer once the owning thread is dead (under ``_mutex``).
        self._rings: dict = {}
        self._ring_ids = itertools.count(1)  # only advanced under _mutex
        self._mutex = threading.Lock()  # guards _rings membership only
        self._local = threading.local()
        #: Bound method allocating this bus's sequence numbers; atomic on
        #: free-threaded builds (see repro.util.atomics).
        self._next_seq = atomic_counter(1).next
        # -- consumer-owned state (single consumer; see class docstring) --
        #: Records held back by a ``limit`` cut or by the ordering gate,
        #: consumed first by the next drain.
        self._pending: List[Tuple] = []
        #: The next seq the consumer expects to release (contiguity cursor).
        self._next_release = 1
        #: Gap watchdog: (missing seq, monotonic time it was first seen).
        self._gap_expected: Optional[int] = None
        self._gap_since = 0.0
        # -- lifetime counters ------------------------------------------
        self._retired_dropped = 0
        self._retired_high_water = 0
        self._retired_counts = [0] * RING_COLUMNS
        self._total_drained = 0
        self._stragglers = 0
        self._seq_gaps_skipped = 0

    def _new_ring(self) -> _Ring:
        ring = _Ring(self._capacity)
        with self._mutex:
            self._rings[next(self._ring_ids)] = ring
        self._local.ring = ring
        return ring

    # -- producer side ------------------------------------------------------------------

    def emit(self, code: int, thread_id: int, lock_id: Optional[int],
             stack: CallStack = EMPTY_STACK, causes: Tuple = (),
             timestamp: float = 0.0, mode: str = EXCLUSIVE,
             capacity: int = 1) -> bool:
        """Append one encoded record to the calling thread's ring.

        Returns ``False`` (and counts a drop) when the ring is full; the
        caller never blocks, mirroring the paper's lock-free enqueue.
        Drops are decided *before* a seq is allocated, so a rejected emit
        never leaves a hole in the bus's sequence space.
        """
        try:
            ring = self._local.ring
        except AttributeError:  # the thread's first emit or bump
            ring = self._new_ring()
        # Counted first: a dropped record is still an operation made (the
        # engine's counters are these counts), and a reader can see a count
        # whose record is not appended yet, never a record not yet counted.
        ring.counts[code] += 1
        items = ring.items
        if len(items) >= ring.capacity:
            ring.dropped += 1
            return False
        items.append((self._next_seq(), code, thread_id, lock_id, stack,
                      causes, timestamp, mode, capacity))
        size = len(items)
        if size > ring.high_water:
            ring.high_water = size
        return True

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (:data:`COUNTER_NAMES`) on the calling thread's ring."""
        try:
            ring = self._local.ring
        except AttributeError:  # the thread's first emit or bump
            ring = self._new_ring()
        ring.counts[COUNTER_COLUMNS[name]] += amount

    def put(self, event: Event) -> bool:
        """Enqueue a prebuilt :class:`Event`.

        The record is re-stamped with a fresh bus seq — the bus owns its
        sequence domain; the event's own ``seq`` (allocated at whatever
        earlier time the object was built) cannot participate in the
        contiguity-checked merge and is discarded.
        """
        return self.emit(TYPE_TO_CODE[event.type], event.thread_id,
                         event.lock_id, event.stack, event.causes,
                         event.timestamp, event.mode, event.capacity)

    # -- consumer side ------------------------------------------------------------------

    def _collect(self) -> List[Tuple]:
        """Pop every appended record from every ring; retire dead rings."""
        merged = self._pending
        self._pending = []
        with self._mutex:
            rings = list(self._rings.values())
        for ring in rings:
            # Exactly the records appended by now, each popped by one C call:
            # the owner appends at the other end meanwhile.
            items = ring.items
            merged.extend(itertools.starmap(items.popleft, itertools.repeat((), len(items))))
        # Retire rings whose producer is gone.  The checks MUST run in
        # this order: observe the owner dead *first*, only then check
        # emptiness.  Dead means run() returned, so every append the
        # owner will ever do has already happened and a subsequent empty
        # read is final.  The reverse order is a TOCTOU hole — is_alive()
        # can release the GIL (it acquires the tstate lock), so an
        # "empty" ring observed before the aliveness check can receive a
        # final burst of records while the producer races to exit, and
        # deleting it then orphans those records.
        # Lifetime counters, the count columns among them, are folded into
        # the retired aggregates, keeping dropped / totals() /
        # high_water_mark monotone.
        with self._mutex:
            for ring_id, ring in list(self._rings.items()):
                if ring.owner_alive() or ring.items:
                    continue
                del self._rings[ring_id]
                self._retired_dropped += ring.dropped
                self._retired_high_water += ring.high_water
                self._retired_counts = list(map(operator.add, self._retired_counts, ring.counts))
        return merged

    def _eligible(self, merged: List[Tuple]) -> int:
        """Length of the sorted-``merged`` prefix safe to release now.

        The common batch starts at the cursor and ends ``len - 1`` past it:
        its seqs are distinct, so it has no hole, and all of it goes at once.
        Any other walks the contiguity cursor: stragglers (seq below the
        cursor; only possible after a gap skip) release immediately,
        consecutive seqs advance the cursor, and the first *young* gap
        stops the walk — the missing seq belongs to an emit that is
        mid-flight and the records behind it must wait for it.
        """
        expected = self._next_release
        if merged and merged[0][0] == expected and merged[-1][0] == expected + len(merged) - 1:
            self._gap_expected = None
            return len(merged)
        eligible = 0
        now = None
        for record in merged:
            seq = record[0]
            if seq < expected:
                self._stragglers += 1
                eligible += 1
                continue
            if seq == expected:
                expected += 1
                eligible += 1
                continue
            # Gap: `expected` was allocated (seqs are contiguous and this
            # bus saw `seq` > expected) but its record has not landed.
            if now is None:
                now = time.monotonic()
            if self._gap_expected != expected:
                self._gap_expected = expected
                self._gap_since = now
                break
            if now - self._gap_since < self._gap_timeout:
                break
            # The gap outlived the timeout: give the missing seq(s) up
            # for lost so the bus cannot wedge on a killed emitter.
            self._seq_gaps_skipped += seq - expected
            self._gap_expected = None
            expected = seq + 1
            eligible += 1
        else:
            self._gap_expected = None
        return eligible

    def drain_raw(self, limit: Optional[int] = None) -> List[Tuple]:
        """Remove and return encoded records, merged in ``seq`` order.

        See the class docstring for the cross-drain ordering guarantee;
        records an in-flight emission must precede are held back for the
        next call rather than returned out of order.
        """
        merged = self._collect()
        merged.sort(key=_RECORD_SEQ)
        eligible = self._eligible(merged)
        released = merged[:eligible]
        leftover = merged[eligible:]
        if limit is not None and len(released) > limit:
            leftover = released[limit:] + leftover
            released = released[:limit]
        self._pending = leftover
        if released:
            cursor = released[-1][0] + 1
            if cursor > self._next_release:
                self._next_release = cursor
            self._total_drained += len(released)
        return released

    def drain(self, limit: Optional[int] = None) -> List[Event]:
        """Remove and return decoded :class:`Event` objects in ``seq`` order."""
        return [decode_event(record) for record in self.drain_raw(limit)]

    # -- introspection -----------------------------------------------------------------

    def peek_size(self) -> int:
        """Number of appended-but-undrained records.

        The approximation, precisely: an emission whose seq is allocated
        but whose append has not completed is *not* counted (it is a few
        bytecodes from appearing), and the per-ring sums are read without
        stopping producers, so the value can lag individual appends.  The
        guaranteed envelope — asserted by the test suite — is
        ``peek_size() <= total_enqueued - total_drained`` when the
        consumer thread reads ``peek_size()`` *before* ``total_enqueued``
        (each ring counts a record before appending it, so a later
        ``total_enqueued`` read covers every record an earlier peek could
        have counted), with equality once producers are quiescent.
        Reading ``total_enqueued`` first admits transient violations:
        producers can append between the two reads.
        """
        with self._mutex:
            rings = list(self._rings.values())
        return len(self._pending) + sum(len(ring.items) for ring in rings)

    def __len__(self) -> int:
        return self.peek_size()

    def __bool__(self) -> bool:
        return self.peek_size() > 0

    @property
    def ring_capacity(self) -> int:
        """The per-thread ring bound this bus was built with."""
        return self._capacity

    @property
    def gap_timeout(self) -> float:
        """Seconds the drain waits on a missing seq before skipping it."""
        return self._gap_timeout

    @property
    def ring_count(self) -> int:
        """Number of live (unretired) producer rings."""
        with self._mutex:
            return len(self._rings)

    @property
    def dropped(self) -> int:
        """Records rejected because a ring was full (monotone, lifetime)."""
        with self._mutex:
            return self._retired_dropped + sum(
                ring.dropped for ring in self._rings.values())

    @property
    def high_water_mark(self) -> int:
        """Sum of the per-ring high-water marks (upper bound on backlog)."""
        with self._mutex:
            return self._retired_high_water + sum(
                ring.high_water for ring in self._rings.values())

    def totals(self, columns: Iterable[int]) -> List[int]:
        """The lifetime count of each of ``columns``, summed over every ring."""
        with self._mutex:  # each ring is counted once: live, or retired
            rings = [self._retired_counts] + [ring.counts for ring in self._rings.values()]
        return [sum(counts[column] for counts in rings) for column in columns]

    def counts(self) -> List[int]:
        """Records emitted per event code over the bus's lifetime, dropped ones included."""
        return self.totals(range(len(CODE_TO_TYPE)))

    @property
    def total_enqueued(self) -> int:
        """Records accepted over the bus's lifetime: emitted minus dropped."""
        dropped = self.dropped  # first: a drop is counted as emitted before it is dropped
        return sum(self.counts()) - dropped

    @property
    def held_back(self) -> int:
        """Records the last drain kept for later, behind a missing seq (consumer-side)."""
        return len(self._pending)

    @property
    def total_drained(self) -> int:
        """Records handed to the consumer over the bus's lifetime."""
        return self._total_drained

    @property
    def stragglers(self) -> int:
        """Records released out of order after their seq slot was skipped.

        Nonzero only after a :attr:`seq_gaps_skipped` event; 0 in normal
        operation.
        """
        return self._stragglers

    @property
    def seq_gaps_skipped(self) -> int:
        """Allocated seqs given up for lost after ``gap_timeout``."""
        return self._seq_gaps_skipped
