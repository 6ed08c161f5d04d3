"""Synchronization events exchanged between the avoidance code and the monitor.

The avoidance instrumentation runs in the application's critical path and
must stay cheap; everything expensive (RAG maintenance, cycle detection,
history file I/O) happens asynchronously in the monitor.  The two halves
communicate through the event types defined here, exactly as in Figure 1
of the paper.

Two representations exist:

* :class:`Event` — the frozen dataclass, used by tests, reports, and any
  consumer that wants named fields;
* *encoded records* — plain tuples ``(code, thread_id, lock_id, stack,
  causes, timestamp, mode, capacity)`` produced by the hot path through
  :class:`EventBus` and consumed directly by the monitor's RAG.  The
  tuple form exists because building a dataclass per lock operation
  dominated the per-acquire cost; the monitor decodes to :class:`Event`
  only when a consumer actually needs one (:meth:`EventBus.drain`).

:class:`EventBus` is Figure 1's event queue: one bounded ``deque`` that
every emitting thread appends to and the monitor pops in append order.
One FIFO gives the paper's section 5.2 partial ordering by construction:
a release is appended before the native unlock and the next acquisition
after the native lock, so the release drains first.  Next to the queue,
each emitting thread keeps a ring of count columns, the engine's only
per-thread counter store: its records per event code, drops included
(:meth:`EventBus.counts`), and one column per engine counter
(:data:`COUNTER_NAMES`, :meth:`EventBus.bump`), all of which
:class:`~repro.core.stats.EngineStats` reads.  The publication-order
assumptions the lock-free paths rely on are spelled out in
``docs/architecture.md`` ("The memory model").
"""

from __future__ import annotations

import itertools
import operator
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from .callstack import CallStack, EMPTY_STACK
from .signature import EXCLUSIVE


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
    timestamp: float = 0.0
    mode: str = EXCLUSIVE
    capacity: int = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event({self.type.value}, thread={self.thread_id}, "
                f"lock={self.lock_id})")


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
# Encoded records and the event queue
# ---------------------------------------------------------------------------

def encode_event(event: Event) -> Tuple:
    """The encoded-record form of an :class:`Event`."""
    return (TYPE_TO_CODE[event.type], event.thread_id, event.lock_id,
            event.stack, event.causes, event.timestamp, event.mode,
            event.capacity)


def decode_event(record: Tuple) -> Event:
    """Rebuild the :class:`Event` dataclass from an encoded record."""
    code, thread_id, lock_id, stack, causes, timestamp, mode, capacity = record
    return Event(CODE_TO_TYPE[code], thread_id, lock_id, stack, causes,
                 timestamp, mode, capacity)


#: Default share of the queue's bound per producing thread.  Generous on
#: purpose: with a running monitor the per-pass backlog is tiny, and the
#: bound only matters when nothing drains the bus (overhead harnesses,
#: engines without monitors).
DEFAULT_RING_CAPACITY = 65536


class _Ring:
    """One producing thread's count columns.

    ``counts`` holds the thread's records per event code, dropped ones
    included, then one column per engine counter (:data:`COUNTER_NAMES`);
    ``dropped`` the records the full queue refused it.  Both are written
    by the owning thread alone, so neither needs a lock.

    ``owner`` is a weak reference to the producing
    :class:`threading.Thread`; a drain retires the ring once its thread
    has ended and its records are popped, so a server churning short-lived
    threads does not pile up rings (and a recycled ``threading.get_ident``
    can never adopt a dead thread's ring, because rings are reached
    through ``threading.local`` and never keyed by ident).
    """

    __slots__ = ("counts", "dropped", "owner")

    def __init__(self):
        self.counts = [0] * RING_COLUMNS
        self.dropped = 0
        self.owner = weakref.ref(threading.current_thread())

    def owner_alive(self) -> bool:
        """Can this ring's thread still write?  Not once its thread is gone or has ended."""
        thread = self.owner()
        return thread is not None and thread.is_alive()


class EventBus:
    """One bounded queue of encoded events, drained in append order.

    Producers call :meth:`emit` (or :meth:`put` with a prebuilt
    :class:`Event`); the single consumer — the monitor — calls
    :meth:`drain_raw` for encoded records or :meth:`drain` for decoded
    :class:`Event` objects.  Every record goes to one ``deque``: producers
    append at its right end, the consumer pops at its left, each one
    atomic on GIL and free-threaded builds alike, so the records drain
    exactly in the order they were appended.

    The queue holds at most ``ring_capacity`` records per producing thread
    (a thread that has emitted or bumped and not yet retired); past that
    :meth:`emit` drops the newest record and counts the drop.  Each thread
    counts on its own ring of columns, reached through ``threading.local``
    (never keyed by the event's ``thread_id``: a semaphore release may be
    recorded on behalf of another holder).

    **Single consumer.**  :meth:`drain_raw` and :meth:`drain` must only
    ever be called by one thread at a time (the monitor serializes on its
    own mutex).  Nothing empties a bus in place: a trial that wants clean
    state builds a new engine (:meth:`~repro.core.dimmunix.Dimmunix.fork`).
    """

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY):
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        self._capacity = ring_capacity
        #: The records, oldest first.
        self._queue: deque = deque()
        #: Records the queue may hold: ``ring_capacity`` per live ring.
        self._bound = 0
        #: The live rings.  Added by their threads, retired by the consumer
        #: once their thread has ended, both under ``_mutex``.
        self._rings: set = set()
        self._mutex = threading.Lock()  # guards _rings, _bound and _high_water
        self._local = threading.local()
        self._high_water = 0
        self._retired_dropped = 0
        self._retired_counts = [0] * RING_COLUMNS
        self._total_drained = 0

    def _new_ring(self) -> _Ring:
        ring = _Ring()
        with self._mutex:
            self._rings.add(ring)
            self._bound += self._capacity
        self._local.ring = ring
        return ring

    # -- producer side ------------------------------------------------------------------

    def emit(self, code: int, thread_id: int, lock_id: Optional[int],
             stack: CallStack = EMPTY_STACK, causes: Tuple = (),
             timestamp: float = 0.0, mode: str = EXCLUSIVE,
             capacity: int = 1) -> bool:
        """Append one encoded record to the queue.

        Returns ``False`` (and counts a drop) when the queue is full; the
        caller never blocks, mirroring the paper's lock-free enqueue.
        """
        try:
            ring = self._local.ring
        except AttributeError:  # the thread's first emit or bump
            ring = self._new_ring()
        # Counted first: a dropped record is still an operation made (the
        # engine's counters are these counts), and a reader can see a count
        # whose record is not appended yet, never a record not yet counted.
        ring.counts[code] += 1
        queue = self._queue
        if len(queue) >= self._bound:
            ring.dropped += 1
            return False
        queue.append((code, thread_id, lock_id, stack, causes, timestamp,
                      mode, capacity))
        return True

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (:data:`COUNTER_NAMES`) on the calling thread's ring."""
        try:
            ring = self._local.ring
        except AttributeError:  # the thread's first emit or bump
            ring = self._new_ring()
        ring.counts[COUNTER_COLUMNS[name]] += amount

    def put(self, event: Event) -> bool:
        """Enqueue a prebuilt :class:`Event`."""
        return self.emit(TYPE_TO_CODE[event.type], event.thread_id,
                         event.lock_id, event.stack, event.causes,
                         event.timestamp, event.mode, event.capacity)

    # -- consumer side ------------------------------------------------------------------

    def drain_raw(self, limit: Optional[int] = None) -> List[Tuple]:
        """Remove and return up to ``limit`` encoded records, oldest first.

        Exactly the records appended by now (or the oldest ``limit`` of
        them), each popped by one C call: producers append at the other
        end meanwhile, and what they append after the backlog is read
        waits for the next call.  A drain that pops the whole backlog then
        retires the rings of the threads it saw ended, folding their
        columns into the bus's retired totals so ``dropped`` and
        :meth:`totals` stay monotone.
        """
        queue = self._queue
        with self._mutex:
            # Ended first, backlog second: an ended thread has appended all
            # it ever will, so the backlog read after holds its every record,
            # and its share of the bound stays until they are popped.
            ended = [ring for ring in self._rings if not ring.owner_alive()]
            backlog = len(queue)
            if backlog > self._high_water:
                self._high_water = backlog
        count = backlog if limit is None else min(limit, backlog)
        records = list(itertools.starmap(queue.popleft, itertools.repeat((), count)))
        self._total_drained += count
        if ended and count == backlog:
            with self._mutex:
                for ring in ended:
                    self._rings.discard(ring)
                    self._bound -= self._capacity
                    self._retired_dropped += ring.dropped
                    self._retired_counts = list(map(operator.add, self._retired_counts,
                                                    ring.counts))
        return records

    def drain(self, limit: Optional[int] = None) -> List[Event]:
        """Remove and return decoded :class:`Event` objects, oldest first."""
        return [decode_event(record) for record in self.drain_raw(limit)]

    # -- introspection -----------------------------------------------------------------

    def peek_size(self) -> int:
        """Number of appended-but-undrained records.

        Read without stopping producers, so the value can lag appends.
        The envelope ``peek_size() <= total_enqueued - total_drained``
        holds when the consumer thread reads ``peek_size()`` *before*
        ``total_enqueued`` (each record is counted before it is appended),
        with equality once producers are quiescent.
        """
        return len(self._queue)

    def __len__(self) -> int:
        return self.peek_size()

    def __bool__(self) -> bool:
        return self.peek_size() > 0

    @property
    def ring_capacity(self) -> int:
        """Each producing thread's share of the queue's bound."""
        return self._capacity

    @property
    def ring_count(self) -> int:
        """Number of live (unretired) producer rings."""
        with self._mutex:
            return len(self._rings)

    @property
    def dropped(self) -> int:
        """Records rejected because the queue was full (monotone, lifetime)."""
        with self._mutex:
            return self._retired_dropped + sum(ring.dropped for ring in self._rings)

    @property
    def high_water_mark(self) -> int:
        """The largest backlog seen, read at each drain and at each read of this mark."""
        with self._mutex:
            self._high_water = max(self._high_water, len(self._queue))
            return self._high_water

    def totals(self, columns: Iterable[int]) -> List[int]:
        """The lifetime count of each of ``columns``, summed over every ring."""
        with self._mutex:  # each ring is counted once: live, or retired
            rings = [self._retired_counts] + [ring.counts for ring in self._rings]
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
    def total_drained(self) -> int:
        """Records handed to the consumer over the bus's lifetime."""
        return self._total_drained
