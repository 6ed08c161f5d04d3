"""Simulated synchronization resources.

A :class:`SimLock` is a reentrant mutex that exists purely inside the
simulator: ownership and wait queues are managed by the scheduler, and the
avoidance backend is informed of every transition exactly as the real
instrumentation informs the engine.  :class:`SimSemaphore` (an N-permit
pool) and :class:`SimRWLock` (shared readers / exclusive writer) extend
the same protocol with capacity-aware grant rules; the scheduler talks to
all three through ``can_grant`` / ``grant`` / ``release``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.signature import EXCLUSIVE, SHARED

_LOCK_IDS = itertools.count(1)


class SimLock:
    """A virtual mutex managed by the simulation scheduler."""

    #: Number of exclusive permits (reported to the avoidance backend).
    capacity = 1

    def __init__(self, name: Optional[str] = None):
        self.lock_id = next(_LOCK_IDS)
        self.name = name or f"simlock-{self.lock_id}"
        self.owner: Optional[int] = None
        self.count = 0
        #: Thread ids blocked waiting for the lock, FIFO.
        self.waiters: Deque[int] = deque()

    # -- state transitions (called by the scheduler only) -----------------------------

    def can_grant(self, thread_id: int, mode: str = EXCLUSIVE) -> bool:
        """Would a grant to ``thread_id`` succeed right now?"""
        return self.owner is None or self.owner == thread_id

    def grant(self, thread_id: int, mode: str = EXCLUSIVE) -> None:
        """Give (or re-give, reentrantly) the lock to ``thread_id``."""
        if self.owner is not None and self.owner != thread_id:
            raise RuntimeError(
                f"{self.name}: cannot grant to {thread_id}, owned by {self.owner}")
        self.owner = thread_id
        self.count += 1

    def release(self, thread_id: int) -> bool:
        """Release one level of the lock; returns True when fully released."""
        if self.owner != thread_id or self.count == 0:
            raise RuntimeError(
                f"{self.name}: thread {thread_id} does not hold the lock")
        self.count -= 1
        if self.count == 0:
            self.owner = None
            return True
        return False

    def enqueue_waiter(self, thread_id: int) -> None:
        """Add a blocked thread to the FIFO wait queue."""
        if thread_id not in self.waiters:
            self.waiters.append(thread_id)

    def pop_waiter(self) -> Optional[int]:
        """Remove and return the next blocked thread, if any."""
        if self.waiters:
            return self.waiters.popleft()
        return None

    @property
    def available(self) -> bool:
        """True when no thread currently owns the lock."""
        return self.owner is None

    def held_by(self, thread_id: int) -> bool:
        """True when ``thread_id`` currently owns the lock."""
        return self.owner == thread_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimLock {self.name} owner={self.owner} count={self.count} "
                f"waiters={list(self.waiters)}>")


class SimSemaphore(SimLock):
    """A virtual counting semaphore: a pool of ``capacity`` permits.

    A thread may hold several permits at once (that is what makes
    permit-exhaustion deadlocks possible); each ``grant`` consumes one
    permit and each ``release`` returns the releasing thread's most
    recent one.
    """

    def __init__(self, capacity: int, name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("SimSemaphore capacity must be >= 1")
        super().__init__(name=name)
        self.capacity = capacity
        #: thread id -> number of permits held.
        self.permits: Dict[int, int] = {}

    def can_grant(self, thread_id: int, mode: str = EXCLUSIVE) -> bool:
        return sum(self.permits.values()) < self.capacity

    def grant(self, thread_id: int, mode: str = EXCLUSIVE) -> None:
        if not self.can_grant(thread_id, mode):
            raise RuntimeError(f"{self.name}: no free permit for {thread_id}")
        self.permits[thread_id] = self.permits.get(thread_id, 0) + 1

    def release(self, thread_id: int) -> bool:
        held = self.permits.get(thread_id, 0)
        if held == 0:
            raise RuntimeError(
                f"{self.name}: thread {thread_id} holds no permit")
        if held == 1:
            del self.permits[thread_id]
        else:
            self.permits[thread_id] = held - 1
        # A permit came free: a hand-over check is always warranted.
        return True

    @property
    def available(self) -> bool:
        return sum(self.permits.values()) < self.capacity

    def held_by(self, thread_id: int) -> bool:
        return self.permits.get(thread_id, 0) > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimSemaphore {self.name} permits={dict(self.permits)} "
                f"capacity={self.capacity} waiters={list(self.waiters)}>")


class SimRWLock(SimLock):
    """A virtual reader-writer lock.

    SHARED grants coexist with each other; an EXCLUSIVE grant requires no
    *other* thread to hold anything (a sole reader may upgrade — two
    concurrent upgraders deadlock, which is exactly the
    ``rwlock-upgrade-inversion`` scenario).  Per-thread holds are a LIFO
    stack of modes so upgrade acquisitions unwind in order.
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        #: thread id -> LIFO stack of hold modes.
        self.holds: Dict[int, List[str]] = {}

    def can_grant(self, thread_id: int, mode: str = EXCLUSIVE) -> bool:
        if mode == SHARED:
            return all(EXCLUSIVE not in modes
                       for tid, modes in self.holds.items()
                       if tid != thread_id)
        return all(tid == thread_id for tid in self.holds)

    def grant(self, thread_id: int, mode: str = EXCLUSIVE) -> None:
        if not self.can_grant(thread_id, mode):
            raise RuntimeError(
                f"{self.name}: cannot grant {mode} to {thread_id}, "
                f"held by {list(self.holds)}")
        self.holds.setdefault(thread_id, []).append(mode)

    def release(self, thread_id: int) -> bool:
        modes = self.holds.get(thread_id)
        if not modes:
            raise RuntimeError(
                f"{self.name}: thread {thread_id} does not hold the rwlock")
        modes.pop()
        if not modes:
            del self.holds[thread_id]
        # Readers leaving or a writer unwinding can unblock waiters.
        return True

    @property
    def available(self) -> bool:
        return not self.holds

    def held_by(self, thread_id: int) -> bool:
        return bool(self.holds.get(thread_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimRWLock {self.name} holds={dict(self.holds)} "
                f"waiters={list(self.waiters)}>")
