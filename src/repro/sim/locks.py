"""Simulated synchronization resources.

Every simulated resource decides its grants with the shipped
:class:`~repro.core.runtime_api.HoldLedger`, so the explorer proves the
rule users run.  What this module adds is what only the scheduler needs:
an id, a name, and the FIFO queue of threads blocked on the resource.
A :class:`SimLock` holds a capacity-less ledger: EXCLUSIVE holds make it a
reentrant mutex and SHARED holds a reader-writer lock (a sole reader may
upgrade; two concurrent upgraders deadlock, which is exactly the
``rwlock-upgrade-inversion`` scenario), so :data:`SimRWLock` is another
name for it.  A :class:`SimSemaphore` is an N-permit pool: a thread may
hold several permits at once, which is what makes permit-exhaustion
deadlocks possible.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Optional

from ..core.runtime_api import HoldLedger

_LOCK_IDS = itertools.count(1)


class SimLock:
    """A virtual reentrant mutex or reader-writer lock managed by the scheduler."""

    #: Number of exclusive permits (reported to the avoidance backend).
    capacity = 1

    def __init__(self, name: Optional[str] = None):
        self.lock_id = next(_LOCK_IDS)
        self.name = name or f"simlock-{self.lock_id}"
        #: Who holds the resource, and what may be granted next.
        self.ledger = HoldLedger()
        #: Thread ids blocked waiting for the resource, FIFO.
        self.waiters: Deque[int] = deque()


#: SHARED holds of a :class:`SimLock` coexist: it is the reader-writer lock.
SimRWLock = SimLock


class SimSemaphore(SimLock):
    """A virtual counting semaphore: a pool of ``capacity`` permits."""

    def __init__(self, capacity: int, name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("SimSemaphore capacity must be >= 1")
        super().__init__(name=name)
        self.capacity = capacity
        self.ledger = HoldLedger(capacity)
