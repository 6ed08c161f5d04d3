"""Per-thread runtime support for the real-thread instrumentation.

Responsibilities:

* assign stable small integer ids to Python threads and lock objects,
* park and wake threads that received a YIELD decision (the paper uses a
  per-thread ``yieldLock[T]`` object and ``wait``/``notifyAll``; we use a
  per-thread :class:`threading.Event` plugged into the shared
  :class:`~repro.core.runtime_api.RuntimeCore` as its parker).

The process-wide default runtime that ``DimmunixLock()`` without a
``runtime=`` binds to lives in :mod:`.patching`, beside its asyncio twin.

The engine itself is driven exclusively through the
:class:`~repro.core.runtime_api.RuntimeCore` protocol — the same layer the
deterministic simulator uses — so the two runtimes share one copy of the
engine-driving glue.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional

from ..core.dimmunix import Dimmunix
from ..core.runtime_api import LockRuntime, ThreadParker


class _DeathToken:
    """Sentinel stored in a thread's local storage; collected on thread death.

    CPython drops a thread's ``threading.local`` dictionary when the thread
    terminates, which finalizes this token and fires the callback — giving
    the runtime automatic per-thread cleanup (engine slots, wake events,
    wakers) without the application having to call anything.
    """

    __slots__ = ("thread_id", "callback")

    def __init__(self, thread_id: int, callback):
        self.thread_id = thread_id
        self.callback = callback

    def __del__(self):
        try:
            self.callback(self.thread_id)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class ThreadRegistry:
    """Assigns stable small integer ids to live Python threads."""

    def __init__(self, on_thread_death=None):
        self._local = threading.local()
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._names: Dict[int, str] = {}
        self._on_thread_death = on_thread_death

    def current_thread_id(self) -> int:
        """The stable id of the calling thread (allocated on first use)."""
        try:
            return self._local.thread_id
        except AttributeError:  # the thread's first lock operation
            with self._lock:
                ident = next(self._counter)
                self._names[ident] = threading.current_thread().name
            self._local.thread_id = ident
            if self._on_thread_death is not None:
                self._local.death_token = _DeathToken(ident, self._on_thread_death)
            return ident

    def name_of(self, thread_id: int) -> Optional[str]:
        """The Python thread name recorded for ``thread_id``."""
        return self._names.get(thread_id)

    def known_threads(self) -> Dict[int, str]:
        """Mapping of all ids ever assigned to their thread names."""
        with self._lock:
            return dict(self._names)


class YieldManager(ThreadParker):
    """Parks and wakes threads that received a YIELD decision.

    Implements the :class:`~repro.core.runtime_api.ThreadParker` protocol
    on top of per-thread :class:`threading.Event` objects.
    """

    def __init__(self, dimmunix: Dimmunix):
        self._dimmunix = dimmunix
        self._events: Dict[int, threading.Event] = {}
        self._lock = threading.Lock()

    def event_for(self, thread_id: int) -> threading.Event:
        """The (lazily created) wake event for ``thread_id``.

        The event's ``set`` method is registered as the thread's waker with
        the Dimmunix facade, so both lock releases and the monitor's
        starvation breaking can un-park the thread.
        """
        event = self._events.get(thread_id)
        if event is None:
            with self._lock:
                event = self._events.get(thread_id)
                if event is None:
                    event = threading.Event()
                    self._events[thread_id] = event
                    self._dimmunix.register_waker(thread_id, event.set)
        return event

    def prepare(self, thread_id: int) -> threading.Event:
        """Reset and return the wake event, to be called *before* ``request``.

        Clearing before the request closes the classic lost-wakeup window:
        any wake triggered by state changes after the request will set the
        event even if the thread has not started waiting yet.  The event is
        pooled — one per thread slot for the thread's lifetime — and on the
        GO fast path it was never set, so the usual call is a flag check
        with no lock taken (``Event.clear`` acquires the event's internal
        condition lock; ``is_set`` does not).
        """
        event = self.event_for(thread_id)
        # Audited for free-threaded builds: the is_set/clear pair is not
        # atomic, so a wake arriving between the two calls is eaten by the
        # clear.  That wake is necessarily *stale* — prepare() runs before
        # the request is published, so nothing can be legitimately waking
        # this thread yet; wakes for the upcoming park are only triggered
        # by state changes after the request, and those set() calls land
        # after this clear.  No lost-wakeup is possible.
        if event.is_set():
            event.clear()
        return event

    def park(self, thread_id: int, timeout: Optional[float]) -> bool:
        """Park the calling thread until woken or until ``timeout`` expires."""
        return self.event_for(thread_id).wait(timeout)

    def forget(self, thread_id: int) -> None:
        """Drop the wake event of a terminated thread."""
        with self._lock:
            self._events.pop(thread_id, None)
        self._dimmunix.unregister_waker(thread_id)


class InstrumentationRuntime(LockRuntime):
    """Bundles a Dimmunix instance with the thread registry and runtime core."""

    def __init__(self, dimmunix: Dimmunix):
        self.yields = YieldManager(dimmunix)
        super().__init__(dimmunix, self.yields)
        # Terminated threads drop their engine slots, wake events, and
        # wakers automatically (see _DeathToken), so servers with
        # short-lived threads do not accumulate per-thread state.
        self.threads = ThreadRegistry(on_thread_death=self.core.forget_thread)
        #: Stable id of the calling thread: asked twice per lock operation,
        #: so the registry's own method, not a forwarding frame.
        self.current_id = self.current_thread_id = self.threads.current_thread_id

    def _unit_name(self) -> str:
        return threading.current_thread().name
