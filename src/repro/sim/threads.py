"""Threaded programs on the deterministic simulator.

A *thread program* is a plain synchronous callable — real application
code such as :mod:`repro.apps` — run on its own OS thread.  Each of its
lock operations is handed to the scheduler as an
:class:`~repro.sim.actions.Acquire`, :class:`~repro.sim.actions.TryAcquire`
or :class:`~repro.sim.actions.Release` action through a baton of two
semaphores, as a generator program yields one, so exactly one thread runs
at a time and the code between two lock operations runs inside the step
before them (``SimScheduler._prefetch``).  The explorer, DPOR, replay,
shrinking and the ImmunityChecker drive these programs unchanged.

An application gets :class:`ThreadLock` objects by overriding its lock
factories (``make_lock``/``make_rlock``) to call :meth:`ThreadPrograms.lock`
and :meth:`ThreadPrograms.rlock`.  Stacks are captured from the real
application frames; this module's frames are dropped as internal.

What the model leaves out: a timed acquire is a blocking one (a stall
stands for the wait that would time out), and lock operations made before
the programs start — set-up, on the caller's thread — take nothing, as
nothing can contend for them yet.  DPOR's reduction is sound on these
programs because the applications keep their shared state behind their
locks: the code between two lock operations touches only state a held
lock protects, so steps on different locks commute.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from ..core.callstack import CallStack
from ..core.errors import SimulationError
from .actions import Acquire, Release, TryAcquire
from .locks import SimLock, SimSemaphore
from .scheduler import SimScheduler, SimThread


class ProgramAborted(BaseException):
    """Raised from the pending lock operation of a program whose run ended:
    a ``BaseException``, so the application's ``except Exception`` lets it
    through and the thread unwinds to its end."""


class _Baton:
    """Two semaphores passing control between the scheduler and one thread."""

    def __init__(self):
        self.to_thread = threading.Semaphore(0)
        self.to_scheduler = threading.Semaphore(0)
        #: The action handed to the scheduler, or the result handed back.
        self.message = None
        self.aborted = False
        self.error: Optional[Exception] = None

    def hand_over(self, result):
        """Scheduler side: resume the thread with ``result``; its next
        action comes back, ``None`` once it has ended."""
        self.message = result
        self.to_thread.release()
        self.to_scheduler.acquire()
        return self.message

    def perform(self, action):
        """Thread side: hand ``action`` to the scheduler; its result comes back."""
        if not self.aborted:
            self.message = action
            self.to_scheduler.release()
            self.to_thread.acquire()
        if self.aborted:
            raise ProgramAborted
        return self.message


class ThreadLock:
    """A ``threading.Lock``-shaped lock whose operations are scheduler actions."""

    def __init__(self, programs: "ThreadPrograms", lock: SimLock):
        self._programs = programs
        self.lock = lock
        self.name = lock.name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        baton = self._programs.running.get(threading.get_ident())
        if baton is None:
            return True
        stack = CallStack.capture_cached(
            skip=0, limit=self._programs.scheduler.backend.config.max_stack_depth)
        if not blocking:
            return baton.perform(TryAcquire(self.lock, stack))
        baton.perform(Acquire(self.lock, stack))
        return True

    def release(self) -> None:
        baton = self._programs.running.get(threading.get_ident())
        if baton is not None:
            baton.perform(Release(self.lock))


class ThreadPrograms:
    """The thread programs of one scheduler and the locks they share."""

    def __init__(self, scheduler: SimScheduler):
        self.scheduler = scheduler
        #: OS thread ident -> the baton of the program running on it.
        self.running: Dict[int, _Baton] = {}

    def lock(self, name: Optional[str] = None) -> ThreadLock:
        """A non-reentrant lock (``threading.Lock``): one permit, so an owner
        acquiring it again waits on itself."""
        return ThreadLock(self, self.scheduler.register_lock(SimSemaphore(1, name)))

    def rlock(self, name: Optional[str] = None) -> ThreadLock:
        """A reentrant lock (``threading.RLock``)."""
        return ThreadLock(self, self.scheduler.new_lock(name))

    def add(self, body: Callable[[], None], name: Optional[str] = None) -> SimThread:
        """Register ``body`` as a thread of the scheduler."""
        thread = self.scheduler.add_thread(lambda: self._program(body), name=name)
        thread.close_at_end = True
        return thread

    def _program(self, body: Callable[[], None]):
        """The generator the scheduler drives: ``body`` on its own thread,
        holding the baton from one lock operation to the next.  Closed
        early, it aborts the thread and joins it."""
        baton = _Baton()
        thread = threading.Thread(target=self._run, args=(body, baton), daemon=True)
        thread.start()
        ended = False
        try:
            action = baton.hand_over(None)
            while action is not None:
                action = baton.hand_over((yield action))
            ended = True
        finally:
            if not ended:
                baton.aborted = True
                baton.to_thread.release()
            thread.join()
        if baton.error is not None:
            raise SimulationError(f"thread program raised {baton.error!r}") from baton.error

    def _run(self, body: Callable[[], None], baton: _Baton) -> None:
        ident = threading.get_ident()
        self.running[ident] = baton
        try:
            baton.to_thread.acquire()
            body()
        except ProgramAborted:
            pass
        except Exception as error:  # raised again on the scheduler's side
            baton.error = error
        finally:
            del self.running[ident]
            baton.message = None
            baton.to_scheduler.release()
