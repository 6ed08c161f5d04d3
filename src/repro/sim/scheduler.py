"""The deterministic, virtual-time simulation scheduler.

Simulated threads are generators yielding :mod:`repro.sim.actions`
objects.  The scheduler executes them cooperatively, advances a virtual
clock, manages simulated locks, and invokes the backend's monitor hook
periodically and at quiescence — mirroring how the real instrumentation,
locks, and monitor thread interact.  Each ``Acquire``/``TryAcquire`` runs
the shipped protocol, :func:`~repro.core.runtime_api.acquisition`, against
the backend (a :class:`~repro.core.runtime_api.RuntimeCore`): the
scheduler is its third driver (see :meth:`SimScheduler._advance`).

Scheduling choices — which runnable thread goes next when several are
ready at the earliest virtual time — are delegated to a pluggable
:class:`~repro.sim.schedule.SchedulePolicy` (seeded random by default),
and every choice taken is recorded in ``SimResult.schedule`` as the slot
of the chosen thread.  Given the same programs, policy, and backend, a
run is fully deterministic; re-driving a recorded schedule with a
:class:`~repro.sim.schedule.ReplayPolicy` reproduces it step-for-step.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional

from ..core.errors import SimDeadlockError, SimulationError
from ..core.avoidance import TAKEN_OUTCOME
from ..core.runtime_api import PARK, acquisition
from ..util.clock import VirtualClock
from .actions import Acquire, Compute, Log, Release, TryAcquire
from .backends import NullBackend, SchedulerBackend
from .locks import SimLock
from .result import SimResult, StallRecord
from .schedule import RandomPolicy, SchedulePolicy, ScheduleTrace

#: Steps between two calls of the backend's monitor hook (``poll``).
POLL_INTERVAL = 25
#: Steps after which a run that has not finished raises ``SimulationError``.
MAX_STEPS = 2_000_000


class ThreadState(Enum):
    """Lifecycle states of a simulated thread."""

    READY = "ready"
    BLOCKED = "blocked"      # waiting for a busy lock (GO was given)
    YIELDING = "yielding"    # parked by an avoidance decision
    FINISHED = "finished"
    ABORTED = "aborted"      # stopped by the scheduler after a stall


class SimThread:
    """One simulated thread: a generator plus scheduling metadata."""

    _ids = itertools.count(1)

    def __init__(self, program: Callable[[], Iterable], name: Optional[str] = None,
                 thread_id: Optional[int] = None):
        self.thread_id = thread_id if thread_id is not None else next(SimThread._ids)
        self.name = name or f"simthread-{self.thread_id}"
        self._program_factory = program
        self._generator = None
        self.state = ThreadState.READY
        self.ready_at = 0.0
        self.pending = None            # Acquire/TryAcquire not yet settled
        self.acquisition = None        # its acquisition() generator
        self.park_until = None         # virtual end of a bounded PARK
        self.last_result = None        # value sent into the generator
        self._peeked = None            # action fetched by peek_action, not yet run
        self._peeked_valid = False
        self.held: Dict[int, int] = {}  # lock_id -> reentrancy count
        self.lock_ops = 0
        self.yields = 0
        self.blocks = 0
        #: Close the program when a run ends with it unfinished.  Set for
        #: thread programs (:mod:`repro.sim.threads`), whose OS thread must
        #: not outlive the run; a coroutine stalled inside ``async with``
        #: cannot be closed, as its ``__aexit__`` would yield a Release.
        self.close_at_end = False

    def start(self) -> None:
        """Instantiate the generator (called by the scheduler)."""
        self._generator = self._program_factory()
        if not hasattr(self._generator, "send"):
            raise SimulationError(
                f"{self.name}: program factory must return a generator")

    def peek_action(self):
        """Fetch the upcoming action without consuming it.

        A retried action (``pending``) is the upcoming action; otherwise
        the generator is advanced once and the result cached for the next
        :meth:`next_action`.  Returns ``None`` when the program is done —
        the FINISHED transition is deferred to consumption so peeking
        never mutates scheduling state.

        The scheduler prefetches eagerly after every step (see
        ``SimScheduler._prefetch``), so by the time a policy inspects a
        candidate this is a cache hit: program code between yields has
        already run as part of the thread's *preceding* step, under every
        policy alike.  That makes inter-yield side effects a pure
        function of the schedule — exploration and strict replay of the
        same trace observe identical states.
        """
        if self.pending is not None:
            return self.pending
        if self._peeked_valid:
            return self._peeked
        try:
            action = self._generator.send(self.last_result)
        except StopIteration:
            action = None
        self.last_result = None
        self._peeked = action
        self._peeked_valid = True
        return action

    def next_action(self):
        """Advance the generator and return its next action (or None when done)."""
        if self._peeked_valid:
            action = self._peeked
            self._peeked = None
            self._peeked_valid = False
            if action is None:
                self.state = ThreadState.FINISHED
            return action
        try:
            action = self._generator.send(self.last_result)
        except StopIteration:
            self.state = ThreadState.FINISHED
            return None
        self.last_result = None
        return action

    @property
    def finished(self) -> bool:
        return self.state in (ThreadState.FINISHED, ThreadState.ABORTED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name} {self.state.value}>"


class SimScheduler:
    """Cooperative virtual-time scheduler with pluggable backend and policy."""

    def __init__(self, backend: Optional[SchedulerBackend] = None,
                 seed: int = 0,
                 policy: Optional[SchedulePolicy] = None):
        self.backend = backend if backend is not None else NullBackend()
        self.clock = VirtualClock()
        self.clock_listeners: List[Callable[[float], None]] = []
        #: Scheduling strategy; defaults to the historical seeded-random pick.
        self.policy = policy if policy is not None else RandomPolicy(seed)
        self.threads: Dict[int, SimThread] = {}
        self.locks: Dict[int, SimLock] = {}
        #: thread id -> slot (registration index); slots are what schedule
        #: traces record, because thread ids are process-global.
        self._slots: Dict[int, int] = {}
        #: lock id -> slot; used to compare stalls across runs, since lock
        #: ids are process-global too.
        self._lock_slots: Dict[int, int] = {}
        self.result = SimResult()
        self._attached = False

    # -- construction -------------------------------------------------------------------

    def add_thread(self, program: Callable[[], Iterable],
                   name: Optional[str] = None) -> SimThread:
        """Register a simulated thread; ``program`` is a generator factory."""
        thread = SimThread(program, name=name)
        self._slots[thread.thread_id] = len(self.threads)
        self.threads[thread.thread_id] = thread
        if self._attached:
            self.backend.on_thread_added(thread.thread_id)
        return thread

    def new_lock(self, name: Optional[str] = None) -> SimLock:
        """Create a lock owned by this scheduler."""
        return self.register_lock(SimLock(name=name))

    def register_lock(self, lock: SimLock) -> SimLock:
        """Register an externally created lock (e.g. shared across runs)."""
        if lock.lock_id not in self._lock_slots:
            self._lock_slots[lock.lock_id] = len(self._lock_slots)
        self.locks[lock.lock_id] = lock
        return lock

    def thread_ids(self) -> List[int]:
        """Identifiers of all registered threads."""
        return list(self.threads)

    def slot_of(self, thread_id: int) -> int:
        """Registration index of a thread (stable across processes)."""
        return self._slots[thread_id]

    def lock_slot_of(self, lock_id: int) -> int:
        """Registration index of a lock (stable across runs/processes)."""
        return self._lock_slots[lock_id]

    def trace(self, **meta) -> ScheduleTrace:
        """The schedule of the last/current run as a serializable trace."""
        return ScheduleTrace(list(self.result.schedule), meta=meta)

    # -- queries used by backends -----------------------------------------------------------

    def runnable_count(self) -> int:
        """Number of threads currently in the READY state."""
        return sum(1 for t in self.threads.values() if t.state is ThreadState.READY)

    def wake_thread(self, thread_id: int) -> None:
        """Un-park a yielding thread (called through the backend's wakers)."""
        thread = self.threads.get(thread_id)
        if thread is not None and thread.state is ThreadState.YIELDING:
            thread.state = ThreadState.READY
            thread.park_until = None
            thread.ready_at = self.clock.now()

    # -- main loop -------------------------------------------------------------------------------

    def run(self, raise_on_deadlock: bool = False) -> SimResult:
        """Execute until every thread finishes, a stall occurs, or limits hit.

        However it ends, every unsettled acquisition is closed, which
        cancels its request here rather than in the garbage collector, and
        so is every unfinished program marked :attr:`SimThread.close_at_end`:
        a thread program's OS thread never outlives its run.
        """
        if not self._attached:
            self.backend.attach(self)
            self._attached = True
        try:
            for thread in self.threads.values():
                if thread._generator is None:
                    thread.start()
                self._prefetch(thread)
            self.result.total_threads = len(self.threads)
            self._loop(raise_on_deadlock)
        finally:
            for thread in self.threads.values():
                if thread.acquisition is not None:
                    thread.acquisition.close()
                    thread.acquisition = None
                if thread.close_at_end and thread._generator is not None:
                    thread._generator.close()
        # Final monitor pass so late events (e.g. releases) are processed.
        self.backend.poll(self)
        self._finalize()
        return self.result

    def _loop(self, raise_on_deadlock: bool) -> None:
        steps = 0
        while True:
            if all(thread.finished for thread in self.threads.values()):
                return
            # A bounded PARK is runnable at its bound: it resumes unwoken.
            runnable = [t for t in self.threads.values()
                        if t.state is ThreadState.READY or t.park_until is not None]
            if not runnable:
                if self.backend.on_quiescence(self):
                    continue
                self._declare_stall()
                if raise_on_deadlock:
                    raise SimDeadlockError("simulation stalled in a deadlock",
                                           cycle=self.result.stall)
                return
            thread = self._pick(runnable)
            self._advance_clock(thread.ready_at)
            self._step(thread)
            self._prefetch(thread)
            steps += 1
            self.result.steps = steps
            if steps % POLL_INTERVAL == 0:
                self.backend.poll(self)
            if steps >= MAX_STEPS:
                raise SimulationError(
                    f"simulation exceeded {MAX_STEPS} steps without finishing")

    # -- internals ------------------------------------------------------------------------------

    def _pick(self, runnable: List[SimThread]) -> SimThread:
        earliest = min(thread.ready_at for thread in runnable)
        candidates = [t for t in runnable if t.ready_at <= earliest + 1e-12]
        if len(candidates) == 1:
            return candidates[0]
        candidates.sort(key=lambda t: self._slots[t.thread_id])
        chosen = self.policy.choose(candidates, self)
        if chosen not in candidates:
            raise SimulationError(
                f"policy {self.policy.name!r} chose a non-candidate thread")
        self.result.schedule.append(self._slots[chosen.thread_id])
        return chosen

    def _advance_clock(self, timestamp: float) -> None:
        self.clock.advance_to(timestamp)
        for listener in self.clock_listeners:
            listener(self.clock.now())

    def _prefetch(self, thread: SimThread) -> None:
        """Advance the thread's generator up to its next yield right away.

        This pins down *when* program code between yields runs: as part
        of the step that just completed (or, for a thread unblocked by a
        lock hand-over, the releaser's step).  Every schedule policy —
        random, DFS exploration, replay — therefore sees side effects at
        identical points, and policies may inspect
        :meth:`SimThread.peek_action` without perturbing the program.
        """
        if not thread.finished and thread.pending is None:
            thread.peek_action()

    def _step(self, thread: SimThread) -> None:
        action = thread.pending if thread.pending is not None else thread.next_action()
        self.policy.observe(self, thread, action)
        if action is None:
            return
        if isinstance(action, Compute):
            thread.ready_at = self.clock.now() + max(0.0, action.duration)
        elif isinstance(action, Log):
            self.result.log.append(f"[{self.clock.now():.6f}] {thread.name}: "
                                   f"{action.message}")
        elif isinstance(action, (Acquire, TryAcquire)):
            # Request, taking the resource if granted and free, and run the
            # protocol from the outcome if not; or resume it from a PARK with
            # whether it was woken (unwoken: its virtual bound passed).
            woken, refused = None, False
            if thread.acquisition is None:
                lock, stack = action.lock, action.stack()
                take = lambda tid, mode: lock.can_grant(tid, mode) and self._grant(thread, lock, mode)
                outcome = self.backend.request(thread.thread_id, lock.lock_id, stack,
                                               action.mode, lock.capacity, take)
                if outcome is TAKEN_OUTCOME:
                    thread.last_result = True
                    return
                thread.pending, refused = action, outcome.is_yield
                thread.acquisition = acquisition(
                    self.backend, thread.thread_id, lock.lock_id, stack, action.mode,
                    lock.capacity, isinstance(action, Acquire), None, None, outcome, take)
            else:
                woken = thread.park_until is None
                thread.state, thread.park_until = ThreadState.READY, None
            self._advance(thread, woken, refused)
            return
        elif isinstance(action, Release):
            self._do_release(thread, action)
        else:
            raise SimulationError(f"{thread.name} yielded unknown action {action!r}")
        thread.pending = None

    def _advance(self, thread: SimThread, sent, refused: bool = False) -> None:
        """Send ``sent`` into the thread's acquisition and answer its step, unless it
        settles (``refused``: its request YIELDed): a PARK is YIELDING until woken or its
        virtual-time bound, a WAIT_NATIVE BLOCKED on its FIFO queue until ``_hand_over``."""
        action = thread.pending
        lock = action.lock
        try:
            step, timeout = thread.acquisition.send(sent)
        except StopIteration as settled:
            thread.pending = thread.acquisition = None
            thread.last_result = settled.value
            if not settled.value:
                if refused:  # the engine refused the trylock
                    self.policy.observe_yield(self, thread, lock)
                self.result.failed_trylocks += 1
            return
        if step is PARK:
            if sent is None:  # the acquisition's first yield
                thread.yields += 1
                self.result.yields += 1
            thread.state = ThreadState.YIELDING
            if timeout is not None:
                thread.park_until = thread.ready_at = self.clock.now() + timeout
            self.policy.observe_yield(self, thread, lock)
            return
        thread.blocks += 1
        self.result.blocks += 1
        thread.state = ThreadState.BLOCKED
        lock.enqueue_waiter(thread.thread_id)

    def _grant(self, thread: SimThread, lock: SimLock, mode: str) -> bool:
        """Hand ``lock`` to ``thread``; True, so a take is ``can_grant(...) and _grant(...)``."""
        lock.grant(thread.thread_id, mode)
        thread.held[lock.lock_id] = thread.held.get(lock.lock_id, 0) + 1
        thread.lock_ops += 1
        self.result.lock_ops += 1
        return True

    def _do_release(self, thread: SimThread, action: Release) -> None:
        lock = action.lock
        if not lock.held_by(thread.thread_id):
            raise SimulationError(
                f"{thread.name} released {lock.name} which it does not hold")
        woken = self.backend.release(thread.thread_id, lock.lock_id)
        fully = lock.release(thread.thread_id)
        count = thread.held.get(lock.lock_id, 0) - 1
        if count <= 0:
            thread.held.pop(lock.lock_id, None)
        else:
            thread.held[lock.lock_id] = count
        if fully:
            self._hand_over(lock)
        # Engine-backed cores (DimmunixBackend) already wake dissolved
        # yielders through the waker registry — waking them again here is
        # an idempotent no-op.  Engine-less backends (gate locks) have no
        # waker registry and rely on this loop.
        for thread_id in woken:
            self.wake_thread(thread_id)

    def _hand_over(self, lock: SimLock) -> None:
        """Grant freed capacity to blocked waiters, FIFO.

        Mutexes hand over to at most one waiter per release; capacity-aware
        resources keep granting from the queue front while grants remain
        possible (e.g. several readers unblock when a writer leaves).  The
        scan stops at the first waiter whose grant is not possible, which
        preserves FIFO fairness.
        """
        while True:
            waiter_id = lock.pop_waiter()
            if waiter_id is None:
                return
            waiter = self.threads.get(waiter_id)
            if (waiter is None or waiter.state is not ThreadState.BLOCKED
                    or waiter.pending.lock is not lock):
                continue
            mode = waiter.pending.mode
            if not lock.can_grant(waiter_id, mode):
                # Capacity exhausted again: put the waiter back at the
                # front so FIFO order is preserved, and stop scanning.
                lock.waiters.appendleft(waiter_id)
                return
            self._grant(waiter, lock, mode)
            self.policy.observe_grant(self, waiter, lock, mode)
            waiter.state = ThreadState.READY
            waiter.ready_at = max(waiter.ready_at, self.clock.now())
            self._advance(waiter, True)  # WAIT_NATIVE answered: ``acquired``
            self._prefetch(waiter)

    def _declare_stall(self) -> None:
        stall = StallRecord(virtual_time=self.clock.now())
        for thread in self.threads.values():
            if thread.finished:
                continue
            if isinstance(thread.pending, (Acquire, TryAcquire)):
                stall.waiting[thread.thread_id] = thread.pending.lock.lock_id
            stall.holding[thread.thread_id] = list(thread.held)
        self.result.deadlocked = True
        self.result.stall = stall
        details = {
            "sites": {
                thread.thread_id: thread.pending.stack()
                for thread in self.threads.values()
                if isinstance(thread.pending, (Acquire, TryAcquire))
            },
        }
        self.backend.on_deadlock(stall, details)
        for thread in self.threads.values():
            if not thread.finished:
                thread.state = ThreadState.ABORTED

    def _finalize(self) -> None:
        self.result.virtual_time = self.clock.now()
        self.result.completed_threads = sum(
            1 for t in self.threads.values() if t.state is ThreadState.FINISHED)
        self.result.backend_stats = self.backend.stats()
