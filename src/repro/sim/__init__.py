"""Deterministic concurrency simulator and schedule-exploration engine.

Real deadlocks are timing dependent and awkward to reproduce in tests; the
paper's authors built timing-loop "exploits" to trigger them reliably.
This package provides an alternative substrate: a cooperative,
virtual-time scheduler whose threads are generator functions yielding
explicit synchronization actions.  The scheduler drives the very same
avoidance engine and monitor as the real-thread instrumentation, which
makes deadlock, avoidance, and starvation scenarios exactly reproducible
(and lets experiments scale to 1024 simulated threads without fighting
the GIL).

Scheduling decisions go through a pluggable
:class:`~repro.sim.schedule.SchedulePolicy` and are recorded as
serializable :class:`~repro.sim.schedule.ScheduleTrace` objects, which
turns the simulator into a model checker: :mod:`repro.sim.explore`
enumerates all interleavings (unreduced or with source-DPOR), replays
recorded schedules step-for-step, shrinks deadlock counterexamples, and
checks the paper's immunity claim over the whole schedule space instead
of one lucky seed.
"""

from .actions import (Acquire, AcquireRead, Compute, Log, Release,
                      TryAcquire, call_site)
from .aio import (AioSimLock, alog, asleep, async_program,
                  aio_lock_order_program, aio_philosopher_program,
                  build_aio_philosophers, build_aio_two_lock_inversion,
                  new_aio_lock, perform)
from .backends import (DimmunixBackend, NullBackend, SchedulerBackend)
from .explore import (DeadlockFinding, ExplorationResult, Explorer,
                      FrontierNode, ImmunityChecker, ImmunityReport,
                      SCENARIOS, STRATEGIES, build_philosophers,
                      build_two_lock_inversion)
from .locks import SimLock, SimRWLock, SimSemaphore
from .result import SimResult
from .schedule import (FirstReadyPolicy, RandomPolicy, ReplayPolicy,
                       SchedulePolicy, ScheduleTrace)
from .scheduler import SimScheduler, SimThread
from .programs import (lock_order_program, philosopher_program,
                       random_workload_program, two_phase_program)

__all__ = [
    "Acquire",
    "AcquireRead",
    "AioSimLock",
    "Compute",
    "DeadlockFinding",
    "DimmunixBackend",
    "ExplorationResult",
    "Explorer",
    "FirstReadyPolicy",
    "FrontierNode",
    "ImmunityChecker",
    "ImmunityReport",
    "Log",
    "NullBackend",
    "RandomPolicy",
    "Release",
    "ReplayPolicy",
    "SCENARIOS",
    "STRATEGIES",
    "SchedulePolicy",
    "SchedulerBackend",
    "ScheduleTrace",
    "SimLock",
    "SimRWLock",
    "SimSemaphore",
    "SimResult",
    "SimScheduler",
    "SimThread",
    "TryAcquire",
    "aio_lock_order_program",
    "aio_philosopher_program",
    "alog",
    "asleep",
    "async_program",
    "build_aio_philosophers",
    "build_aio_two_lock_inversion",
    "build_philosophers",
    "build_two_lock_inversion",
    "call_site",
    "lock_order_program",
    "new_aio_lock",
    "perform",
    "philosopher_program",
    "random_workload_program",
    "two_phase_program",
]
