"""Instrumentation: Dimmunix-aware primitives for ``threading`` and ``asyncio`` programs.

This package is the Python analogue of the paper's two interception
strategies (AspectJ bytecode weaving for Java, modified libthr/NPTL for
POSIX threads): every lock and unlock operation is funneled through the
avoidance engine by wrapping — or, through :func:`immunize`, the one way
in, monkey-patching — the standard lock types.
"""

from .runtime import ThreadRegistry, YieldManager, InstrumentationRuntime
from .locks import (BoundedSemaphore, Condition, DimmunixBoundedSemaphore,
                    DimmunixCondition, DimmunixLock, DimmunixRLock,
                    DimmunixRWLock, DimmunixSemaphore, Lock, RLock, RWLock,
                    Semaphore)
from .aio import (AioCondition, AioLock, AioRWLock, AioSemaphore,
                  AsyncioParker, AsyncioRuntime, TaskRegistry)
from .patching import default_runtime
from .entry import ImmunityHandle, immunize

__all__ = [
    "AioCondition",
    "AioLock",
    "AioRWLock",
    "AioSemaphore",
    "AsyncioParker",
    "AsyncioRuntime",
    "BoundedSemaphore",
    "Condition",
    "DimmunixBoundedSemaphore",
    "DimmunixCondition",
    "DimmunixLock",
    "DimmunixRLock",
    "DimmunixRWLock",
    "DimmunixSemaphore",
    "ImmunityHandle",
    "InstrumentationRuntime",
    "Lock",
    "RLock",
    "RWLock",
    "Semaphore",
    "TaskRegistry",
    "ThreadRegistry",
    "YieldManager",
    "default_runtime",
    "immunize",
]
