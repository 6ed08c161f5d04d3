"""Real-thread instrumentation: Dimmunix-aware locks for ``threading`` programs.

This package is the Python analogue of the paper's two interception
strategies (AspectJ bytecode weaving for Java, modified libthr/NPTL for
POSIX threads): every lock and unlock operation is funneled through the
avoidance engine by wrapping — or monkey-patching — the standard
``threading`` lock types.
"""

from .runtime import (ThreadRegistry, YieldManager, InstrumentationRuntime,
                      get_default_dimmunix, set_default_dimmunix,
                      reset_default_dimmunix)
from .locks import (BoundedSemaphore, Condition, DimmunixBoundedSemaphore,
                    DimmunixCondition, DimmunixLock, DimmunixRLock,
                    DimmunixRWLock, DimmunixSemaphore, Lock, RLock, RWLock,
                    Semaphore)
from .patching import install, uninstall, patched
from .aio import (AioCondition, AioLock, AioRWLock, AioSemaphore,
                  AsyncioParker, AsyncioRuntime, TaskRegistry,
                  asyncio_installed, get_default_aio_runtime,
                  install_asyncio, patched_asyncio,
                  reset_default_aio_runtime, set_default_aio_runtime,
                  uninstall_asyncio)
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
    "asyncio_installed",
    "get_default_aio_runtime",
    "get_default_dimmunix",
    "immunize",
    "install",
    "install_asyncio",
    "patched",
    "patched_asyncio",
    "reset_default_aio_runtime",
    "reset_default_dimmunix",
    "set_default_aio_runtime",
    "set_default_dimmunix",
    "uninstall",
    "uninstall_asyncio",
]
