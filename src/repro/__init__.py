"""repro — a Python reproduction of Dimmunix (Deadlock Immunity, OSDI 2008).

Deadlock immunity is a property by which programs, once afflicted by a
given deadlock, develop resistance against future occurrences of that and
similar deadlocks.  This package provides:

* :class:`~repro.core.dimmunix.Dimmunix` — the immunity runtime (history,
  avoidance engine, monitor, calibrator),
* :mod:`repro.instrument` — drop-in ``threading`` lock replacements and
  monkey-patching (``repro.immunize()``),
* :mod:`repro.sim` — a deterministic simulator for reproducible deadlock
  and starvation scenarios,
* :mod:`repro.baselines` — gate-lock / detection-only comparators used
  by the evaluation,
* :mod:`repro.apps`, :mod:`repro.workloads`, :mod:`repro.harness` — the
  miniature target systems, workloads and experiment harness that
  regenerate the paper's tables and figures.

Quickstart::

    import repro

    handle = repro.immunize(history_path="app.history")
    # ... run your threaded program; deadlock patterns encountered once
    # are avoided in all subsequent runs ...
    handle.stop()

``runtime="asyncio"`` immunizes event-loop programs and
``runtime="both"`` immunizes mixed ones, all against one shared engine;
``share=...`` joins a cross-process (or cross-host) signature pool.
"""

from .core import (CallStack, Decision, DetectedCycle, Dimmunix, DimmunixConfig,
                   DimmunixError, EngineStats, EXCLUSIVE, Frame, History,
                   RestartRequired, SHARED, Signature, STRONG_IMMUNITY,
                   WEAK_IMMUNITY)
from .instrument import (AioCondition, AioLock, AioRWLock, AioSemaphore,
                         AsyncioRuntime, DimmunixBoundedSemaphore,
                         DimmunixCondition, DimmunixLock, DimmunixRLock,
                         DimmunixRWLock, DimmunixSemaphore, ImmunityHandle,
                         immunize)

__version__ = "0.1.0"

__all__ = [
    "AioCondition",
    "AioLock",
    "AioRWLock",
    "AioSemaphore",
    "AsyncioRuntime",
    "CallStack",
    "Decision",
    "DetectedCycle",
    "Dimmunix",
    "DimmunixBoundedSemaphore",
    "DimmunixCondition",
    "DimmunixConfig",
    "DimmunixError",
    "DimmunixLock",
    "DimmunixRLock",
    "DimmunixRWLock",
    "DimmunixSemaphore",
    "EXCLUSIVE",
    "EngineStats",
    "Frame",
    "History",
    "ImmunityHandle",
    "RestartRequired",
    "SHARED",
    "STRONG_IMMUNITY",
    "Signature",
    "WEAK_IMMUNITY",
    "__version__",
    "immunize",
]
