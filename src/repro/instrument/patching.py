"""How a runtime is installed: the patch table, its installer, the default runtimes.

The paper's Java implementation weaves avoidance aspects into the target
bytecode; the pthreads implementations ship modified thread libraries.
The Python analogue is to replace the public lock factories of
``threading`` and ``asyncio`` with ones returning Dimmunix-aware
primitives, so existing code gains immunity without being modified.  This
module is the one place that knows how, for both runtimes:

* :data:`_TABLE` — per runtime kind, the runtime class and one
  ``(module, attribute, native factory, immune class)`` row per patched
  name,
* :func:`_factory` — what a patched name becomes: the native object for
  callers that must keep one, the immune class for everybody else,
* :func:`_install` / :func:`_uninstall` — driven by
  :func:`repro.immunize` and its handle, the only public way in and out,
* :func:`default_runtime` — the process-wide runtime per kind that a
  primitive made without ``runtime=`` binds to; installing sets it,
  uninstalling clears it.

Only the public factory names are replaced — the interpreter-internal
``_thread.allocate_lock`` primitive is left untouched, because the
``threading`` machinery itself (and Dimmunix's own monitor thread) relies
on it and must never be routed through the avoidance engine.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from typing import Dict, Tuple

from ..core.callstack import path_has_component
from ..core.dimmunix import Dimmunix
from ..core.errors import InstrumentationError
from ..core.runtime_api import LockRuntime
from .aio import AioCondition, AioLock, AioSemaphore, AsyncioRuntime
from .locks import (DimmunixBoundedSemaphore, DimmunixLock, DimmunixRLock,
                    DimmunixSemaphore)
from .runtime import InstrumentationRuntime

#: Callers that must always receive *native* locks even while a patch is
#: installed: the ``threading`` module itself (Event, Condition, Barrier and
#: friends build on RLock) and this library (the engine's own bookkeeping
#: must never be routed through the engine).  Whole path components, see
#: :func:`~repro.core.callstack.path_has_component`.
_NATIVE_CALLERS = ("threading.py", "repro/core/", "repro/instrument/", "repro/util/")

#: kind -> (runtime class, native callers beyond the ones above — the
#: asyncio machinery itself — and the rows).  Native factories are the ones
#: found at import time, so Dimmunix's own plumbing and the factories'
#: native fallback always reach the uninstrumented primitives.
_TABLE = {
    "threads": (InstrumentationRuntime, (), (
        (threading, "Lock", threading.Lock, DimmunixLock),
        (threading, "RLock", threading.RLock, DimmunixRLock),
        (threading, "Semaphore", threading.Semaphore, DimmunixSemaphore),
        (threading, "BoundedSemaphore", threading.BoundedSemaphore,
         DimmunixBoundedSemaphore),
    )),
    "asyncio": (AsyncioRuntime, ("asyncio/",), tuple(
        (module, attribute, getattr(module, attribute), immune)
        for module in (asyncio, asyncio.locks)
        for attribute, immune in (("Lock", AioLock), ("Condition", AioCondition),
                                  ("Semaphore", AioSemaphore)))),
}

#: kind -> the process-wide default runtime; ``_installed`` says which of
#: them are patched in.  Both change under ``_registry_mutex`` only.
_defaults: Dict[str, LockRuntime] = {}
_installed: set = set()
_registry_mutex = threading.Lock()


def _factory(native, immune, runtime: LockRuntime, native_callers: Tuple[str, ...]):
    """What ``module.attribute`` is while ``runtime`` is installed."""
    def factory(*args, **kwargs):
        filename = sys._getframe(1).f_code.co_filename
        if path_has_component(filename, native_callers):
            return native(*args, **kwargs)
        if immune is AioCondition:
            # A condition over a pre-existing *native* lock (created before
            # the install) cannot be instrumented; degrade to native
            # behaviour rather than breaking previously working code.
            lock = args[0] if args else kwargs.get("lock")
            if lock is not None and not isinstance(lock, AioLock):
                return native(*args, **kwargs)
        return immune(*args, runtime=runtime, **kwargs)
    return factory


def _install(kind: str, dimmunix: Dimmunix) -> LockRuntime:
    """Patch every row of ``kind`` to a new runtime over ``dimmunix``; return it.

    The runtime becomes the kind's default.  Installing a kind twice
    without an :func:`_uninstall` in between raises, to avoid silently
    stacking patches.
    """
    runtime_class, further_callers, rows = _TABLE[kind]
    with _registry_mutex:
        if kind in _installed:
            raise InstrumentationError(
                f"{kind!r} is already immunized; stop() the live handle first")
        runtime = _defaults[kind] = runtime_class(dimmunix)
        _installed.add(kind)
    native_callers = _NATIVE_CALLERS + further_callers
    for module, attribute, native, immune in rows:
        setattr(module, attribute, _factory(native, immune, runtime, native_callers))
    return runtime


def _uninstall(kind: str) -> None:
    """Restore the native factories of ``kind`` and drop its default runtime."""
    _, _, rows = _TABLE[kind]
    for module, attribute, native, _ in rows:
        setattr(module, attribute, native)
    with _registry_mutex:
        _installed.discard(kind)
        _defaults.pop(kind, None)


def default_runtime(kind: str) -> LockRuntime:
    """The process-wide runtime of ``kind`` (``"threads"`` or ``"asyncio"``).

    The installed one while :func:`repro.immunize` is in effect;
    otherwise one over a default-configured engine, created on first use.
    """
    runtime = _defaults.get(kind)
    if runtime is None:
        with _registry_mutex:
            runtime = _defaults.get(kind)
            if runtime is None:
                runtime_class, _, _ = _TABLE[kind]
                runtime = _defaults[kind] = runtime_class(Dimmunix())
    return runtime


def reset_default_runtimes() -> None:
    """Drop every default runtime (mainly for tests)."""
    with _registry_mutex:
        _defaults.clear()
