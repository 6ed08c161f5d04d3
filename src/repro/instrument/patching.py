"""Monkey-patching of the ``threading`` module.

The paper's Java implementation weaves avoidance aspects into the target
bytecode; the pthreads implementations ship modified thread libraries.
The Python analogue is to replace ``threading.Lock`` and
``threading.RLock`` with factories returning Dimmunix-aware locks, so
existing code gains immunity without being modified.

Only the public factory names are replaced — the interpreter-internal
``_thread.allocate_lock`` primitive is left untouched, because the
``threading`` machinery itself (and Dimmunix's own monitor thread) relies
on it and must never be routed through the avoidance engine.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from typing import Optional, Tuple

from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.errors import InstrumentationError
from .locks import (DimmunixBoundedSemaphore, DimmunixLock, DimmunixRLock,
                    DimmunixSemaphore)
from .runtime import InstrumentationRuntime, set_default_dimmunix

_original_lock = threading.Lock
_original_rlock = threading.RLock
_original_semaphore = threading.Semaphore
_original_bounded_semaphore = threading.BoundedSemaphore
_installed_runtime: Optional[InstrumentationRuntime] = None

#: Callers that must always receive *native* locks even while the patch is
#: installed: the ``threading`` module itself (Event, Condition, Barrier and
#: friends build on RLock) and this library (the engine's own bookkeeping
#: must never be routed through the engine).  Whole path components, never
#: substrings: ``dir/`` anywhere in the path, ``file.py`` at its end.
_NATIVE_CALLERS = ("/threading.py", "/repro/core/", "/repro/instrument/", "/repro/util/")


def _caller_needs_native_lock(also: Tuple[str, ...] = ()) -> bool:
    """True when the lock is being created by threading internals or by Dimmunix.

    ``also`` names further native callers (the asyncio patch adds the
    asyncio machinery itself).
    """
    try:
        frame = sys._getframe(2)
    except ValueError:  # pragma: no cover - extremely shallow stacks
        return False
    filename = "/" + frame.f_code.co_filename.replace("\\", "/")
    return any(fragment in filename if fragment[-1] == "/" else filename.endswith(fragment)
               for fragment in _NATIVE_CALLERS + also)


def install(dimmunix: Optional[Dimmunix] = None,
            config: Optional[DimmunixConfig] = None) -> InstrumentationRuntime:
    """Patch the ``threading`` synchronization factories to Dimmunix types.

    Replaces ``threading.Lock``, ``RLock``, ``Semaphore`` and
    ``BoundedSemaphore`` (counting semaphores become engine-tracked
    multi-permit resources).  Returns the instrumentation runtime bound
    to the (possibly newly created) Dimmunix instance.  Calling
    :func:`install` twice without an intervening :func:`uninstall`
    raises, to avoid silently stacking patches.
    """
    global _installed_runtime
    if _installed_runtime is not None:
        raise InstrumentationError("threading is already instrumented; call uninstall() first")
    if dimmunix is None:
        dimmunix = Dimmunix(config=config)
    runtime = set_default_dimmunix(dimmunix)

    def _lock_factory(*args, **kwargs):
        if _caller_needs_native_lock():
            return _original_lock()
        return DimmunixLock(runtime=runtime)

    def _rlock_factory(*args, **kwargs):
        if _caller_needs_native_lock():
            return _original_rlock()
        return DimmunixRLock(runtime=runtime)

    def _semaphore_factory(value=1, *args, **kwargs):
        if _caller_needs_native_lock():
            return _original_semaphore(value, *args, **kwargs)
        return DimmunixSemaphore(value, runtime=runtime)

    def _bounded_semaphore_factory(value=1, *args, **kwargs):
        if _caller_needs_native_lock():
            return _original_bounded_semaphore(value, *args, **kwargs)
        return DimmunixBoundedSemaphore(value, runtime=runtime)

    threading.Lock = _lock_factory  # type: ignore[assignment]
    threading.RLock = _rlock_factory  # type: ignore[assignment]
    threading.Semaphore = _semaphore_factory  # type: ignore[assignment]
    threading.BoundedSemaphore = _bounded_semaphore_factory  # type: ignore[assignment]
    _installed_runtime = runtime
    return runtime


def uninstall() -> None:
    """Restore the original ``threading`` synchronization factories."""
    global _installed_runtime
    threading.Lock = _original_lock  # type: ignore[assignment]
    threading.RLock = _original_rlock  # type: ignore[assignment]
    threading.Semaphore = _original_semaphore  # type: ignore[assignment]
    threading.BoundedSemaphore = _original_bounded_semaphore  # type: ignore[assignment]
    _installed_runtime = None


def installed() -> bool:
    """True while :func:`install` is in effect."""
    return _installed_runtime is not None


@contextlib.contextmanager
def patched(dimmunix: Optional[Dimmunix] = None,
            config: Optional[DimmunixConfig] = None):
    """Context manager combining :func:`install`/:func:`uninstall`.

    The Dimmunix monitor is started on entry and stopped on exit::

        with patched(config=DimmunixConfig(history_path="app.history")) as runtime:
            run_the_application()
    """
    runtime = install(dimmunix=dimmunix, config=config)
    runtime.dimmunix.start()
    try:
        yield runtime
    finally:
        runtime.dimmunix.stop()
        uninstall()
