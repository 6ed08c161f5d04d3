"""The unified one-call entry point: ``repro.immunize(runtime=...)``.

Thread programs, event-loop programs and programs that mix both models
(a web server running sync workers next to an event loop) share one
front door::

    handle = repro.immunize()                       # threads (default)
    handle = repro.immunize(runtime="asyncio")      # event-loop programs
    handle = repro.immunize(runtime="both")         # mixed programs
    ...
    handle.stop()                                   # undo everything

Whatever the runtime, one :class:`~repro.core.dimmunix.Dimmunix`
instance backs the handle — a mixed program has *one* history, one
avoidance engine, and one share channel, so a deadlock learned on a
thread immunizes the event loop too (and vice versa).

The handle delegates unknown attributes to the underlying
instrumentation runtime, so code written against the historical return
values (``runtime.config``, ``runtime.dimmunix`` …) keeps working
unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import DimmunixConfig
from ..core.dimmunix import Dimmunix
from ..core.errors import DimmunixError
from .patching import _install, _uninstall

#: Accepted values for ``immunize(runtime=...)``.
RUNTIMES = ("threads", "asyncio", "both")


class ImmunityHandle:
    """What :func:`immunize` returns: one stoppable immunity session.

    Attributes:
        dimmunix:  the shared engine instance.
        threads:   the thread :class:`InstrumentationRuntime`, or ``None``
                   when ``runtime="asyncio"``.
        aio:       the :class:`AsyncioRuntime`, or ``None`` when
                   ``runtime="threads"``.
    """

    def __init__(self, dimmunix: Dimmunix, threads=None, aio=None):
        self.dimmunix = dimmunix
        self.threads = threads
        self.aio = aio
        self._stopped = False

    def stop(self) -> None:
        """Stop the engine and undo every installed patch (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.dimmunix.stop()
        for kind, runtime in (("threads", self.threads), ("asyncio", self.aio)):
            if runtime is not None:
                _uninstall(kind)

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has run."""
        return self._stopped

    def report(self) -> dict:
        """The engine's report (histories, engine stats, share counters)."""
        return self.dimmunix.report()

    def __enter__(self) -> "ImmunityHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __getattr__(self, name):
        # Back-compat: the historical entry points returned the
        # instrumentation runtime itself; delegate what the handle does
        # not define (``config``, ``registry`` …) to the primary runtime.
        primary = (object.__getattribute__(self, "threads")
                   or object.__getattribute__(self, "aio"))
        if primary is not None:
            return getattr(primary, name)
        raise AttributeError(name)

    def __repr__(self) -> str:
        kinds = [kind for kind, runtime
                 in (("threads", self.threads), ("asyncio", self.aio))
                 if runtime is not None]
        return (f"<ImmunityHandle runtime={'+'.join(kinds)} "
                f"{'stopped' if self._stopped else 'running'}>")


def immunize(runtime: str = "threads",
             config: Optional[DimmunixConfig] = None,
             history_path: Optional[str] = None,
             share=None,
             dimmunix: Optional[Dimmunix] = None) -> ImmunityHandle:
    """Create, start, and install deadlock immunity in one call.

    ``runtime`` selects what gets instrumented: ``"threads"`` patches the
    ``threading`` lock factories, ``"asyncio"`` patches the asyncio
    primitives, ``"both"`` does both against one shared engine.

    ``share`` joins a cross-process signature pool (see
    :mod:`repro.share`): a spec string — ``unix:///run/app/pool.sock``,
    ``tcp://host:port``, ``file:///shared/pool.sig``,
    ``gossip://0.0.0.0:7400?peers=host:7400`` — or an open
    :class:`~repro.share.channel.HistoryChannel`.

    ``dimmunix`` immunizes with an engine the caller built — the way
    custom deadlock/restart handlers, a clock or a pre-loaded history
    reach a patched program — instead of one made from ``config``,
    ``history_path`` and ``share``, which must then be left out.  The
    handle starts and stops it like its own.

    Returns an :class:`ImmunityHandle`; call ``handle.stop()`` (or use it
    as a context manager) to undo everything.
    """
    if runtime not in RUNTIMES:
        raise DimmunixError(
            f"unknown runtime {runtime!r} (known: {', '.join(RUNTIMES)})")
    if dimmunix is None:
        if config is None:
            config = DimmunixConfig(history_path=history_path)
        elif history_path is not None:
            config = config.with_overrides(history_path=history_path)
        dimmunix = Dimmunix(config=config, share=share)
    elif not (config is None and history_path is None and share is None):
        raise DimmunixError("immunize(dimmunix=...) takes its config, history "
                            "and share channel from that engine")
    installed = {}
    try:
        for kind in ("threads", "asyncio") if runtime == "both" else (runtime,):
            installed[kind] = _install(kind, dimmunix)
        dimmunix.start()
    except Exception:
        for kind in installed:
            _uninstall(kind)
        dimmunix.stop()
        raise
    return ImmunityHandle(dimmunix, threads=installed.get("threads"),
                          aio=installed.get("asyncio"))
