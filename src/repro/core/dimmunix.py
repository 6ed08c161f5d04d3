"""The Dimmunix facade: one object wiring history, engine, monitor, calibrator.

Most users interact with the library through this class (or through the
module-level helpers in :mod:`repro`), e.g.::

    from repro import Dimmunix, DimmunixConfig

    dimmunix = Dimmunix(DimmunixConfig(history_path="app.history"))
    dimmunix.start()
    ...
    dimmunix.stop()

The facade is runtime agnostic: the real-thread instrumentation
(:mod:`repro.instrument`) and the deterministic simulator
(:mod:`repro.sim`) both attach to a :class:`Dimmunix` instance and drive
the engine's request/acquired/release entry points, each with the parker
whose wakers the engine calls.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from .avoidance import AvoidanceEngine, Decision, RequestOutcome
from .calibration import Calibrator
from .config import DimmunixConfig
from .errors import MonitorError
from .events import EventBus
from .history import History
from .monitor import MonitorCore, MonitorThread
from .signature import Signature
from .stats import EngineStats
from ..util.atomics import atomic_counter
from ..util.clock import Clock, WallClock


class Dimmunix:
    """A complete deadlock-immunity runtime instance."""

    def __init__(self, config: Optional[DimmunixConfig] = None,
                 history: Optional[History] = None,
                 clock: Optional[Clock] = None,
                 deadlock_handler=None, restart_handler=None,
                 engine_mode: str = "full", share=None):
        self.config = (config or DimmunixConfig()).validate()
        self.history = history if history is not None else History(
            path=self.config.history_path)
        #: The counters, a view over the engine's event bus: its rings hold them.
        self.stats = EngineStats(EventBus(ring_capacity=self.config.event_ring_size))
        self.clock = clock or WallClock()
        self.engine = AvoidanceEngine(
            history=self.history, config=self.config, clock=self.clock,
            stats=self.stats, mode=engine_mode)
        #: Calibrates matching depths from the monitor's records, when enabled.
        self.calibrator = (Calibrator(self.history, self.engine.index, self.config, self.stats)
                           if self.config.calibration_enabled else None)
        self.monitor = MonitorCore(
            engine=self.engine, history=self.history, config=self.config,
            stats=self.stats, deadlock_handler=deadlock_handler,
            restart_handler=restart_handler, calibrator=self.calibrator)
        self._monitor_thread: Optional[MonitorThread] = None
        self._started = False
        #: Ids of units (threads, tasks) and of locks: one space per engine,
        #: whichever runtimes drive it, each numbered from 1.
        self.new_unit_id = atomic_counter(1).next
        self.new_lock_id = atomic_counter(1).next
        #: Cross-process signature pool (see :mod:`repro.share`), attached
        #: via the ``share`` argument or :meth:`attach_share`.
        self.share_pool = None
        if share is not None:
            self.attach_share(share)

    def fork(self) -> "Dimmunix":
        """A fresh instance: same config, handlers and engine mode, a new clock, a copied history.

        Systematic exploration runs the same scenario under many
        interleavings; each run must start from identical engine state and
        must not leak learned signatures (or mutated signature counters)
        into its siblings, so each gets its own instance seeded with a shallow
        copy of each signature: shared stacks, its own counters, flag and depth.
        """
        history = History(path=None, autosave=False)
        history.merge(copy.copy(signature) for signature in self.history.signatures())
        return Dimmunix(config=self.config, history=history, clock=type(self.clock)(),
                        deadlock_handler=self.monitor.deadlock_handler,
                        restart_handler=self.monitor.restart_handler,
                        engine_mode=self.engine.mode)

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "Dimmunix":
        """Start the background monitor thread (idempotent)."""
        if self._started:
            return self
        self._monitor_thread = MonitorThread(self.monitor,
                                             interval=self.config.monitor_interval)
        self._monitor_thread.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Stop the monitor thread, run a final detection pass, save history.

        An attached share pool is flushed and closed: the final detection
        pass archives (and thus publishes) any last deadlock, so a worker
        that deadlocks and exits still immunizes the rest of the fleet.
        """
        if self._monitor_thread is not None:
            self._monitor_thread.stop(final_process=True)
            self._monitor_thread = None
        self._started = False
        self.detach_share()
        if self.history.path is not None:
            self.history.save()

    def __enter__(self) -> "Dimmunix":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def running(self) -> bool:
        """True while the background monitor is active."""
        return self._started

    def process_now(self):
        """Run one synchronous monitor pass (used by the simulator and tests)."""
        return self.monitor.process()

    # -- history sharing (multi-process immunity) --------------------------------------------

    def attach_share(self, share, sync: bool = True):
        """Join a cross-process signature pool (see :mod:`repro.share`).

        ``share`` is a spec string (``tcp://host:port``, ``unix://path``,
        ``file://path``, ``memory://name``, or a bare file path) or an
        already constructed
        :class:`~repro.share.channel.HistoryChannel`.  Locally learned
        signatures publish to the pool the instant the monitor archives
        them; remote signatures install into the live engine (striped
        cache index included) on every monitor pass — workers never need
        a restart to benefit from each other's immunity.

        Returns the attached :class:`~repro.share.pool.SignaturePool`.
        """
        from ..share import SignaturePool, open_channel

        if self.share_pool is not None:
            raise MonitorError("a share pool is already attached; "
                               "call detach_share() first")
        channel = open_channel(share)
        pool = SignaturePool(self.history, channel)
        if sync:
            pool.sync()
        self.share_pool = pool
        self.monitor.add_process_hook(pool.pump)
        return pool

    def detach_share(self) -> None:
        """Leave the signature pool: flush, close the channel, drop the hook."""
        pool = self.share_pool
        if pool is None:
            return
        self.monitor.remove_process_hook(pool.pump)
        pool.close()
        self.share_pool = None

    # -- signature management ----------------------------------------------------------------

    def signatures(self) -> List[Signature]:
        """All signatures currently in the history."""
        return self.history.signatures()

    def disable_last_signature(self) -> Optional[Signature]:
        """Disable the most recently avoided signature (section 5.7).

        Returns the disabled signature, or ``None`` when nothing had been
        avoided yet.
        """
        signature = self.engine.last_avoided_signature()
        if signature is None:
            return None
        self.history.disable(signature.fingerprint)
        return signature

    def import_signatures(self, path: str) -> int:
        """Merge signatures from an export file into the live history."""
        imported = History.import_signatures(path)
        return self.history.merge(imported)

    def export_signatures(self, path: str) -> int:
        """Write all signatures to a standalone file for distribution."""
        return self.history.export_signatures(path)

    def reload_history(self) -> int:
        """Re-read the history file; supports live "patching" via signatures."""
        return self.history.reload()

    # -- convenience passthroughs ---------------------------------------------------------------

    def request(self, thread_id: int, lock_id: int, stack) -> RequestOutcome:
        """Forward to :meth:`AvoidanceEngine.request`."""
        return self.engine.request(thread_id, lock_id, stack)

    def acquired(self, thread_id: int, lock_id: int, stack=None) -> None:
        """Forward to :meth:`AvoidanceEngine.acquired`."""
        self.engine.acquired(thread_id, lock_id, stack)

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        """Forward to :meth:`AvoidanceEngine.release`."""
        return self.engine.release(thread_id, lock_id)

    def cancel(self, thread_id: int, lock_id: int) -> None:
        """Forward to :meth:`AvoidanceEngine.cancel`."""
        self.engine.cancel(thread_id, lock_id)

    # -- reporting --------------------------------------------------------------------------------

    def report(self) -> Dict:
        """A summary dictionary: statistics, history size, detections."""
        summary = {
            "stats": self.stats.snapshot(),
            "history_size": len(self.history),
            "enabled_signatures": len(self.history.enabled_signatures()),
            "deadlocks_seen": len(self.monitor.deadlocks_seen()),
            "starvations_seen": len(self.monitor.starvations_seen()),
            "history_bytes": self.history.disk_footprint(),
        }
        if self.share_pool is not None:
            summary["share"] = self.share_pool.report()
        return summary


# Decision is re-exported here because runtime adapters import it alongside
# Dimmunix when interpreting request outcomes.
__all__ = ["Dimmunix", "Decision"]
