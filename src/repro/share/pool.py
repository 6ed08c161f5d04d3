"""The :class:`SignaturePool`: glue between a local history and a channel.

One pool binds one :class:`~repro.core.history.History` to one
:class:`~repro.share.channel.HistoryChannel`:

* **outbound** — a history listener publishes every *locally* learned
  signature the moment the monitor archives it (no polling delay on the
  publish side);
* **inbound** — :meth:`pump` drains the channel and merges remote
  signatures into the history.  Merging triggers the history's observer
  hooks, which is how a remote signature reaches the engine's striped
  avoidance state: the incremental
  :class:`~repro.core.sigindex.SignatureIndex` adds its suffix buckets
  and the very next lock request can match it — no restart, no engine
  reset.

**Batching and backpressure.**  By default publishes are immediate
(``coalesce_window=0``).  Setting a window makes the pool coalesce: new
signatures queue locally and are flushed together once the window
elapses (or on the next monitor pump, whichever comes first), so a
deadlock storm in one worker costs the pool one batched flush, not one
channel round-trip per signature.  The queue is bounded
(``max_outbound``); overflow drops the *oldest* queued signature and
counts it in ``publish_dropped`` — dropping is safe because signatures
re-offer themselves on the next full :meth:`sync` and immunity is only
ever delayed, never lost locally.

**The control plane.**  The pool is also a history *observer*: a local
``disable``/``enable``/``remove`` (e.g. from ``histctl``) originates a
control record — Lamport-clocked, origin-stamped — onto the channel,
and :meth:`pump` merges inbound control records into the pool's
:class:`~repro.share.state.PoolState` and applies the ones that win to
the local history.  Applying a remote "disable" fires the
history's observer hooks, the signature index drops its buckets, and a
*live* worker stops avoiding the fingerprint without restarting —
fleet-wide retraction of a bad signature (section 5.7 at fleet scale).

Echo suppression is two-layered: the pool flags installs so its own
listener does not publish a remote signature back, and every channel
additionally refuses to resend a fingerprint it has already carried.

The pool is driven by whoever owns the runtime's cadence:
:class:`~repro.core.monitor.MonitorCore` pumps it once per monitor pass
(real threads and asyncio get live installs at the monitor period), and
deterministic tests or simulator scenarios call
``dimmunix.process_now()`` — or :meth:`pump` directly — at the exact
point their schedule requires.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from ..core.history import History
from ..core.signature import Signature
from .channel import HistoryChannel
from .state import Control, PoolState, apply_control, install, parse_control


def _default_origin() -> str:
    try:
        host = socket.gethostname()
    except OSError:
        host = "unknown-host"
    return f"{host}:{os.getpid()}"


class SignaturePool:
    """Bidirectional signature flow between a history and a channel."""

    def __init__(self, history: History, channel: HistoryChannel,
                 coalesce_window: float = 0.0,
                 max_outbound: int = 256,
                 origin: Optional[str] = None):
        self._history = history
        self._channel = channel
        self._installing = threading.local()
        self._coalesce_window = max(0.0, coalesce_window)
        self._max_outbound = max(1, max_outbound)
        self._outbound: Deque[Signature] = deque()
        self._outbound_lock = threading.Lock()
        self._first_queued_at: Optional[float] = None
        #: Control-plane state: the origin stamp and the standing control
        #: per fingerprint (whose highest clock is the Lamport clock).
        #: The records themselves live in the history.
        self._origin = origin or _default_origin()
        self._control_lock = threading.Lock()
        self._state = PoolState()
        #: Counters surfaced in reports and ``pool-status``.
        self.published = 0
        self.installed = 0
        self.publish_errors = 0
        self.publish_dropped = 0
        self.controls_published = 0
        self.controls_applied = 0
        self.control_errors = 0
        self._detached = False
        history.add_listener(self._publish_local)
        history.add_observer(self)

    @property
    def channel(self) -> HistoryChannel:
        """The transport this pool distributes through."""
        return self._channel

    @property
    def history(self) -> History:
        """The local history this pool feeds."""
        return self._history

    # -- outbound ----------------------------------------------------------------------

    def _publish_local(self, signature: Signature) -> None:
        if self._detached or getattr(self._installing, "active", False):
            return
        if self._coalesce_window <= 0.0:
            self._publish_now(signature)
            return
        flush_due = False
        with self._outbound_lock:
            self._outbound.append(signature)
            if len(self._outbound) > self._max_outbound:
                self._outbound.popleft()
                self.publish_dropped += 1
            now = time.monotonic()
            if self._first_queued_at is None:
                self._first_queued_at = now
            elif now - self._first_queued_at >= self._coalesce_window:
                flush_due = True
        if flush_due:
            self.flush()

    def _publish_now(self, signature: Signature) -> None:
        try:
            self._channel.publish(signature)
            self.published += 1
        except Exception:
            # Sharing failures must degrade to single-process immunity,
            # never to an exception inside the monitor's archive path.
            self.publish_errors += 1

    def flush(self) -> int:
        """Publish everything coalesced so far; returns the batch size."""
        with self._outbound_lock:
            batch = list(self._outbound)
            self._outbound.clear()
            self._first_queued_at = None
        for signature in batch:
            self._publish_now(signature)
        return len(batch)

    def _flush_if_due(self) -> None:
        if self._coalesce_window <= 0.0:
            return
        with self._outbound_lock:
            due = (self._first_queued_at is not None
                   and time.monotonic() - self._first_queued_at
                   >= self._coalesce_window)
        if due:
            self.flush()

    @property
    def pending_outbound(self) -> int:
        """Signatures currently coalescing in the outbound queue."""
        with self._outbound_lock:
            return len(self._outbound)

    # -- outbound: control origination -------------------------------------------------

    def _originate_control(self, action: str, fingerprint: str) -> None:
        if self._detached or getattr(self._installing, "active", False):
            return
        if not getattr(self._channel, "supports_controls", False):
            return
        with self._control_lock:
            control = Control(self._state.clock + 1, self._origin,
                              action, fingerprint)
            self._state.merge_control(control)
        try:
            self._channel.publish_control(control.to_dict())
            self.controls_published += 1
        except Exception:
            self.control_errors += 1

    # History observer hooks: a *local* mutation becomes a fleet-wide
    # control record.  Remote applications are suppressed by the same
    # ``_installing`` flag that suppresses signature echo.
    def on_signature_disabled(self, signature: Signature) -> None:
        self._originate_control("disable", signature.fingerprint)

    def on_signature_enabled(self, signature: Signature) -> None:
        self._originate_control("enable", signature.fingerprint)

    def on_signature_removed(self, signature: Signature) -> None:
        self._originate_control("remove", signature.fingerprint)

    # -- inbound -----------------------------------------------------------------------

    def _install(self, signatures) -> int:
        if not signatures:
            return 0
        self._installing.active = True
        try:
            added = install(self._history, self._state, signatures)
        finally:
            self._installing.active = False
        self.installed += added
        return added

    def _apply_controls(self, controls) -> int:
        applied = 0
        for raw in controls:
            control = parse_control(raw)
            if control is None:
                self.control_errors += 1
                continue
            with self._control_lock:
                won = self._state.merge_control(control)
            if not won:
                continue
            self._installing.active = True
            try:
                apply_control(self._history, control)
            finally:
                self._installing.active = False
            applied += 1
        self.controls_applied += applied
        return applied

    def _pump_controls(self) -> int:
        try:
            controls = self._channel.poll_controls()
        except Exception:
            return 0
        return self._apply_controls(controls)

    def pump(self) -> int:
        """Install newly arrived remote signatures; returns how many were new."""
        if self._detached:
            return 0
        self._flush_if_due()
        try:
            signatures = self._channel.poll()
        except Exception:
            signatures = []
        added = self._install(signatures)
        self._pump_controls()
        return added

    def sync(self, timeout: float = 5.0) -> int:
        """Full two-way synchronization (used right after attaching).

        Publishes every signature already in the local history (a restarted
        worker re-seeds the pool from its history file), then installs the
        pool's full snapshot — signatures and any standing controls.
        Returns the number of signatures installed.
        """
        # Publish directly, not through the coalescing queue: a full sync
        # is the recovery path for previously dropped signatures, so it
        # must not re-drop under the same bound.  (The channel's seen-set
        # keeps already-shared fingerprints off the wire.)
        with self._outbound_lock:
            self._outbound.clear()
            self._first_queued_at = None
        for signature in self._history.signatures():
            self._publish_now(signature)
        try:
            try:
                remote = self._channel.snapshot(timeout=timeout)
            except TypeError:
                remote = self._channel.snapshot()
        except Exception:
            remote = []
        added = self._install(remote)
        self._pump_controls()
        return added

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Stop publishing, pump one last time, and close the channel."""
        if self._detached:
            return
        self.flush()
        self.pump()
        self._detached = True
        self._history.remove_listener(self._publish_local)
        self._history.remove_observer(self)
        try:
            self._channel.close()
        except Exception:
            pass

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._detached

    # -- introspection -----------------------------------------------------------------

    def report(self) -> Dict:
        """Counter snapshot for ``Dimmunix.report`` and status displays."""
        return {
            "channel": self._channel.describe(),
            "published": self.published,
            "installed": self.installed,
            "publish_errors": self.publish_errors,
            "publish_dropped": self.publish_dropped,
            "pending_outbound": self.pending_outbound,
            "controls_published": self.controls_published,
            "controls_applied": self.controls_applied,
            "control_errors": self.control_errors,
            "history_size": len(self._history),
        }
