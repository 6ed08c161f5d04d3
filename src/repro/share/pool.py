"""The :class:`SignaturePool`: glue between a local history and a channel.

One pool binds one :class:`~repro.core.history.History` to one
:class:`~repro.share.channel.HistoryChannel`, and is the one place
signature records are parsed:

* **outbound** — a history listener sends every *locally* learned
  signature the moment the monitor archives it (no polling delay on the
  send side);
* **inbound** — :meth:`pump` receives the channel's delta and merges
  the remote signatures into the history.  Merging triggers the
  history's observer hooks, which is how a remote signature reaches the
  engine's striped avoidance state: the incremental
  :class:`~repro.core.sigindex.SignatureIndex` adds its suffix buckets
  and the very next lock request can match it — no restart, no engine
  reset.

**The control records.**  The pool is also a history *observer*: a local
``disable``/``enable``/``remove`` (e.g. from ``histctl``) originates a
control record — Lamport-clocked, origin-stamped — onto the channel,
and :meth:`pump` merges inbound control records into the pool's
:class:`~repro.share.state.PoolState` and applies the ones that win to
the local history.  Applying a remote "disable" fires the
history's observer hooks, the signature index drops its buckets, and a
*live* worker stops avoiding the fingerprint without restarting —
fleet-wide retraction of a bad signature (section 5.7 at fleet scale).

Echo suppression is two-layered: the pool flags installs so its own
listener and observer hooks do not send a remote record back, and every
channel additionally refuses to carry what it has already carried.

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
from typing import Dict, Optional

from ..core.history import History
from ..core.signature import Signature
from .channel import HistoryChannel
from .state import (Control, PoolState, apply_control, install, parse_signatures,
                    to_record)


def _default_origin() -> str:
    try:
        host = socket.gethostname()
    except OSError:
        host = "unknown-host"
    return f"{host}:{os.getpid()}"


class SignaturePool:
    """Bidirectional signature flow between a history and a channel."""

    def __init__(self, history: History, channel: HistoryChannel,
                 origin: Optional[str] = None):
        self._history = history
        self._channel = channel
        self._installing = threading.local()
        #: The origin stamp, and the standing control per fingerprint
        #: (whose highest clock is the Lamport clock).  The records
        #: themselves live in the history.
        self._origin = origin or _default_origin()
        self._control_lock = threading.Lock()
        self._state = PoolState()
        #: Counters surfaced in reports and ``pool-status``.
        self.published = 0
        self.installed = 0
        self.publish_errors = 0
        self.controls_published = 0
        self.controls_applied = 0
        self.control_errors = 0
        #: Received records no :class:`Signature` could be read from.
        self.unreadable = 0
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

    def _local(self) -> bool:
        """True when a history change is this process's own, to be sent."""
        return not self._detached and not getattr(self._installing, "active", False)

    def _send(self, records=(), controls=()) -> bool:
        try:
            self._channel.send(records, controls)
            return True
        except Exception:
            # Sharing failures must degrade to single-process immunity,
            # never to an exception inside the monitor's archive path.
            return False

    def _publish(self, records, controls=()) -> None:
        if self._send(records, controls):
            self.published += len(records)
        else:
            self.publish_errors += 1

    def _publish_local(self, signature: Signature) -> None:
        if self._local():
            self._publish([to_record(signature)])

    def _originate_control(self, action: str, fingerprint: str) -> None:
        if not self._local():
            return
        with self._control_lock:
            control = Control(self._state.clock + 1, self._origin,
                              action, fingerprint)
            self._state.merge_control(control)
        if self._send(controls=[control.to_dict()]):
            self.controls_published += 1
        else:
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

    def _take(self, records, controls) -> int:
        """Install one received delta; returns how many signatures were new.

        The controls are merged first, so the signatures install under
        the controls standing once the delta is in (a record that arrives
        with the disable outranking a local remove comes back disabled);
        then the controls that won are applied to what was already held.
        """
        if not records and not controls:
            return 0
        signatures = parse_signatures(records)
        self.unreadable += len(records) - len(signatures)
        with self._control_lock:
            _, won = self._state.absorb(controls=controls)
        self._installing.active = True
        try:
            added = install(self._history, self._state, signatures)
            for control in won:
                apply_control(self._history, control)
        finally:
            self._installing.active = False
        self.installed += added
        self.controls_applied += len(won)
        return added

    def pump(self) -> int:
        """Install newly arrived remote signatures; returns how many were new."""
        if self._detached:
            return 0
        try:
            delta = self._channel.receive()
        except Exception:
            return 0
        return self._take(*delta)

    def sync(self, timeout: float = 5.0) -> int:
        """Full two-way synchronization (used right after attaching).

        Sends every signature in the local history and every standing
        control (a restarted worker re-seeds the pool from its history
        file, and a send lost before the channel is made good; the
        channel keeps what it already carried off the wire and re-sends
        what its transport failed to write), then
        installs the pool's whole snapshot — signatures and standing
        controls.  Returns the number of signatures installed.
        """
        with self._control_lock:
            controls = [control.to_dict()
                        for control in self._state.controls.values()]
        records = [to_record(signature) for signature in self._history.signatures()]
        if records or controls:
            self._publish(records, controls)
        try:
            whole = self._channel.snapshot(timeout)
        except Exception:
            return 0
        return self._take(*whole)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Pump one last time, stop sending, and close the channel."""
        if self._detached:
            return
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
            "controls_published": self.controls_published,
            "controls_applied": self.controls_applied,
            "control_errors": self.control_errors,
            "rejected": self._channel.rejected + self.unreadable,
            "history_size": len(self._history),
        }
