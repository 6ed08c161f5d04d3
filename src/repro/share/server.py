"""The history daemon: one process pooling signatures for a worker fleet.

The daemon owns a master :class:`~repro.core.history.History` (optionally
file-backed, so the pool survives daemon restarts) and speaks a
JSON-lines protocol over a Unix or TCP socket.  Every message is one JSON
object per ``\\n``-terminated line.  Client requests:

========== ==========================================================
op          meaning
========== ==========================================================
hello       identify; server answers ``welcome`` with the pool size
subscribe   start streaming; server first answers ``snapshot`` (unless
            ``"snapshot": false``), then pushes ``publish`` messages
publish     offer a delta: ``signatures`` and ``controls`` lists.  What
            is new (a record) or wins (a control) is applied to the
            master history and pushed to every *other* subscriber in
            one ``publish``; malformed entries are answered ``error``
snapshot    answer with the full pool as one ``snapshot`` message
            (visible signatures plus the standing control per fingerprint)
status      answer with pool counters (``pool-status`` subcommand)
ping        answer ``pong`` (liveness probes)
========== ==========================================================

Signature payloads are plain ``Signature.to_dict()`` records — the same
v1/v2 format as history files (``docs/signature-format.md``).  What the
pool holds and how it merges is a :class:`~repro.share.state.PoolState`;
the master history is its persistent, queryable mirror.

Run it with ``histctl serve``::

    python -m repro.tools.histctl serve unix:///run/app/pool.sock --history pool.json
    python -m repro.tools.histctl serve tcp://127.0.0.1:7341
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Dict, List, Optional

from ..core.errors import ShareError
from ..core.history import History
from . import wire
from .state import PoolState, apply_control, install, parse_signatures

#: Protocol identifier sent in ``welcome`` messages.
PROTOCOL = "dimmunix-share/1"


class _ClientConnection:
    """Server-side state of one connected worker."""

    _ids = 0
    _ids_lock = threading.Lock()

    def __init__(self, sock: socket.socket):
        with _ClientConnection._ids_lock:
            _ClientConnection._ids += 1
            self.client_id = _ClientConnection._ids
        self.sock = sock
        self.reader = wire.reader(sock)
        self.subscribed = False
        self.name = f"client-{self.client_id}"
        self._write_lock = threading.Lock()
        self.alive = True

    def send(self, message: Dict) -> bool:
        """Serialize and send one message; False when the peer is gone."""
        try:
            with self._write_lock:
                wire.send(self.sock, message)
            return True
        except OSError:
            self.alive = False
            return False

    def close(self) -> None:
        self.alive = False
        # Hang up FIRST: the shutdown wakes a handler thread blocked in
        # readline() with EOF.  Closing the buffered reader while that
        # thread still blocks inside it would deadlock on the io buffer
        # lock.
        wire.hang_up(self.sock)
        try:
            self.reader.close()
        except (OSError, ValueError):
            pass


class HistoryServer:
    """A threaded signature-pool daemon over a Unix or TCP socket."""

    def __init__(self, unix_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 history: Optional[History] = None,
                 history_path: Optional[str] = None):
        if (unix_path is None) == (host is None):
            raise ShareError("pass exactly one of unix_path or host")
        if unix_path is not None and not hasattr(socket, "AF_UNIX"):
            raise ShareError("unix sockets are not available on this platform")
        self._unix_path = unix_path
        self._host = host
        self._port = port
        self.history = history if history is not None else History(
            path=history_path, autosave=history_path is not None)
        self._listener: Optional[socket.socket] = None
        self._clients: List[_ClientConnection] = []
        self._clients_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._published = 0
        self._broadcast_count = 0
        # -- the replicated pool state, seeded from a persisted history.
        # It carries the standing control per fingerprint, so late
        # subscribers learn "this fingerprint is disabled" from the
        # snapshot instead of replaying history.
        self._state = PoolState()
        self._state_lock = threading.Lock()
        self._state.absorb([signature.to_dict()
                            for signature in self.history.signatures()])

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "HistoryServer":
        """Bind, listen, and start the accept loop (non-blocking)."""
        if self._unix_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            listener.bind(self._unix_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._port = listener.getsockname()[1]
        listener.listen(64)
        self._listener = listener
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="dimmunix-share-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def stop(self) -> None:
        """Close the listener and every client connection."""
        self._stopping.set()
        if self._listener is not None:
            # Not a bare close(): the acceptor thread would keep the port
            # listening, and a reconnecting client could be "served" by a
            # stopped daemon.
            wire.hang_up(self._listener)
            self._listener = None
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        with self._clients_lock:
            clients = list(self._clients)
            self._clients.clear()
        for client in clients:
            client.close()
        if self.history.path is not None:
            self.history.save()

    def __enter__(self) -> "HistoryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def spec(self) -> str:
        """The share spec clients should use to reach this daemon."""
        if self._unix_path is not None:
            return f"unix://{self._unix_path}"
        return f"tcp://{self._host}:{self._port}"

    @property
    def port(self) -> int:
        """The bound TCP port (0 for Unix-socket servers)."""
        return self._port if self._host is not None else 0

    # -- accept / serve ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:  # stop() ran between the checks
                return
            try:
                sock, _addr = listener.accept()
            except OSError:
                return
            if self._stopping.is_set():
                # stop() ran while we were blocked in accept(): do not
                # hand this connection to a handler thread of a daemon
                # that is already gone.
                wire.hang_up(sock)
                return
            client = _ClientConnection(wire.no_delay(sock))
            with self._clients_lock:
                self._clients.append(client)
            # Handler threads are daemons tied to their connection's
            # lifetime; they are deliberately not tracked — a long-lived
            # daemon accepting short-lived probes must not accumulate
            # per-connection state forever.
            threading.Thread(
                target=self._serve_client, args=(client,),
                name=f"dimmunix-share-{client.client_id}",
                daemon=True).start()

    def _serve_client(self, client: _ClientConnection) -> None:
        try:
            for line in client.reader:
                if not line.strip():
                    continue
                try:
                    message = wire.decode(line)
                except ValueError:
                    client.send({"op": "error",
                                 "error": "not a JSON object"})
                    continue
                if not self._dispatch(client, message):
                    return
        except (OSError, ValueError):
            # ValueError: the makefile was closed under us during shutdown.
            pass
        finally:
            self._drop_client(client)

    def _drop_client(self, client: _ClientConnection) -> None:
        with self._clients_lock:
            if client in self._clients:
                self._clients.remove(client)
        client.close()

    # -- message handling --------------------------------------------------------------

    def _dispatch(self, client: _ClientConnection, message: Dict) -> bool:
        op = message.get("op")
        if op == "hello":
            client.name = str(message.get("client", client.name))
            client.send({"op": "welcome", "protocol": PROTOCOL,
                         "format_version": 2,
                         "signatures": len(self.history)})
        elif op == "subscribe":
            client.subscribed = True
            if message.get("snapshot", True):
                client.send(self._snapshot_message())
        elif op == "publish":
            self._handle_publish(client, message)
        elif op == "snapshot":
            client.send(self._snapshot_message())
        elif op == "status":
            client.send(self.status())
        elif op == "ping":
            client.send({"op": "pong"})
        elif op == "bye":
            return False
        else:
            client.send({"op": "error", "error": f"unknown op {op!r}"})
        return True

    def _snapshot_message(self) -> Dict:
        with self._state_lock:
            records, controls = self._state.snapshot()
        return {"op": "snapshot", "format_version": 2,
                "signatures": records, "controls": controls}

    def _handle_publish(self, client: _ClientConnection, message: Dict) -> None:
        self._published += 1
        with self._state_lock:
            refused = self._state.rejected
            records, won = self._state.absorb(
                wire.items(message.get("signatures", [])),
                wire.items(message.get("controls", [])))
            refused = self._state.rejected - refused
        if refused:
            client.send({"op": "error",
                         "error": f"refused {refused} malformed record(s)"})
        if not records and not won:
            return
        install(self.history, self._state, parse_signatures(records))
        for control in won:
            apply_control(self.history, control)
        self._broadcast({"op": "publish", "signatures": records,
                         "controls": [control.to_dict() for control in won]},
                        exclude=client)

    def _broadcast(self, message: Dict,
                   exclude: Optional[_ClientConnection]) -> None:
        with self._clients_lock:
            targets = [c for c in self._clients
                       if c.subscribed and c is not exclude]
        for target in targets:
            if target.send(message):
                self._broadcast_count += 1
            else:
                self._drop_client(target)

    # -- introspection -----------------------------------------------------------------

    def status(self) -> Dict:
        """Pool counters, also used as the ``status`` protocol answer."""
        with self._clients_lock:
            clients = len(self._clients)
            subscribed = sum(1 for c in self._clients if c.subscribed)
        with self._state_lock:
            counts = self._state.counts()
        return {"op": "status", "transport": "daemon", "spec": self.spec,
                **counts, "clients": clients,
                "subscribers": subscribed, "publishes": self._published,
                "broadcasts": self._broadcast_count,
                "history_path": self.history.path}
