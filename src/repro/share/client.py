"""The daemon-backed :class:`HistoryChannel` used by worker processes.

A :class:`SocketChannel` connects to a :mod:`repro.share.server` daemon,
subscribes to the signature stream, and buffers everything the daemon
pushes; the :class:`~repro.share.pool.SignaturePool` drains the buffer on
each monitor pass.  A send writes one ``publish`` line and returns — there
is no acknowledgement to wait for, because losing a publish merely delays
pool convergence until the next worker learns the same signature.

Failure behaviour: a dead daemon never breaks the application.  Sends
and receives on a dead connection are no-ops (a failed write counts in
``io_errors``, and its delta stays owed until a later send gets it
out), and each of them transparently attempts one reconnect per
``reconnect_interval`` seconds, re-subscribing with a fresh snapshot so
a restarted daemon repopulates the worker.  Explicit questions
(``snapshot``/``status``) raise :class:`~repro.core.errors.ShareError`
on timeout instead, because their callers need the truth.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Optional, Tuple

from ..core.errors import ShareError
from . import wire
from .channel import Delta, HistoryChannel

#: Address forms accepted by :class:`SocketChannel`.
Address = Tuple


class SocketChannel(HistoryChannel):
    """A :class:`HistoryChannel` speaking the daemon's JSON-lines protocol."""

    def __init__(self, address: Address, client_name: Optional[str] = None,
                 connect_timeout: float = 5.0,
                 reconnect_interval: float = 1.0):
        super().__init__()
        if address[0] not in ("tcp", "unix"):
            raise ShareError(f"unknown socket address kind {address[0]!r}")
        self._address = address
        self._client_name = client_name or f"worker-{id(self):x}"
        self._connect_timeout = connect_timeout
        self._reconnect_interval = reconnect_interval
        self._sock: Optional[socket.socket] = None
        self._reader_thread: Optional[threading.Thread] = None
        self._write_lock = threading.Lock()
        #: What the daemon pushed since the last receive.
        self._pending: Delta = ([], [])
        self._pending_lock = threading.Lock()
        self._connected = threading.Event()
        self._synced = threading.Event()
        self._snapshot_payload: Delta = ([], [])
        self._snapshot_event = threading.Event()
        self._status_payload: Optional[Dict] = None
        self._status_event = threading.Event()
        self._last_reconnect = 0.0
        self._reconnect_lock = threading.Lock()
        self.io_errors = 0
        self._connect()

    # -- connection management ---------------------------------------------------------

    def _connect(self) -> None:
        kind = self._address[0]
        try:
            if kind == "unix":
                if not hasattr(socket, "AF_UNIX"):
                    raise ShareError(
                        "unix sockets are not available on this platform")
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._connect_timeout)
                sock.connect(self._address[1])
            else:
                sock = wire.no_delay(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
                sock.settimeout(self._connect_timeout)
                sock.connect((self._address[1], self._address[2]))
        except OSError as exc:
            raise ShareError(
                f"cannot reach history daemon at {self.describe()}: {exc}"
            ) from exc
        sock.settimeout(None)
        self._sock = sock
        self._connected.set()
        self._reader_thread = threading.Thread(
            target=self._reader_loop, args=(sock,),
            name="dimmunix-share-reader", daemon=True)
        self._reader_thread.start()
        self._write({"op": "hello", "client": self._client_name})
        self._write({"op": "subscribe", "snapshot": True})

    def _maybe_reconnect(self) -> None:
        if self._closed or self._connected.is_set():
            return
        # One reconnector at a time: without the lock, the monitor thread
        # and an application thread could both pass the interval check and
        # open two sockets (orphaning one plus its reader thread).
        if not self._reconnect_lock.acquire(blocking=False):
            return
        try:
            if self._closed or self._connected.is_set():
                return
            now = time.monotonic()
            if now - self._last_reconnect < self._reconnect_interval:
                return
            self._last_reconnect = now
            try:
                self._connect()
            except ShareError:
                self.io_errors += 1
        finally:
            self._reconnect_lock.release()

    @property
    def connected(self) -> bool:
        """True while the daemon connection is believed alive."""
        return self._connected.is_set()

    def describe(self) -> str:
        if self._address[0] == "unix":
            return f"unix://{self._address[1]}"
        return f"tcp://{self._address[1]}:{self._address[2]}"

    # -- wire I/O ----------------------------------------------------------------------

    def _write(self, message: Dict) -> bool:
        sock = self._sock
        if sock is None or not self._connected.is_set():
            return False
        try:
            with self._write_lock:
                wire.send(sock, message)
            return True
        except OSError:
            self.io_errors += 1
            self._mark_disconnected()
            return False

    def _mark_disconnected(self) -> None:
        self._connected.clear()
        sock = self._sock
        self._sock = None
        if sock is not None:
            wire.hang_up(sock)

    def _reader_loop(self, sock: socket.socket) -> None:
        try:
            for line in wire.reader(sock):
                try:
                    message = wire.decode(line)
                except ValueError:
                    continue
                self._handle(message)
        except (OSError, ValueError):
            # ValueError: the makefile was closed under us during shutdown.
            pass
        finally:
            if sock is self._sock:
                self._mark_disconnected()

    def _handle(self, message: Dict) -> None:
        op = message.get("op")
        if op in ("publish", "snapshot"):
            delta = (wire.items(message.get("signatures", [])),
                     wire.items(message.get("controls", [])))
            with self._pending_lock:
                self._pending[0].extend(delta[0])
                self._pending[1].extend(delta[1])
            if op == "snapshot":
                self._snapshot_payload = delta
                self._snapshot_event.set()
                self._synced.set()
        elif op == "status":
            self._status_payload = message
            self._status_event.set()
        # welcome / pong / error need no routing

    # -- the channel contract ----------------------------------------------------------

    def _send(self, records, controls) -> bool:
        self._maybe_reconnect()
        return self._write({"op": "publish", "signatures": records,
                            "controls": controls})

    def _receive(self) -> Delta:
        self._maybe_reconnect()
        with self._pending_lock:
            delta, self._pending = self._pending, ([], [])
        return delta

    def _snapshot(self, timeout: float) -> Delta:
        self._maybe_reconnect()
        self._snapshot_event.clear()
        if not self._write({"op": "snapshot"}):
            raise ShareError(f"history daemon at {self.describe()} is gone")
        if not self._snapshot_event.wait(timeout):
            raise ShareError(
                f"no snapshot from {self.describe()} within {timeout}s")
        return self._snapshot_payload

    def status(self, timeout: float = 5.0) -> Dict:
        """Ask the daemon for its pool counters (histctl pool-status)."""
        if self._closed:
            raise ShareError("channel is closed")
        self._maybe_reconnect()
        self._status_event.clear()
        if not self._write({"op": "status"}):
            raise ShareError(f"history daemon at {self.describe()} is gone")
        if not self._status_event.wait(timeout):
            raise ShareError(
                f"no status from {self.describe()} within {timeout}s")
        return dict(self._status_payload or {})

    def wait_synced(self, timeout: float = 5.0) -> bool:
        """Block until the initial subscribe snapshot arrived."""
        return self._synced.wait(timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._write({"op": "bye"})
        super().close()
        self._mark_disconnected()
        thread = self._reader_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=1.0)
