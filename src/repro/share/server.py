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
            ``"snapshot": false``), then pushes ``signature`` messages
publish     offer one signature record; new ones are merged into the
            master history and broadcast to every *other* subscriber
control     fleet management (disable / enable / remove a fingerprint);
            applied to the master history, broadcast, and federated
snapshot    answer with the full pool as one ``snapshot`` message
            (signatures plus the latest control per fingerprint)
status      answer with pool counters (``pool-status`` subcommand)
ping        answer ``pong`` (liveness probes)
========== ==========================================================

**Federation** (``--upstream SPEC``, repeatable): the daemon can itself
subscribe to upstream daemons — or any other share transport — turning
N per-host hubs plus one spine daemon into a fleet-wide pool.  A
federation thread polls each upstream, merges what it learns, and
broadcasts it downstream; local publishes and controls are forwarded
upstream.  Upstream links reuse :class:`SocketChannel` semantics
(snapshot-then-stream, reconnect-with-resnapshot), so a restarted spine
repopulates every leaf automatically.

Signature payloads are plain ``Signature.to_dict()`` records — the same
v1/v2 format as history files (``docs/signature-format.md``).  What the
pool holds and how it merges is a :class:`~repro.share.state.PoolState`;
the master history is its persistent, queryable mirror.

Run it standalone with either front end::

    python -m repro.share.server --unix /run/app/pool.sock
    python -m repro.tools.histctl serve --tcp 127.0.0.1:7341 --history pool.json
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from ..core.errors import ShareError, SignatureError
from ..core.history import History
from ..core.signature import Signature
from . import wire
from .state import (Control, PoolState, apply_control, install,
                    parse_control)

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
                 history_path: Optional[str] = None,
                 upstreams: Optional[Sequence[str]] = None,
                 federation_interval: float = 0.25):
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
        # -- federation state
        self._upstream_specs: List[str] = list(upstreams or [])
        self._federation_interval = max(0.01, federation_interval)
        self._upstream_channels: Dict[str, object] = {}
        self._upstream_lock = threading.Lock()
        self._federation_rounds = 0
        self._federated_in = 0
        self._federated_out = 0
        self._federation_errors = 0
        self._last_round_at: Optional[float] = None

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
        if self._upstream_specs:
            federator = threading.Thread(
                target=self._federation_loop,
                name="dimmunix-share-federate", daemon=True)
            federator.start()
            self._threads.append(federator)
        return self

    def stop(self) -> None:
        """Close the listener and every client connection."""
        self._stopping.set()
        with self._upstream_lock:
            upstream_channels = list(self._upstream_channels.values())
            self._upstream_channels.clear()
        for channel in upstream_channels:
            try:
                channel.close()
            except Exception:
                pass
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
        elif op == "control":
            self._handle_control(client, message)
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
        record = message.get("signature")
        if not isinstance(record, dict):
            client.send({"op": "error", "error": "publish without signature"})
            return
        try:
            signature = Signature.from_dict(record)
        except SignatureError as exc:
            client.send({"op": "error", "error": f"bad signature: {exc}"})
            return
        self._published += 1
        if self._admit(signature, exclude=client):
            self._forward_upstream("publish", signature)

    def _admit(self, signature: Signature,
               exclude: Optional[_ClientConnection]) -> bool:
        """Merge one signature; when new and visible, install and broadcast."""
        record = signature.to_dict()
        with self._state_lock:
            if not self._state.admit(record):
                return False
        install(self.history, self._state, [signature])
        self._broadcast({"op": "signature", "signature": record}, exclude)
        return True

    def _handle_control(self, client: _ClientConnection,
                        message: Dict) -> None:
        control = parse_control(message.get("control"))
        if control is None:
            client.send({"op": "error", "error": "bad control record"})
        elif self._enact_control(control, exclude=client):
            self._forward_upstream("publish_control", control.to_dict())

    def _enact_control(self, control: Control,
                       exclude: Optional[_ClientConnection]) -> bool:
        """Merge one control; when it wins, apply and broadcast it."""
        with self._state_lock:
            if not self._state.merge_control(control):
                return False
        apply_control(self.history, control)
        self._broadcast({"op": "control", "control": control.to_dict()},
                        exclude)
        return True

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

    # -- federation --------------------------------------------------------------------

    def _upstream_channel(self, spec: str):
        """The open channel to ``spec``, (re)opened on demand."""
        with self._upstream_lock:
            channel = self._upstream_channels.get(spec)
        if channel is not None:
            return channel
        from .channel import open_channel  # deferred: avoids import cycles
        try:
            channel = open_channel(spec, client_name=f"federation:{self.spec}")
        except ShareError:
            self._federation_errors += 1
            return None
        with self._upstream_lock:
            if self._stopping.is_set():
                channel.close()
                return None
            self._upstream_channels[spec] = channel
        return channel

    def _drop_upstream(self, spec: str) -> None:
        with self._upstream_lock:
            channel = self._upstream_channels.pop(spec, None)
        if channel is not None:
            try:
                channel.close()
            except Exception:
                pass

    def _federation_loop(self) -> None:
        while not self._stopping.wait(self._federation_interval):
            self.federation_round()

    def federation_round(self) -> None:
        """Poll every upstream once, merging and re-broadcasting news."""
        for spec in self._upstream_specs:
            channel = self._upstream_channel(spec)
            if channel is None:
                continue
            try:
                signatures = channel.poll()
                controls = channel.poll_controls()
            except Exception:
                self._federation_errors += 1
                self._drop_upstream(spec)
                continue
            if not getattr(channel, "connected", True):
                # Socket links degrade silently rather than raising; treat
                # a lost connection as a failed round so the upstream is
                # reopened (with a fresh snapshot) once it comes back.
                self._federation_errors += 1
                self._drop_upstream(spec)
                continue
            for signature in signatures:
                self._federated_in += 1
                self._admit(signature, exclude=None)
            for raw in controls:
                self._federated_in += 1
                control = parse_control(raw)
                if control is not None and self._enact_control(
                        control, exclude=None):
                    self._forward_upstream("publish_control",
                                           control.to_dict(), skip=spec)
        self._federation_rounds += 1
        self._last_round_at = time.monotonic()

    def _forward_upstream(self, send: str, payload,
                          skip: Optional[str] = None) -> None:
        """Call ``channel.<send>(payload)`` on every upstream but ``skip``."""
        for spec in self._upstream_specs:
            if spec == skip:
                continue
            channel = self._upstream_channel(spec)
            if channel is None:
                continue
            try:
                # Per-channel dedup suppresses echo: anything this link
                # delivered via poll() is already marked as carried.
                getattr(channel, send)(payload)
                self._federated_out += 1
            except Exception:
                self._federation_errors += 1
                self._drop_upstream(spec)

    # -- introspection -----------------------------------------------------------------

    def status(self) -> Dict:
        """Pool counters, also used as the ``status`` protocol answer."""
        with self._clients_lock:
            clients = len(self._clients)
            subscribed = sum(1 for c in self._clients if c.subscribed)
        with self._state_lock:
            counts = self._state.counts()
        status = {"op": "status", "transport": "daemon", "spec": self.spec,
                  **counts, "clients": clients,
                  "subscribers": subscribed, "publishes": self._published,
                  "broadcasts": self._broadcast_count,
                  "history_path": self.history.path}
        if self._upstream_specs:
            with self._upstream_lock:
                connected = len(self._upstream_channels)
            last_age = (None if self._last_round_at is None
                        else round(time.monotonic() - self._last_round_at, 3))
            status.update({
                "upstreams": list(self._upstream_specs),
                "upstreams_connected": connected,
                "federation_rounds": self._federation_rounds,
                "federated_in": self._federated_in,
                "federated_out": self._federated_out,
                "federation_errors": self._federation_errors,
                "last_federation_round_age": last_age,
            })
        return status


def serve_forever(server: HistoryServer) -> None:
    """Run ``server`` until interrupted (the daemon main loop)."""
    server.start()
    print(f"dimmunix history daemon listening on {server.spec}", flush=True)
    try:
        while True:
            threading.Event().wait(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.share.server",
        description="Dimmunix signature-pool daemon.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--unix", metavar="PATH",
                       help="listen on a Unix socket at PATH")
    group.add_argument("--tcp", metavar="HOST:PORT",
                       help="listen on HOST:PORT")
    parser.add_argument("--history", metavar="FILE", default=None,
                        help="persist the pooled history to FILE")
    parser.add_argument("--upstream", metavar="SPEC", action="append",
                        default=[], dest="upstreams",
                        help="federate with an upstream share SPEC "
                             "(repeatable), e.g. tcp://spine:7341")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        if not host:
            print(f"--tcp needs HOST:PORT, got {args.tcp!r}", file=sys.stderr)
            return 2
        server = HistoryServer(host=host, port=int(port),
                               history_path=args.history,
                               upstreams=args.upstreams)
    else:
        server = HistoryServer(unix_path=args.unix, history_path=args.history,
                               upstreams=args.upstreams)
    try:
        serve_forever(server)
    except ShareError as exc:
        print(f"server: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
