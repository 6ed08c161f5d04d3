"""The daemonless transport: a gossip mesh with digest-first anti-entropy.

Daemons and shared files both centralize: one socket, one volume, one
thing to keep alive.  At multi-host scale the ROADMAP wants immunity
with *no single point of failure* — which is exactly what the immune
memory's shape already affords.  A node's state is one
:class:`~repro.share.state.PoolState`: a grow-only set of records keyed
by fingerprint, plus per fingerprint the greatest control under the
total order ``(clock, origin, action)``, with ``remove`` hiding a record
rather than deleting it.  That merge is a join, so any two nodes that
have seen the same records and controls — in whatever order, however
often — hold the same state: classic CRDT territory, and the reason
plain epidemic gossip converges here without coordination.

Every ``gossip://BIND?peers=...`` channel is a full mesh node:

* it listens on ``BIND`` (``HOST:PORT``; port ``0`` binds ephemerally),
* it **pushes** each locally published signature/control to every peer
  immediately (rumor spreading — latency of one hop per round-trip),
* a background thread runs an **anti-entropy round** every ``interval``
  seconds against one peer, repairing whatever pushes missed (partitions,
  peers that were down, lost rumors).

Anti-entropy is digest-first so steady state costs O(1) messages, not
O(history)::

    A -> B   {"op": "syn", "digest": sha256(state)}
    B -> A   {"op": "ack", "match": true}                    # done: 2 msgs
    --- or, on digest mismatch ---
    B -> A   {"op": "ack", "match": false,
              "fingerprints": [...], "control_stamps": {...}}
    A -> B   {"op": "data", signatures/controls B lacks,
              "want": fingerprints A lacks, "want_controls": [...]}
    B -> A   {"op": "data", "signatures": [...], "controls": [...]}

i.e. 2 messages when synchronized, 4 when not, each over one
short-lived TCP connection (no persistent sockets to babysit).

Failure policy matches the rest of ``repro.share``: an unreachable peer,
a poisoned JSON line, a half-closed socket — all are counted
(``io_errors`` / ``round_failures``) and never raised into the
application; the node simply keeps its local immunity and repairs when
the mesh heals.

A long-lived *seed node* (a peer that is always there to be gossiped
with, e.g. one per host) can be run standalone::

    python -m repro.share.gossip --bind 127.0.0.1:7400 \\
        --peers 127.0.0.1:7401,127.0.0.1:7402
"""

from __future__ import annotations

import argparse
import random
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from ..core.errors import ShareError
from ..core.signature import Signature
from . import wire
from .channel import HistoryChannel, split_spec_params
from .state import PoolState, parse_signatures

#: Wire protocol identifier (first field of every ``syn``).
PROTOCOL = "dimmunix-gossip/1"


def parse_gossip_params(rest: str, spec: str) -> Dict:
    """Parse the part after ``gossip://`` into :class:`GossipChannel` kwargs.

    Form: ``BIND?peers=HOST:PORT,HOST:PORT&interval=SECONDS`` where
    ``BIND`` is ``HOST:PORT`` (port ``0`` = ephemeral).
    """
    address, params = split_spec_params(rest)
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ShareError(
            f"gossip share spec needs gossip://HOST:PORT, got {spec!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ShareError(f"bad port in share spec {spec!r}") from exc
    peers = [peer for peer in params.pop("peers", "").split(",") if peer]
    for peer in peers:
        if ":" not in peer:
            raise ShareError(
                f"gossip peer {peer!r} in {spec!r} needs HOST:PORT")
    result: Dict = {"host": host, "port": port, "peers": peers}
    if "interval" in params:
        try:
            result["interval"] = float(params.pop("interval"))
        except ValueError as exc:
            raise ShareError(f"bad interval in share spec {spec!r}") from exc
    if params:
        unknown = ", ".join(sorted(params))
        raise ShareError(
            f"unknown gossip spec parameter(s) {unknown} in {spec!r} "
            "(known: peers, interval)")
    return result


class GossipChannel(HistoryChannel):
    """One node of a daemonless anti-entropy mesh."""

    supports_controls = True

    def __init__(self, host: str, port: int,
                 peers: Sequence[str] = (),
                 interval: float = 0.5,
                 node_name: Optional[str] = None,
                 connect_timeout: float = 1.0):
        super().__init__()
        self._host = host
        self._peers = list(peers)
        self._interval = max(0.01, interval)
        self._connect_timeout = connect_timeout
        self._node_name = node_name or f"gossip-{id(self):x}"
        #: ``_lock`` guards the replicated state and the inbound pending
        #: buffers; it is never held across network I/O.
        self._state = PoolState()
        self._pending_records: List[dict] = []
        self._pending_controls: List[dict] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._peer_last_success: Dict[str, float] = {}
        self._rng = random.Random()
        self.rounds = 0
        self.round_failures = 0
        self.pushes = 0
        self.io_errors = 0
        self._last_round_at: Optional[float] = None
        # Bind before anything else: an unusable BIND address is a
        # configuration error and the one failure that must raise.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
        except OSError as exc:
            listener.close()
            raise ShareError(
                f"cannot bind gossip node to {host}:{port}: {exc}") from exc
        listener.listen(64)
        self._port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dimmunix-gossip-accept",
            daemon=True)
        self._accept_thread.start()
        self._round_thread = threading.Thread(
            target=self._round_loop, name="dimmunix-gossip-rounds",
            daemon=True)
        self._round_thread.start()

    # -- identity ----------------------------------------------------------------------

    @property
    def bind(self) -> str:
        """The actual ``HOST:PORT`` this node listens on."""
        return f"{self._host}:{self._port}"

    @property
    def peers(self) -> List[str]:
        """The configured peer addresses."""
        return list(self._peers)

    def add_peer(self, peer: str) -> None:
        """Add a peer address at runtime (e.g. after an ephemeral bind)."""
        if peer not in self._peers:
            self._peers.append(peer)

    def describe(self) -> str:
        if self._peers:
            return f"gossip://{self.bind}?peers={','.join(self._peers)}"
        return f"gossip://{self.bind}"

    # -- HistoryChannel protocol -------------------------------------------------------

    def publish(self, signature: Signature) -> None:
        if self._closed or not self._fresh([signature]):
            return
        record = signature.to_dict()
        with self._lock:
            new = self._state.admit(record)
        if new:
            self._push({"signatures": [record]})

    def publish_control(self, control: Dict) -> None:
        if self._closed or not self._fresh_controls([control]):
            return
        with self._lock:
            _, won = self._state.absorb(controls=[control])
        if won:
            self._push({"controls": [won[0].to_dict()]})

    def poll(self) -> List[Signature]:
        if self._closed:
            return []
        with self._lock:
            records, self._pending_records = self._pending_records, []
        return self._fresh(parse_signatures(records))

    def poll_controls(self) -> List[Dict]:
        if self._closed:
            return []
        with self._lock:
            controls, self._pending_controls = self._pending_controls, []
        return self._fresh_controls(controls)

    def snapshot(self) -> List[Signature]:
        """Pull from every peer synchronously, then return all records.

        This is what makes a short-lived worker immune from its first
        instant: the pool's initial ``sync`` lands here, and one blocking
        anti-entropy sweep beats waiting for the background round timer.
        """
        if self._closed:
            return []
        for peer in list(self._peers):
            self._exchange(peer)
        with self._lock:
            records = self._state.visible()
        signatures = parse_signatures(records)
        self._fresh(signatures)
        return signatures

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._stopping.set()
        wire.hang_up(self._listener)

    # -- outbound: rumor push ----------------------------------------------------------

    def _push(self, payload: Dict) -> None:
        """Fire one ``push`` message at every peer (best effort)."""
        message = {"op": "push", "from": self.bind}
        message.update(payload)
        for peer in list(self._peers):
            if self._send_one(peer, message):
                self.pushes += 1
            else:
                self.io_errors += 1

    def _send_one(self, peer: str, message: Dict) -> bool:
        try:
            with self._connect(peer) as sock:
                wire.send(sock, message)
                # Wait for the one-byte-ish ack so the payload is known
                # to have been read, not merely buffered by the kernel.
                wire.reader(sock).readline()
            return True
        except OSError:
            return False

    def _connect(self, peer: str) -> socket.socket:
        host, _, port = peer.rpartition(":")
        sock = wire.no_delay(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
        sock.settimeout(self._connect_timeout)
        try:
            sock.connect((host, int(port)))
        except (OSError, ValueError):
            sock.close()
            raise OSError(f"cannot reach gossip peer {peer}")
        return sock

    # -- outbound: anti-entropy --------------------------------------------------------

    def _round_loop(self) -> None:
        while not self._stopping.wait(self._interval):
            self.run_round()

    def run_round(self) -> None:
        """One anti-entropy round against one (random) peer."""
        if not self._peers:
            return
        peer = self._rng.choice(self._peers)
        if self._exchange(peer):
            self.rounds += 1
            self._last_round_at = time.monotonic()
        else:
            self.round_failures += 1

    def _exchange(self, peer: str) -> bool:
        """Digest-first push-pull with ``peer``; True on success."""
        try:
            with self._connect(peer) as sock:
                lines = wire.reader(sock)
                with self._lock:
                    digest = self._state.digest()
                wire.send(sock, {"op": "syn", "protocol": PROTOCOL,
                                 "digest": digest, "from": self.bind})
                ack = wire.recv(lines)
                if ack is None or ack.get("op") != "ack":
                    return False
                if not ack.get("match"):
                    with self._lock:
                        signatures, controls, want, want_controls = (
                            self._state.diff(ack.get("fingerprints", []),
                                             ack.get("control_stamps", {})))
                    wire.send(sock, {"op": "data", "signatures": signatures,
                                     "controls": controls, "want": want,
                                     "want_controls": want_controls})
                    data = wire.recv(lines)
                    if data is None or data.get("op") != "data":
                        return False
                    self._merge_payload(data)
                self._peer_last_success[peer] = time.monotonic()
                return True
        except (OSError, ValueError):
            # ValueError: a reply that is not a JSON object, or an ack
            # whose summary is malformed.
            return False

    def _merge_payload(self, message: Dict) -> None:
        with self._lock:
            records, controls = self._state.absorb(
                message.get("signatures", ()), message.get("controls", ()))
            self._pending_records.extend(records)
            self._pending_controls.extend(
                control.to_dict() for control in controls)

    # -- inbound -----------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(wire.no_delay(sock),),
                name="dimmunix-gossip-serve", daemon=True).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            if self._stopping.is_set():  # accepted as close() ran
                return
            sock.settimeout(self._connect_timeout * 5)
            lines = wire.reader(sock)
            message = wire.recv(lines)
            if message is None:
                return
            op = message.get("op")
            if op == "push":
                self._merge_payload(message)
                wire.send(sock, {"op": "ok"})
            elif op == "syn":
                with self._lock:
                    summary = (None
                               if message.get("digest") == self._state.digest()
                               else self._state.summary())
                if summary is None:
                    wire.send(sock, {"op": "ack", "match": True})
                    return
                wire.send(sock, {"op": "ack", "match": False,
                                 "fingerprints": summary[0],
                                 "control_stamps": summary[1]})
                data = wire.recv(lines)
                if data is None:
                    return
                if data.get("op") != "data":
                    self.io_errors += 1
                    return
                self._merge_payload(data)
                with self._lock:
                    signatures, controls = self._state.pick(
                        data.get("want", ()), data.get("want_controls", ()))
                wire.send(sock, {"op": "data", "signatures": signatures,
                                 "controls": controls})
            else:
                wire.send(sock, {"op": "error",
                                 "error": f"unknown op {op!r}"})
        except (OSError, ValueError):
            # ValueError: a line that is not a JSON object.
            self.io_errors += 1
        finally:
            wire.hang_up(sock)

    # -- introspection -----------------------------------------------------------------

    def status(self) -> Dict:
        """Mesh counters for ``histctl pool-status``."""
        now = time.monotonic()
        with self._lock:
            counts = self._state.counts()
        peer_lag = {}
        for peer in self._peers:
            seen = self._peer_last_success.get(peer)
            peer_lag[peer] = (None if seen is None
                              else round(now - seen, 3))
        last_age = (None if self._last_round_at is None
                    else round(now - self._last_round_at, 3))
        return {"transport": "gossip", "bind": self.bind,
                "node": self._node_name, "peers": list(self._peers),
                **counts, "rounds": self.rounds,
                "round_failures": self.round_failures,
                "last_round_age": last_age, "peer_lag": peer_lag,
                "pushes": self.pushes, "io_errors": self.io_errors}


# ---------------------------------------------------------------------------
# Standalone seed node
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.share.gossip",
        description="Long-lived dimmunix gossip seed node (one per host).")
    parser.add_argument("--bind", metavar="HOST:PORT", required=True,
                        help="address to listen on (port 0 = ephemeral)")
    parser.add_argument("--peers", metavar="HOST:PORT,...", default="",
                        help="comma-separated seed peers to gossip with")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="seconds between anti-entropy rounds")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    rest = args.bind
    if args.peers:
        rest += f"?peers={args.peers}"
    try:
        params = parse_gossip_params(rest, f"gossip://{rest}")
        node = GossipChannel(node_name="seed", interval=args.interval,
                             **params)
    except ShareError as exc:
        print(f"gossip: {exc}", file=sys.stderr)
        return 1
    print(f"dimmunix gossip seed listening on gossip://{node.bind}",
          flush=True)
    try:
        while True:
            threading.Event().wait(3600)
    except KeyboardInterrupt:
        pass
    finally:
        node.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
