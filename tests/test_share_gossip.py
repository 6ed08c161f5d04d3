"""Tests for the daemonless gossip transport (repro.share.gossip).

Exercises the mesh node in-process: spec parsing, digest-first
anti-entropy convergence, the CRDT merge rules (grow-only signatures,
LWW controls, remove-tombstones), and the never-raise failure policy
(unreachable peers, poisoned JSON).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core.callstack import CallStack
from repro.core.errors import ShareError
from repro.core.signature import Signature
from repro.share import GossipChannel, make_control, open_channel, parse_share_spec
from repro.share.gossip import parse_gossip_params
from repro.share.state import Control


def make_signature(label: str) -> Signature:
    return Signature([CallStack.from_labels([f"{label}:1", "main:0"]),
                      CallStack.from_labels([f"{label}:2", "main:0"])])


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def mesh():
    """Two connected nodes with the background round timer effectively off."""
    a = GossipChannel("127.0.0.1", 0, interval=60.0, node_name="a")
    b = GossipChannel("127.0.0.1", 0, peers=[a.bind], interval=60.0,
                      node_name="b")
    a.add_peer(b.bind)
    yield a, b
    a.close(), b.close()


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class TestGossipSpecParsing:
    def test_full_spec(self):
        params = parse_gossip_params(
            "0.0.0.0:7400?peers=h1:7400,h2:7400&interval=0.2",
            "gossip://...")
        assert params == {"host": "0.0.0.0", "port": 7400,
                          "peers": ["h1:7400", "h2:7400"], "interval": 0.2}

    def test_no_peers_is_a_listen_only_node(self):
        assert parse_gossip_params("127.0.0.1:0", "spec") == {
            "host": "127.0.0.1", "port": 0, "peers": []}

    def test_missing_port_raises(self):
        with pytest.raises(ShareError):
            parse_gossip_params("justahost", "gossip://justahost")

    def test_bad_port_raises(self):
        with pytest.raises(ShareError):
            parse_gossip_params("host:notaport", "gossip://host:notaport")

    def test_peer_without_port_raises(self):
        with pytest.raises(ShareError):
            parse_gossip_params("h:1?peers=naked", "gossip://h:1?peers=naked")

    def test_unknown_params_name_the_known_set(self):
        with pytest.raises(ShareError) as err:
            parse_gossip_params("h:1?fanout=3", "gossip://h:1?fanout=3")
        assert "peers, interval" in str(err.value)

    def test_parse_share_spec_routes_gossip(self):
        scheme, params = parse_share_spec("gossip://127.0.0.1:0?peers=h:7400")
        assert scheme == "gossip"
        assert params["peers"] == ["h:7400"]

    def test_open_channel_builds_a_node(self):
        channel = open_channel("gossip://127.0.0.1:0", client_name="w1")
        try:
            assert isinstance(channel, GossipChannel)
            assert channel.bind.startswith("127.0.0.1:")
            assert not channel.bind.endswith(":0")  # ephemeral port resolved
        finally:
            channel.close()


# ---------------------------------------------------------------------------
# Anti-entropy convergence
# ---------------------------------------------------------------------------


class TestGossipConvergence:
    def test_push_reaches_the_peer_immediately(self, mesh):
        a, b = mesh
        a.send([make_signature("rumor").to_dict()])
        assert wait_until(lambda: len(b.receive()[0]) == 1)
        # No echo back to the publisher.
        assert a.receive() == ([], [])

    def test_round_repairs_a_missed_push(self, mesh):
        a, b = mesh
        # Inject state into `a` only, bypassing the push path, as if the
        # rumor had been lost to a partition.
        assert a._state.admit(make_signature("lost").to_dict())
        b.run_round()
        assert wait_until(lambda: len(b.receive()[0]) == 1)
        assert b.rounds == 1

    def test_digests_match_after_convergence(self, mesh):
        a, b = mesh
        a.send([make_signature("one").to_dict()])
        b.send([make_signature("two").to_dict()])
        assert wait_until(
            lambda: a._state.digest() == b._state.digest(), timeout=5.0)
        # A synchronized round costs the 2-message fast path and succeeds.
        before = a.rounds
        a.run_round()
        assert a.rounds == before + 1

    def test_snapshot_pulls_synchronously(self, mesh):
        a, b = mesh
        a.send([make_signature("old").to_dict()])
        # A fresh joiner snapshot sees the mesh state without waiting for
        # any background round.
        c = GossipChannel("127.0.0.1", 0, peers=[a.bind], interval=60.0)
        try:
            assert len(c.snapshot()[0]) == 1
        finally:
            c.close()


# ---------------------------------------------------------------------------
# Control plane: LWW registers and tombstones
# ---------------------------------------------------------------------------


class TestGossipControls:
    def test_controls_propagate(self, mesh):
        a, b = mesh
        fp = make_signature("bad").fingerprint
        a.send(controls=[make_control("disable", fp, clock=1, origin="a")])
        assert wait_until(
            lambda: any(c["fingerprint"] == fp for c in b.receive()[1]))

    def test_higher_clock_wins(self, mesh):
        a, b = mesh
        fp = "fp-lww"
        b._state.merge_control(Control(5, "b", "disable", fp))
        a.send(controls=[make_control("enable", fp, clock=9, origin="a")])
        assert wait_until(
            lambda: b._state.controls[fp].action == "enable")

    def test_lower_clock_loses(self, mesh):
        a, b = mesh
        fp = "fp-stale"
        b._state.merge_control(Control(9, "b", "enable", fp))
        a.send(controls=[make_control("disable", fp, clock=2, origin="a")])
        time.sleep(0.2)
        assert b._state.controls[fp].action == "enable"
        assert b.receive()[1] == []

    def test_remove_tombstone_blocks_resurrection(self, mesh):
        a, b = mesh
        signature = make_signature("zombie")
        fp = signature.fingerprint
        b._state.merge_control(Control(3, "ctl", "remove", fp))
        a.send([signature.to_dict()])
        time.sleep(0.2)
        assert b.receive() == ([], [])
        assert b._state.hidden(fp)
        assert b._state.visible() == []


def push(node: GossipChannel, **payload) -> None:
    """Deliver one rumor to ``node`` the way a peer would."""
    host, _, port = node.bind.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(json.dumps({"op": "push", **payload}).encode() + b"\n")
        assert json.loads(sock.makefile("r").readline()) == {"op": "ok"}


class TestGossipOrderIndependence:
    """The same rumors in opposite orders must leave two nodes equal."""

    @pytest.fixture
    def strangers(self):
        a = GossipChannel("127.0.0.1", 0, interval=60.0, node_name="a")
        b = GossipChannel("127.0.0.1", 0, interval=60.0, node_name="b")
        yield a, b
        a.close(), b.close()

    def assert_converged(self, a, b):
        for key in ("signatures", "controls", "disabled_fingerprints"):
            assert a.status()[key] == b.status()[key]
        assert a._state == b._state
        assert a._state.digest() == b._state.digest()
        # Equal digests: a round between them is the 2-message fast path.
        a.add_peer(b.bind)
        a.run_round()
        assert (a.rounds, a.round_failures) == (1, 0)

    def test_equal_stamps_with_different_actions(self, strangers):
        a, b = strangers
        disable = make_control("disable", "fp-tie", clock=1, origin="o")
        enable = make_control("enable", "fp-tie", clock=1, origin="o")
        push(a, controls=[disable]), push(a, controls=[enable])
        push(b, controls=[enable]), push(b, controls=[disable])
        self.assert_converged(a, b)
        assert a.status()["disabled_fingerprints"] == 0   # enable > disable

    def test_remove_before_and_after_its_record(self, strangers):
        a, b = strangers
        signature = make_signature("reordered")
        remove = make_control("remove", signature.fingerprint, clock=3,
                              origin="ctl")
        push(a, signatures=[signature.to_dict()]), push(a, controls=[remove])
        push(b, controls=[remove]), push(b, signatures=[signature.to_dict()])
        self.assert_converged(a, b)
        assert a.status()["signatures"] == 0
        assert a.snapshot() == b.snapshot() == ([], [remove])

    def test_a_tie_held_on_either_side_is_repaired_by_one_round(self, mesh):
        a, b = mesh
        a._state.merge_control(Control(1, "o", "disable", "fp-tie"))
        b._state.merge_control(Control(1, "o", "enable", "fp-tie"))
        a.run_round()
        assert a._state == b._state
        assert a._state.controls["fp-tie"].action == "enable"


# ---------------------------------------------------------------------------
# Degradation: the mesh never raises into the application
# ---------------------------------------------------------------------------


class TestGossipDegradation:
    def test_unreachable_peer_is_counted_not_raised(self):
        node = GossipChannel("127.0.0.1", 0, peers=["127.0.0.1:1"],
                             interval=60.0)
        try:
            node.send([make_signature("local-only").to_dict()])   # push fails quietly
            assert node.io_errors >= 1
            node.run_round()
            assert node.round_failures == 1
            assert len(node.snapshot()[0]) == 1             # local immunity kept
        finally:
            node.close()

    def test_poisoned_json_is_counted_and_survived(self, mesh):
        a, b = mesh
        host, _, port = a.bind.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=2) as sock:
            sock.sendall(b"}{ not json at all\n")
        assert wait_until(lambda: a.io_errors >= 1)
        # And a structurally valid but non-dict line.
        with socket.create_connection((host, int(port)), timeout=2) as sock:
            sock.sendall(json.dumps([1, 2]).encode() + b"\n")
        assert wait_until(lambda: a.io_errors >= 2)
        # The node still gossips normally afterwards.
        b.send([make_signature("after-poison").to_dict()])
        assert wait_until(lambda: len(a.receive()[0]) == 1)

    def test_poisoned_ack_is_a_counted_round_failure(self):
        """A peer advertising an unreadable control stamp costs one failed
        round — the anti-entropy thread must outlive it."""
        listener = socket.create_server(("127.0.0.1", 0))

        def poisoned_peer():
            while True:
                try:
                    sock, _ = listener.accept()
                except OSError:
                    return
                with sock:
                    sock.makefile("r").readline()
                    sock.sendall(json.dumps({
                        "op": "ack", "match": False, "fingerprints": [],
                        "control_stamps": {"ff": []}}).encode() + b"\n")

        threading.Thread(target=poisoned_peer, daemon=True).start()
        port = listener.getsockname()[1]
        node = GossipChannel("127.0.0.1", 0, peers=[f"127.0.0.1:{port}"],
                             interval=0.02)
        try:
            node.send(controls=[make_control("disable", "ff", 1, "n")])
            node.run_round()                       # must not raise
            assert node.round_failures >= 1
            assert wait_until(lambda: node.round_failures >= 3)
            assert node._round_thread.is_alive()
            assert node.rounds == 0
        finally:
            node.close()
            listener.close()

    def test_unknown_op_gets_an_error_reply(self, mesh):
        a, _ = mesh
        host, _, port = a.bind.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=2) as sock:
            sock.sendall(json.dumps({"op": "teleport"}).encode() + b"\n")
            reply = json.loads(sock.makefile("r").readline())
        assert reply["op"] == "error"

    def test_bind_conflict_raises_share_error(self, mesh):
        a, _ = mesh
        _, _, port = a.bind.rpartition(":")
        with pytest.raises(ShareError):
            GossipChannel("127.0.0.1", int(port))

    def test_closed_node_is_inert(self):
        node = GossipChannel("127.0.0.1", 0, interval=60.0)
        node.close()
        node.send([make_signature("late").to_dict()])
        node.send(controls=[make_control("disable", "fp", 1, "x")])
        assert node.receive() == ([], [])
        assert node.snapshot() == ([], [])
        node.close()                                     # idempotent

    def test_close_hangs_the_listener_up(self):
        node = GossipChannel("127.0.0.1", 0, interval=60.0)
        port = int(node.bind.rpartition(":")[2])
        node.close()
        node._accept_thread.join(1.0)
        assert not node._accept_thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
        GossipChannel("127.0.0.1", port, interval=60.0).close()   # re-bindable

    def test_closed_node_merges_and_acks_nothing(self):
        """A connection accepted as ``close()`` ran is hung up unserved."""
        node = GossipChannel("127.0.0.1", 0, interval=60.0)
        node.close()
        ours, theirs = socket.socketpair()
        with ours:
            ours.sendall(json.dumps({
                "op": "push",
                "signatures": [make_signature("late").to_dict()]}).encode()
                + b"\n")
            node._serve_connection(theirs)
        assert theirs.fileno() == -1
        assert node.status()["signatures"] == 0


class TestGossipStatus:
    def test_status_fields(self, mesh):
        a, b = mesh
        a.send([make_signature("s").to_dict()])
        fp = make_signature("bad").fingerprint
        a.send(controls=[make_control("disable", fp, clock=1, origin="a")])
        status = a.status()
        assert status["transport"] == "gossip"
        assert status["bind"] == a.bind
        assert status["signatures"] == 1
        assert status["controls"] == 1
        assert status["disabled_fingerprints"] == 1
        assert b.bind in status["peer_lag"]
        for key in ("rounds", "round_failures", "pushes", "io_errors",
                    "last_round_age", "node", "peers"):
            assert key in status

    def test_describe_round_trips_through_the_parser(self, mesh):
        a, _ = mesh
        scheme, params = parse_share_spec(a.describe())
        assert scheme == "gossip"
        assert params["peers"] == a.peers
