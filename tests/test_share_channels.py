"""Unit tests for the history-sharing transports (repro.share).

Covers the :class:`HistoryChannel` contract for the transports — spec
parsing, send/receive/snapshot dedup, the daemon protocol, the
shared-file log's locking/compaction/generation handling — without
spawning worker processes (the end-to-end multi-process story lives in
``test_share_multiprocess.py``).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.core.callstack import CallStack
from repro.core.errors import ShareError
from repro.core.signature import Signature
from repro.share import (FileChannel, GossipChannel, HistoryServer, MemoryHub,
                         SocketChannel, make_control, memory_hub, open_channel,
                         parse_share_spec, reset_memory_hubs, wire)
from repro.tools import histctl

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NOTHING = ([], [])


def make_signature(label: str) -> Signature:
    return Signature([CallStack.from_labels([f"{label}:1", "main:0"]),
                      CallStack.from_labels([f"{label}:2", "main:0"])])


def record(label: str) -> dict:
    return make_signature(label).to_dict()


def fingerprints(delta) -> list:
    return [record["fingerprint"] for record in delta[0]]


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_tcp(self):
        assert parse_share_spec("tcp://pool.internal:7341") == (
            "tcp", {"host": "pool.internal", "port": 7341})

    def test_unix(self):
        assert parse_share_spec("unix:///run/app/pool.sock") == (
            "unix", {"path": "/run/app/pool.sock"})

    def test_file(self):
        assert parse_share_spec("file:///shared/pool.sig") == (
            "file", {"path": "/shared/pool.sig"})

    def test_bare_path_is_file(self):
        assert parse_share_spec("/shared/pool.sig") == (
            "file", {"path": "/shared/pool.sig"})

    def test_memory(self):
        assert parse_share_spec("memory://team-a") == (
            "memory", {"name": "team-a"})

    @pytest.mark.parametrize("spec", ["tcp://nohost", "tcp://host:notaport",
                                      "unix://", "file://", "memory://",
                                      "carrier-pigeon://x"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ShareError):
            parse_share_spec(spec)

    def test_unknown_scheme_names_the_known_set(self):
        with pytest.raises(ShareError) as err:
            parse_share_spec("carrier-pigeon://loft")
        message = str(err.value)
        for scheme in ("tcp", "unix", "file", "memory", "gossip"):
            assert scheme in message

    def test_open_channel_passes_instances_through(self):
        channel = MemoryHub("passthrough").channel()
        assert open_channel(channel) is channel

    def test_open_channel_rejects_non_specs(self):
        with pytest.raises(ShareError):
            open_channel(42)

    def test_open_channel_memory_spec_is_process_global(self):
        reset_memory_hubs()
        a = open_channel("memory://shared-hub")
        b = open_channel("memory://shared-hub")
        a.send([record("global")])
        assert len(b.receive()[0]) == 1


# ---------------------------------------------------------------------------
# Memory hub
# ---------------------------------------------------------------------------


class TestMemoryChannel:
    def test_publish_reaches_other_channels_not_self(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        a.send([record("m1")])
        assert fingerprints(b.receive()) == [make_signature("m1").fingerprint]
        assert a.receive() == NOTHING  # own send is never redelivered
        assert b.receive() == NOTHING  # delivery is exactly-once

    def test_hub_deduplicates_by_fingerprint(self):
        hub = MemoryHub()
        a, b, c = hub.channel(), hub.channel(), hub.channel()
        a.send([record("dup")])
        b.send([record("dup")])
        assert len(hub) == 1
        assert len(c.receive()[0]) == 1

    def test_snapshot_returns_everything_and_stops_redelivery(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        a.send([record("s1")])
        a.send([record("s2")])
        assert len(b.snapshot()[0]) == 2
        assert b.receive() == NOTHING

    def test_closed_channel_is_inert(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        a.close()
        a.send([record("x")])
        assert len(hub) == 0
        assert a.receive() == a.snapshot() == NOTHING
        b.send([record("y")])
        assert b.receive() == NOTHING

    def test_named_hubs_are_stable(self):
        reset_memory_hubs()
        assert memory_hub("alpha") is memory_hub("alpha")
        assert memory_hub("alpha") is not memory_hub("beta")


# ---------------------------------------------------------------------------
# Shared-file channel
# ---------------------------------------------------------------------------


class TestFileChannel:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        a.send([record("f1")])
        assert fingerprints(b.receive()) == [make_signature("f1").fingerprint]
        assert b.receive() == NOTHING
        assert a.receive() == NOTHING  # own record filtered by the carried state

    def test_poll_before_any_publish(self, tmp_path):
        channel = FileChannel(str(tmp_path / "absent.sig"))
        assert channel.receive() == NOTHING
        assert channel.snapshot() == NOTHING

    def test_incremental_offsets(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        for index in range(5):
            a.send([record(f"s{index}")])
            assert len(b.receive()[0]) == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        a.send([record("good")])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"unrelated": True}) + "\n")
        a.send([record("good2")])
        assert len(b.receive()[0]) == 2
        assert b.rejected == 2

    def test_non_share_file_is_refused_outright(self, tmp_path):
        """A foreign file (say, a history file passed as the share spec)
        must be rejected at construction — never appended to."""
        path = str(tmp_path / "other.json")
        original = json.dumps({"format_version": 2, "signatures": []})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original)
        with pytest.raises(ShareError):
            FileChannel(path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == original  # untouched

    def test_compaction_drops_duplicates_and_readers_survive(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        writer = FileChannel(path)
        reader = FileChannel(path)
        for index in range(4):
            writer.send([record(f"c{index}")])
        assert len(reader.receive()[0]) == 4
        # Duplicate records from "other processes": a fresh channel has
        # carried nothing yet, so it appends what the log already holds.
        for _ in range(3):
            FileChannel(path).send([record("c0")])
        dropped = writer.compact()
        assert dropped >= 1
        status = writer.status()
        assert status["records"] == status["signatures"] == 4
        # The reader's offset was minted against the pre-compaction file:
        # the generation change forces a rescan, the carried state stops
        # any re-delivery.
        assert reader.receive() == NOTHING
        writer.send([record("after-compaction")])
        assert len(reader.receive()[0]) == 1

    def test_auto_compaction(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        channel = FileChannel(path, compact_slack=2, check_interval=1)
        channel.send([record("a")])
        for _ in range(4):
            FileChannel(path, compact_slack=2, check_interval=1).send([record("a")])
        status = channel.status()
        assert status["records"] == status["signatures"] == 1

    def test_status(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        channel = FileChannel(path)
        channel.send([record("one")])
        status = channel.status()
        assert status["transport"] == "file"
        assert status["signatures"] == 1
        assert status["bytes"] > 0


# ---------------------------------------------------------------------------
# Daemon + socket channel
# ---------------------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    instance = HistoryServer(unix_path=str(tmp_path / "pool.sock")).start()
    yield instance
    instance.stop()


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSocketChannel:
    def test_connect_requires_a_daemon(self, tmp_path):
        with pytest.raises(ShareError):
            SocketChannel(("unix", str(tmp_path / "nothing.sock")))

    def test_publish_broadcasts_to_other_subscribers(self, server):
        a = SocketChannel(("unix", server._unix_path))
        b = SocketChannel(("unix", server._unix_path))
        assert a.wait_synced(5) and b.wait_synced(5)
        a.send([record("net")])
        assert wait_until(lambda: len(b.receive()[0]) == 1)
        # The publisher never gets its own signature back.
        assert a.receive() == NOTHING
        a.close(), b.close()

    def test_late_joiner_gets_snapshot(self, server):
        early = SocketChannel(("unix", server._unix_path))
        early.send([record("old1")])
        early.send([record("old2")])
        assert wait_until(lambda: len(server.history) == 2)
        late = SocketChannel(("unix", server._unix_path))
        assert late.wait_synced(5)
        assert len(late.receive()[0]) == 2
        early.close(), late.close()

    def test_snapshot_and_status_requests(self, server):
        channel = SocketChannel(("unix", server._unix_path))
        channel.send([record("q")])
        assert wait_until(lambda: len(server.history) == 1)
        assert len(channel.snapshot()[0]) == 1
        status = channel.status()
        assert status["transport"] == "daemon"
        assert status["signatures"] == 1
        assert status["publishes"] == 1
        channel.close()

    def test_server_deduplicates(self, server):
        a = SocketChannel(("unix", server._unix_path))
        b = SocketChannel(("unix", server._unix_path))
        a.send([record("same")])
        b.send([record("same")])
        assert wait_until(lambda: server._published == 2)
        assert len(server.history) == 1
        # No broadcast echo of the duplicate back to `a`.
        time.sleep(0.1)
        assert a.receive() == NOTHING
        a.close(), b.close()

    def test_malformed_messages_do_not_kill_the_connection(self, server):
        channel = SocketChannel(("unix", server._unix_path))
        channel._write({"op": "publish"})              # an empty delta
        channel._write({"op": "no-such-op"})
        channel._write({"op": "publish", "signatures": [{"bogus": 1}]})
        channel.send([record("still-works")])
        assert wait_until(lambda: len(server.history) == 1)
        assert server.status()["rejected"] == 1
        channel.close()

    def test_dead_daemon_degrades_without_raising(self, server):
        channel = SocketChannel(("unix", server._unix_path))
        assert channel.wait_synced(5)
        server.stop()
        assert wait_until(lambda: not channel.connected)
        channel.send([record("lost")])                 # swallowed
        assert channel.receive() == NOTHING            # swallowed
        with pytest.raises(ShareError):
            channel.status(timeout=0.2)
        channel.close()

    def test_tcp_transport(self):
        server = HistoryServer(host="127.0.0.1", port=0).start()
        try:
            a = SocketChannel(("tcp", "127.0.0.1", server.port))
            b = SocketChannel(("tcp", "127.0.0.1", server.port))
            a.send([record("tcp")])
            assert wait_until(lambda: len(b.receive()[0]) == 1)
            a.close(), b.close()
        finally:
            server.stop()

    def test_persistent_daemon_history(self, tmp_path):
        history_path = str(tmp_path / "pool.json")
        sock = str(tmp_path / "pool.sock")
        server = HistoryServer(unix_path=sock, history_path=history_path)
        server.start()
        try:
            channel = SocketChannel(("unix", sock))
            channel.send([record("persisted")])
            assert wait_until(lambda: len(server.history) == 1)
            channel.close()
        finally:
            server.stop()
        assert os.path.exists(history_path)
        revived = HistoryServer(unix_path=sock, history_path=history_path)
        revived.start()
        try:
            late = SocketChannel(("unix", sock))
            assert late.wait_synced(5)
            assert len(late.receive()[0]) == 1
            late.close()
        finally:
            revived.stop()


# ---------------------------------------------------------------------------
# histctl serve: one front end for the long-lived endpoints
# ---------------------------------------------------------------------------


class TestServe:
    @pytest.mark.parametrize("kind", ["unix", "tcp", "gossip"])
    def test_serves_a_pool_at_the_spec_it_prints(self, tmp_path, kind):
        spec = {"unix": f"unix://{tmp_path}/pool.sock", "tcp": "tcp://127.0.0.1:0",
                "gossip": "gossip://127.0.0.1:0"}[kind]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [path for path in [os.environ.get("PYTHONPATH")] if path]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.histctl", "serve", spec],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            word, served = process.stdout.readline().split()
            assert word == "serving" and served.startswith(f"{kind}://")
            assert not served.endswith(":0")           # the bound port
            if kind == "gossip":                         # workers peer with the seed
                served = f"gossip://127.0.0.1:0?peers={served[len('gossip://'):]}"
            writer, reader = open_channel(served), open_channel(served)
            writer.send([record("served")])
            assert wait_until(lambda: len(reader.snapshot()[0]) == 1)
            writer.close(), reader.close()
        finally:
            process.terminate()
            process.wait(timeout=10)

    @pytest.mark.parametrize("argv", [["file:///tmp/pool.sig"], ["memory://x"],
                                      ["gossip://127.0.0.1:0", "--history", "h.json"]])
    def test_refuses_what_it_cannot_serve(self, argv, capsys):
        assert histctl.main(["serve", *argv]) == 2
        assert "unix://, tcp:// or gossip://" in capsys.readouterr().err


def test_histctl_tail_prints_the_snapshot_then_what_arrives(tmp_path, capsys):
    path = str(tmp_path / "pool.sig")
    FileChannel(path).send([record("old")], [make_control("disable", "fp-x", 3, "ops")])
    assert histctl.main(["tail", path, "--duration", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["snapshot", make_signature("old").fingerprint,
                                "deadlock", "2", "thread(s)", "depth=4"]
    assert lines[1].split() == ["control", "fp-x", "disable", "clock=3", "origin=ops"]
    assert len(lines) == 2


def test_histctl_tail_stops_at_count_within_the_snapshot(tmp_path, capsys):
    path = str(tmp_path / "pool.sig")
    FileChannel(path).send([record("first"), record("second")],
                           [make_control("disable", "fp-x", 3, "ops")])
    assert histctl.main(["tail", path, "--count", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("snapshot ")


def test_histctl_tail_skips_a_poisoned_record(tmp_path, capsys):
    path = str(tmp_path / "pool.sig")
    FileChannel(path).send([record("kept")])
    with open(path, "a", encoding="utf-8") as log:
        log.write(json.dumps({"signature": {"fingerprint": "x", "stacks": 7}}) + "\n")
        log.write(json.dumps({"signature": {"fingerprint": "y", "stacks": True}}) + "\n")
    assert histctl.main(["tail", path, "--duration", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [make_signature("kept").fingerprint]


# ---------------------------------------------------------------------------
# TCP_NODELAY: one small line per message, answered before the next
# ---------------------------------------------------------------------------


def nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


class TestNoDelay:
    def test_both_ends_of_a_daemon_link(self):
        server = HistoryServer(host="127.0.0.1", port=0).start()
        try:
            channel = SocketChannel(("tcp", "127.0.0.1", server.port))
            assert channel.wait_synced(5)
            assert nodelay(channel._sock)
            with server._clients_lock:
                accepted = [client.sock for client in server._clients]
            assert accepted and all(nodelay(sock) for sock in accepted)
            channel.close()
        finally:
            server.stop()

    def test_both_ends_of_a_gossip_exchange(self, monkeypatch):
        seen = {}
        real_send = wire.send

        def spy(sock, message):
            seen[message["op"]] = nodelay(sock)
            real_send(sock, message)

        monkeypatch.setattr(wire, "send", spy)
        a = GossipChannel("127.0.0.1", 0, interval=60.0)
        b = GossipChannel("127.0.0.1", 0, peers=[a.bind], interval=60.0)
        try:
            b.send([record("rumor")])              # b pushes, a answers "ok"
            assert seen == {"push": True, "ok": True}
        finally:
            a.close(), b.close()

    def test_unix_sockets_are_left_alone(self):
        ours, theirs = socket.socketpair(socket.AF_UNIX)
        with ours, theirs:
            assert wire.no_delay(ours) is ours


# ---------------------------------------------------------------------------
# Control records across transports
# ---------------------------------------------------------------------------


class TestControlRecords:
    def test_make_control_shape(self):
        control = make_control("disable", "fp-1", clock=3, origin="ctl")
        assert control == {"action": "disable", "fingerprint": "fp-1",
                           "clock": 3, "origin": "ctl"}
        with pytest.raises(ShareError):
            make_control("explode", "fp-1", clock=1, origin="ctl")

    def test_memory_controls_round_trip(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        control = make_control("disable", "fp-mem", clock=1, origin="a")
        a.send(controls=[control])
        assert b.receive() == ([], [control])
        assert a.receive() == NOTHING      # no echo to the sender
        assert b.receive() == NOTHING      # exactly-once

    def test_file_controls_round_trip(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        a.send([record("target")])
        a.send(controls=[make_control("disable", "fp-file", clock=2, origin="a")])
        records, controls = b.receive()
        assert len(records) == 1
        assert [c["fingerprint"] for c in controls] == ["fp-file"]
        status = a.status()
        assert status["signatures"] == 1
        assert status["controls"] == 1
        assert status["records"] == 2      # one signature + one control line

    def test_file_compaction_keeps_latest_control(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        writer = FileChannel(path)
        writer.send(controls=[make_control("disable", "fp-x", clock=1, origin="w")])
        writer.send(controls=[make_control("enable", "fp-x", clock=5, origin="w")])
        writer.compact()
        controls = FileChannel(path).receive()[1]
        assert len(controls) == 1
        assert controls[0]["action"] == "enable"
        assert controls[0]["clock"] == 5

    def test_daemon_controls_round_trip(self, server):
        a = SocketChannel(("unix", server._unix_path))
        b = SocketChannel(("unix", server._unix_path))
        assert a.wait_synced(5) and b.wait_synced(5)
        control = make_control("disable", "fp-net", clock=4, origin="a")
        a.send(controls=[control])
        got = []
        assert wait_until(lambda: got.extend(b.receive()[1]) or got)
        assert got == [control]
        assert a.receive() == NOTHING      # no echo to the sender
        assert server.status()["disabled_fingerprints"] == 1

    def test_daemon_snapshot_carries_standing_controls(self, server):
        early = SocketChannel(("unix", server._unix_path))
        early.send(controls=[make_control("disable", "fp-held", clock=9,
                                          origin="early")])
        assert wait_until(lambda: server.status()["controls"] == 1)
        late = SocketChannel(("unix", server._unix_path))
        assert late.wait_synced(5)
        assert [c["fingerprint"] for c in late.receive()[1]] == ["fp-held"]
        early.close(), late.close()

    def test_daemon_refuses_a_poisoned_control(self, server):
        """An unreadable clock is answered with ``error``: not stored, not
        broadcast, and later controls for that fingerprint still work."""
        watcher = SocketChannel(("unix", server._unix_path))
        assert watcher.wait_synced(5)
        poisoned = {"action": "disable", "fingerprint": "ab", "clock": "zzz"}
        good = make_control("enable", "ab", clock=2, origin="raw")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5)
            sock.connect(server._unix_path)
            replies = sock.makefile("r", encoding="utf-8")
            for message in ({"op": "publish", "controls": [poisoned]},
                            {"op": "publish", "controls": [good]},
                            {"op": "ping"}):
                sock.sendall(json.dumps(message).encode() + b"\n")
            assert json.loads(replies.readline())["op"] == "error"
            # The sender was not dropped: its next requests are served.
            assert json.loads(replies.readline())["op"] == "pong"
        got = []
        assert wait_until(lambda: got.extend(watcher.receive()[1]) or got)
        assert got == [good]
        assert server.status()["controls"] == 1
        late = SocketChannel(("unix", server._unix_path))
        assert late.wait_synced(5)
        assert late.receive()[1] == [good]
        watcher.close(), late.close()

    def test_control_dedup_keeps_one_stamp_per_fingerprint(self):
        """Toggling one fingerprint forever must not grow the channel."""
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        for clock in range(1, 201):
            action = "disable" if clock % 2 else "enable"
            a.send(controls=[make_control(action, "fp-toggle", clock=clock,
                                          origin="a")])
            assert len(b.receive()[1]) == 1
        assert len(a._carried.controls) == len(b._carried.controls) == 1
        # Older than what already crossed: nothing new to say.
        a.send(controls=[make_control("disable", "fp-toggle", clock=7,
                                      origin="a")])
        assert b.receive() == NOTHING

    def test_base_channel_refuses_duplicate_controls(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        control = make_control("disable", "fp-dup", clock=1, origin="a")
        a.send(controls=[control])
        a.send(controls=[dict(control)])   # identical identity: dropped
        assert len(b.receive()[1]) == 1
        # A *different* stamp for the same fingerprint is new information.
        a.send(controls=[make_control("disable", "fp-dup", clock=2, origin="a")])
        assert len(b.receive()[1]) == 1
