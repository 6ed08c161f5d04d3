"""Unit tests for the history-sharing transports (repro.share).

Covers the :class:`HistoryChannel` contract for all three transports —
spec parsing, publish/poll/snapshot dedup, the daemon protocol, the
shared-file log's locking/compaction/generation handling — without
spawning worker processes (the end-to-end multi-process story lives in
``test_share_multiprocess.py``).
"""

from __future__ import annotations

import json
import os
import socket
import time

import pytest

from repro.core.callstack import CallStack
from repro.core.errors import ShareError
from repro.core.signature import Signature
from repro.share import (FileChannel, GossipChannel, HistoryServer, MemoryHub,
                         SocketChannel, make_control, memory_hub, open_channel,
                         parse_share_spec, register_transport,
                         reset_memory_hubs, transports, unregister_transport, wire)


def make_signature(label: str) -> Signature:
    return Signature([CallStack.from_labels([f"{label}:1", "main:0"]),
                      CallStack.from_labels([f"{label}:2", "main:0"])])


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
        a.publish(make_signature("global"))
        assert len(b.poll()) == 1


# ---------------------------------------------------------------------------
# Memory hub
# ---------------------------------------------------------------------------


class TestMemoryChannel:
    def test_publish_reaches_other_channels_not_self(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        a.publish(make_signature("m1"))
        assert [s.fingerprint for s in b.poll()] == \
            [make_signature("m1").fingerprint]
        assert a.poll() == []          # own publish is never redelivered
        assert b.poll() == []          # delivery is exactly-once

    def test_hub_deduplicates_by_fingerprint(self):
        hub = MemoryHub()
        a, b, c = hub.channel(), hub.channel(), hub.channel()
        a.publish(make_signature("dup"))
        b.publish(make_signature("dup"))
        assert len(hub) == 1
        assert len(c.poll()) == 1

    def test_snapshot_returns_everything_and_stops_redelivery(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        a.publish(make_signature("s1"))
        a.publish(make_signature("s2"))
        assert len(b.snapshot()) == 2
        assert b.poll() == []

    def test_closed_channel_is_inert(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        a.close()
        a.publish(make_signature("x"))
        assert len(hub) == 0
        assert a.poll() == [] and a.snapshot() == []
        b.publish(make_signature("y"))
        assert b.poll() == []

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
        a.publish(make_signature("f1"))
        got = b.poll()
        assert [s.fingerprint for s in got] == \
            [make_signature("f1").fingerprint]
        assert b.poll() == []
        assert a.poll() == []          # own record filtered by seen-set

    def test_poll_before_any_publish(self, tmp_path):
        channel = FileChannel(str(tmp_path / "absent.sig"))
        assert channel.poll() == []
        assert channel.snapshot() == []

    def test_incremental_offsets(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        for index in range(5):
            a.publish(make_signature(f"s{index}"))
            assert len(b.poll()) == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        a.publish(make_signature("good"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"unrelated": True}) + "\n")
        a.publish(make_signature("good2"))
        assert len(b.poll()) == 2

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
            writer.publish(make_signature(f"c{index}"))
        assert len(reader.poll()) == 4
        # Duplicate records from "other processes" (fresh seen-sets).
        for _ in range(3):
            duplicator = FileChannel(path)
            duplicator.publish(make_signature("c0"))
            # A fresh channel skips publishing fingerprints it has read;
            # force the duplicate append the way a restarted process would.
            duplicator._seen.clear()
            duplicator.publish(make_signature("c0"))
        dropped = writer.compact()
        assert dropped >= 1
        status = writer.status()
        assert status["records"] == status["signatures"] == 4
        # The reader's offset was minted against the pre-compaction file:
        # the generation change forces a rescan, the seen-set stops any
        # re-delivery.
        assert reader.poll() == []
        writer.publish(make_signature("after-compaction"))
        assert len(reader.poll()) == 1

    def test_auto_compaction(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        channel = FileChannel(path, compact_slack=2, check_interval=1)
        channel.publish(make_signature("a"))
        for _ in range(4):
            channel._seen.clear()
            channel.publish(make_signature("a"))
        status = channel.status()
        assert status["records"] == status["signatures"] == 1

    def test_status(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        channel = FileChannel(path)
        channel.publish(make_signature("one"))
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
        a.publish(make_signature("net"))
        assert wait_until(lambda: len(b.poll()) == 1 or False)
        # The publisher never gets its own signature back.
        assert a.poll() == []
        a.close(), b.close()

    def test_late_joiner_gets_snapshot(self, server):
        early = SocketChannel(("unix", server._unix_path))
        early.publish(make_signature("old1"))
        early.publish(make_signature("old2"))
        assert wait_until(lambda: len(server.history) == 2)
        late = SocketChannel(("unix", server._unix_path))
        assert late.wait_synced(5)
        assert len(late.poll()) == 2
        early.close(), late.close()

    def test_snapshot_and_status_requests(self, server):
        channel = SocketChannel(("unix", server._unix_path))
        channel.publish(make_signature("q"))
        assert wait_until(lambda: len(server.history) == 1)
        assert len(channel.snapshot()) == 1
        status = channel.status()
        assert status["transport"] == "daemon"
        assert status["signatures"] == 1
        assert status["publishes"] == 1
        channel.close()

    def test_server_deduplicates(self, server):
        a = SocketChannel(("unix", server._unix_path))
        b = SocketChannel(("unix", server._unix_path))
        a.publish(make_signature("same"))
        b.publish(make_signature("same"))
        assert wait_until(lambda: server._published == 2)
        assert len(server.history) == 1
        # No broadcast echo of the duplicate back to `a`.
        time.sleep(0.1)
        assert a.poll() == []
        a.close(), b.close()

    def test_malformed_messages_do_not_kill_the_connection(self, server):
        channel = SocketChannel(("unix", server._unix_path))
        channel._send({"op": "publish"})               # missing signature
        channel._send({"op": "no-such-op"})
        channel._send({"op": "publish", "signature": {"bogus": 1}})
        channel.publish(make_signature("still-works"))
        assert wait_until(lambda: len(server.history) == 1)
        channel.close()

    def test_dead_daemon_degrades_without_raising(self, server):
        channel = SocketChannel(("unix", server._unix_path))
        assert channel.wait_synced(5)
        server.stop()
        assert wait_until(lambda: not channel.connected)
        channel.publish(make_signature("lost"))        # swallowed
        assert channel.poll() == []                    # swallowed
        with pytest.raises(ShareError):
            channel.status(timeout=0.2)
        channel.close()

    def test_tcp_transport(self):
        server = HistoryServer(host="127.0.0.1", port=0).start()
        try:
            a = SocketChannel(("tcp", "127.0.0.1", server.port))
            b = SocketChannel(("tcp", "127.0.0.1", server.port))
            a.publish(make_signature("tcp"))
            assert wait_until(lambda: len(b.poll()) == 1 or False)
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
            channel.publish(make_signature("persisted"))
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
            assert len(late.poll()) == 1
            late.close()
        finally:
            revived.stop()


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
            b.publish(make_signature("rumor"))     # b pushes, a answers "ok"
            assert seen == {"push": True, "ok": True}
        finally:
            a.close(), b.close()

    def test_unix_sockets_are_left_alone(self):
        ours, theirs = socket.socketpair(socket.AF_UNIX)
        with ours, theirs:
            assert wire.no_delay(ours) is ours


# ---------------------------------------------------------------------------
# Transport registry
# ---------------------------------------------------------------------------


class TestTransportRegistry:
    def test_builtins_are_registered(self):
        registered = transports()
        for scheme in ("tcp", "unix", "file", "memory", "gossip"):
            assert scheme in registered

    def test_unknown_scheme_names_the_known_set(self):
        with pytest.raises(ShareError) as err:
            parse_share_spec("carrier-pigeon://loft")
        message = str(err.value)
        for scheme in ("tcp", "unix", "file", "memory", "gossip"):
            assert scheme in message

    def test_custom_transport_round_trip(self):
        hub = MemoryHub("custom-backing")

        def factory(params, client_name=None):
            return hub.channel()

        register_transport("loopback", factory,
                           parse=lambda rest, spec: {"name": rest},
                           summary="test-only transport")
        try:
            assert "loopback" in transports()
            assert parse_share_spec("loopback://x") == (
                "loopback", {"name": "x"})
            channel = open_channel("loopback://x")
            channel.publish(make_signature("via-custom"))
            assert len(hub) == 1
        finally:
            unregister_transport("loopback")
        with pytest.raises(ShareError):
            parse_share_spec("loopback://x")


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
        assert a.supports_controls
        control = make_control("disable", "fp-mem", clock=1, origin="a")
        a.publish_control(control)
        assert b.poll_controls() == [control]
        assert a.poll_controls() == []     # no echo to the publisher
        assert b.poll_controls() == []     # exactly-once

    def test_file_controls_round_trip(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        a, b = FileChannel(path), FileChannel(path)
        assert a.supports_controls
        a.publish(make_signature("target"))
        a.publish_control(make_control("disable", "fp-file",
                                       clock=2, origin="a"))
        assert len(b.poll()) == 1
        controls = b.poll_controls()
        assert [c["fingerprint"] for c in controls] == ["fp-file"]
        status = a.status()
        assert status["signatures"] == 1
        assert status["controls"] == 1
        assert status["records"] == 2      # one signature + one control line

    def test_file_compaction_keeps_latest_control(self, tmp_path):
        path = str(tmp_path / "pool.sig")
        writer = FileChannel(path)
        writer.publish_control(make_control("disable", "fp-x",
                                            clock=1, origin="w"))
        writer.publish_control(make_control("enable", "fp-x",
                                            clock=5, origin="w"))
        writer.compact()
        late = FileChannel(path)
        controls = late.poll_controls()
        assert len(controls) == 1
        assert controls[0]["action"] == "enable"
        assert controls[0]["clock"] == 5

    def test_daemon_controls_round_trip(self, server):
        a = SocketChannel(("unix", server._unix_path))
        b = SocketChannel(("unix", server._unix_path))
        assert a.wait_synced(5) and b.wait_synced(5)
        assert a.supports_controls
        control = make_control("disable", "fp-net", clock=4, origin="a")
        a.publish_control(control)
        got = []
        assert wait_until(lambda: got.extend(b.poll_controls()) or got)
        assert got == [control]
        assert a.poll_controls() == []     # no echo to the publisher
        assert server.status()["disabled_fingerprints"] == 1

    def test_daemon_snapshot_carries_standing_controls(self, server):
        early = SocketChannel(("unix", server._unix_path))
        early.publish_control(make_control("disable", "fp-held",
                                           clock=9, origin="early"))
        assert wait_until(lambda: server.status()["controls"] == 1)
        late = SocketChannel(("unix", server._unix_path))
        assert late.wait_synced(5)
        controls = late.poll_controls()
        assert [c["fingerprint"] for c in controls] == ["fp-held"]
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
            for message in ({"op": "control", "control": poisoned},
                            {"op": "control", "control": good},
                            {"op": "ping"}):
                sock.sendall(json.dumps(message).encode() + b"\n")
            assert json.loads(replies.readline())["op"] == "error"
            # The sender was not dropped: its next requests are served.
            assert json.loads(replies.readline())["op"] == "pong"
        got = []
        assert wait_until(lambda: got.extend(watcher.poll_controls()) or got)
        assert got == [good]
        assert server.status()["controls"] == 1
        late = SocketChannel(("unix", server._unix_path))
        assert late.wait_synced(5)
        assert late.poll_controls() == [good]
        watcher.close(), late.close()

    def test_control_dedup_keeps_one_stamp_per_fingerprint(self):
        """Toggling one fingerprint forever must not grow the channel."""
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        for clock in range(1, 201):
            action = "disable" if clock % 2 else "enable"
            a.publish_control(make_control(action, "fp-toggle",
                                           clock=clock, origin="a"))
            assert len(b.poll_controls()) == 1
        assert len(a._carried) == len(b._carried) == 1
        # Older than what already crossed: nothing new to say.
        a.publish_control(make_control("disable", "fp-toggle",
                                       clock=7, origin="a"))
        assert b.poll_controls() == []

    def test_base_channel_refuses_duplicate_controls(self):
        hub = MemoryHub()
        a, b = hub.channel(), hub.channel()
        control = make_control("disable", "fp-dup", clock=1, origin="a")
        a.publish_control(control)
        a.publish_control(dict(control))   # identical identity: dropped
        assert len(b.poll_controls()) == 1
        # A *different* stamp for the same fingerprint is new information.
        a.publish_control(make_control("disable", "fp-dup",
                                       clock=2, origin="a"))
        assert len(b.poll_controls()) == 1
