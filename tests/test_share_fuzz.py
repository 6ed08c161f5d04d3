"""Every inbound path of the share fabric, fed generated garbage.

Hypothesis builds JSON values, near-miss signature records and control
records (every field of any type), and raw lines that are not JSON at
all.  They go through the boundary functions — ``wire.decode``,
``parse_control``, ``PoolState.absorb`` and ``PoolState.diff`` — and
through the receive path of every transport: the memory hub, a share
log, the daemon (both ends of its socket) and a gossip node.  Nothing may
raise but ``diff``'s documented ``ValueError`` (and ``decode``'s), and
every malformed record or control must be counted in ``rejected``.
"""

from __future__ import annotations

import json
import os
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.callstack import CallStack
from repro.core.history import History
from repro.core.signature import Signature
from repro.share import (FileChannel, GossipChannel, HistoryServer, MemoryHub, PoolState,
                         SignaturePool, SocketChannel, make_control, wire)
from repro.share.state import CONTROL_ACTIONS, Control, parse_control

scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=6))
values = st.recursive(
    scalars, lambda children: st.one_of(st.lists(children, max_size=3),
                                        st.dictionaries(st.text(max_size=5), children,
                                                        max_size=3)),
    max_leaves=8)
REAL = Signature([CallStack.from_labels(["fuzz:1", "main:0"]),
                  CallStack.from_labels(["fuzz:2", "main:0"])]).to_dict()
fingerprints = st.one_of(st.sampled_from(["aa", "bb", "", REAL["fingerprint"]]), values)
records = st.one_of(values, st.fixed_dictionaries({}, optional={
    "fingerprint": fingerprints, "stacks": values, "kind": values,
    "matching_depth": values, "disabled": values}),
    # A real record with one field of any value: some stay readable.
    st.builds(lambda field, value: {**REAL, field: value}, st.sampled_from(sorted(REAL)),
              values))
controls = st.one_of(values, st.fixed_dictionaries({}, optional={
    "action": st.one_of(st.sampled_from(CONTROL_ACTIONS), values),
    "fingerprint": fingerprints, "clock": st.one_of(st.integers(), values),
    "origin": st.one_of(st.text(max_size=3), values)}))
record_lists = st.one_of(st.lists(records, max_size=5), values)
control_lists = st.one_of(st.lists(controls, max_size=5), values)
#: What arrives as one line: not JSON, JSON but not an object, or a message.
lines = st.one_of(st.text(max_size=20).map(lambda text: text.replace("\n", " ")),
                  values.map(json.dumps))
#: The same as bytes on a wire or in a file, with lines that are not UTF-8.
raw_lines = st.one_of(lines.map(lambda text: text.encode("utf-8", "surrogatepass")),
                      st.binary(max_size=12)).map(
    lambda raw: raw.replace(b"\n", b" ").replace(b"\r", b" "))
fuzz = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def bad_record(value) -> bool:
    """Not a signature carrying the fingerprint it claims."""
    try:
        return Signature.from_dict(value).fingerprint != value["fingerprint"]
    except Exception:
        return True


def refused(records_value, controls_value) -> int:
    """How many entries ``PoolState.absorb`` must reject (a non-list is one)."""
    count = 0
    for value, bad in ((records_value, bad_record),
                       (controls_value, lambda raw: parse_control(raw) is None)):
        count += sum(map(bad, value)) if isinstance(value, (list, tuple)) else 1
    return count


def unreadable(delivered) -> int:
    """Delivered records no signature can be read from."""
    count = 0
    for record in delivered:
        try:
            Signature.from_dict(record)
        except Exception:
            count += 1
    return count


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# The boundary functions
# ---------------------------------------------------------------------------


@fuzz
@given(lines)
def test_decode_answers_an_object_or_a_value_error(line):
    try:
        assert isinstance(wire.decode(line), dict)
    except ValueError:
        pass


def test_decode_refuses_nesting_deeper_than_the_parser():
    with pytest.raises(ValueError):
        wire.decode("[" * 100_000)


@fuzz
@given(controls)
def test_parse_control_never_raises(raw):
    control = parse_control(raw)
    if control is not None:
        assert isinstance(control, Control)
        assert isinstance(control.clock, int) and isinstance(control.origin, str)
        assert control.action in CONTROL_ACTIONS and control.fingerprint


@fuzz
@given(record_lists, control_lists)
def test_absorb_counts_every_entry_it_refuses(records_value, controls_value):
    state = PoolState()
    state.absorb(records_value, controls_value)
    assert state.rejected == refused(records_value, controls_value)


@fuzz
@given(st.one_of(st.lists(fingerprints, max_size=4), values),
       st.one_of(st.dictionaries(st.text(max_size=3),
                                 st.one_of(st.lists(values, max_size=3), values),
                                 max_size=3), values),
       values, values)
def test_diff_raises_only_its_value_error_and_pick_nothing(fingerprints_value, stamps,
                                                           want, want_controls):
    state = PoolState()
    state.absorb([REAL], [make_control("disable", REAL["fingerprint"], 1, "o")])
    try:
        assert len(state.diff(fingerprints_value, stamps)) == 4
    except ValueError:
        pass
    state.pick(want, want_controls)


# ---------------------------------------------------------------------------
# The transports' receive paths
# ---------------------------------------------------------------------------


def assert_pool_survives(channel, delivered) -> None:
    """A pool over ``channel`` installs what is readable and counts the rest."""
    pool = SignaturePool(History(path=None, autosave=False), channel)
    pool.sync()
    pool.pump()
    assert pool.unreadable == unreadable(delivered)
    pool.close()


@fuzz
@given(record_lists, control_lists)
def test_the_memory_hub(records_value, controls_value):
    hub = MemoryHub()
    hub.append(records_value, controls_value)
    assert hub._state.rejected == refused(records_value, controls_value)
    assert_pool_survives(hub.channel(), hub._state.visible())


def message_in(raw: bytes):
    """What a reader makes of one raw line: its message, or None."""
    try:
        return wire.decode(raw.decode("utf-8", "replace"))
    except ValueError:
        return None


@fuzz
@given(st.lists(st.one_of(raw_lines,
                          records.map(lambda value: json.dumps({"signature": value}).encode()),
                          controls.map(lambda value: json.dumps({"control": value}).encode())),
                max_size=6))
def test_a_share_log(tmp_path, log_lines):
    path = str(tmp_path / f"pool-{time.monotonic_ns()}.sig")
    expected = 0
    with open(path, "wb") as handle:
        handle.write((json.dumps({"log": "dimmunix-share", "generation": "g"}) + "\n").encode())
        for raw in log_lines:
            handle.write(raw + b"\n")
            message = message_in(raw)
            if message is None:
                expected += 1
                continue
            if "control" in message:
                expected += refused([], [message["control"]])
            else:
                expected += refused([message.get("signature")], [])
    channel = FileChannel(path)
    delivered = channel.receive()[0]
    assert channel.rejected == expected
    assert_pool_survives(FileChannel(path), delivered)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    server = HistoryServer(unix_path=str(tmp_path_factory.mktemp("fuzz") / "d.sock")).start()
    yield server
    server.stop()


@fuzz
@given(st.lists(st.tuples(record_lists, control_lists), min_size=1, max_size=3))
def test_the_daemon_counts_what_clients_send(daemon, deltas):
    before = daemon.status()["rejected"]
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(5)
        sock.connect(daemon._unix_path)
        replies = wire.reader(sock)
        for records_value, controls_value in deltas:
            wire.send(sock, {"op": "publish", "signatures": records_value,
                             "controls": controls_value})
        wire.send(sock, {"op": "ping"})
        while wire.recv(replies)["op"] != "pong":
            pass
    expected = sum(refused(wire.items(r), wire.items(c)) for r, c in deltas)
    assert daemon.status()["rejected"] - before == expected


@fuzz
@given(st.lists(st.one_of(raw_lines, st.tuples(st.sampled_from(["publish", "snapshot"]),
                                               record_lists, control_lists)),
                max_size=5))
def test_a_daemon_client_counts_what_the_daemon_sends(tmp_path, messages):
    path = str(tmp_path / f"c-{time.monotonic_ns() % 10**9}.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    channel = SocketChannel(("unix", path))
    peer, _ = listener.accept()
    expected = 0
    try:
        for message in messages:
            if isinstance(message, bytes):
                peer.sendall(message + b"\n")
                continue
            op, records_value, controls_value = message
            wire.send(peer, {"op": op, "signatures": records_value,
                             "controls": controls_value})
            expected += refused(wire.items(records_value), wire.items(controls_value))
        end = make_control("enable", "end-of-fuzz", 1, "test")
        wire.send(peer, {"op": "publish", "controls": [end]})
        received = []
        wait_until(lambda: received.append(channel.receive()) or end in received[-1][1])
        assert channel.rejected == expected
        assert channel.connected
    finally:
        channel.close()
        peer.close()
        listener.close()
        os.unlink(path)


@pytest.fixture(scope="module")
def node():
    gossip = GossipChannel("127.0.0.1", 0, interval=60.0, node_name="fuzzed")
    yield gossip
    gossip.close()


@fuzz
@given(record_lists, control_lists, raw_lines)
def test_a_gossip_node(node, records_value, controls_value, garbage):
    before, errors = node.status()["rejected"], node.io_errors
    host, _, port = node.bind.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        wire.send(sock, {"op": "push", "signatures": records_value,
                         "controls": controls_value})
        assert wire.recv(wire.reader(sock)) == {"op": "ok"}
    assert node.status()["rejected"] - before == refused(records_value, controls_value)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(garbage + b"\n")
        wire.reader(sock).readline()  # an error answer, or the hang-up
    # A JSON object is answered (an unknown op) without an error count.
    wait_until(lambda: node.io_errors > errors or message_in(garbage) is not None)
    node.receive()
