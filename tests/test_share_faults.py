"""The share fabric under injected faults, over every transport.

``ChaosChannel`` wraps any channel's ``send``/``receive`` and, while it
is faulty, drops, duplicates, holds back and reorders the deltas, fails
some sends outright, and slips corrupt copies of real fingerprints into
what it sends and receives — all by seed.  Two workers (a history and a pool each) then run a
seeded mix of learning, disabling, enabling and removing signatures
through it.  Once the fault heals, one sync by each worker, then one
more by the first (which synced before the second re-sent what the wire
had lost), must leave both histories with the same fingerprints in the
same enabled/disabled state; nothing may have been raised into the
application, and every injected failure must show in the pool's counters.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.callstack import CallStack
from repro.core.history import History
from repro.core.signature import Signature
from repro.share import (FileChannel, GossipChannel, HistoryChannel, HistoryServer,
                         MemoryHub, SignaturePool, SocketChannel)

TRANSPORTS = ("memory", "file", "daemon", "gossip")
LABELS = [f"site{index}" for index in range(6)]


class ChaosChannel(HistoryChannel):
    """``inner`` behind a seeded faulty wire, until ``faulty`` is cleared.

    A test double: it stands in for the channel it wraps, so ``snapshot``
    and everything else pass straight through, and it keeps no carried
    state of its own.
    """

    def __init__(self, inner: HistoryChannel, seed: int):
        super().__init__()
        self.inner = inner
        self.faulty = True
        #: Deltas dropped, duplicated or held back; sends failed; corrupt
        #: records slipped in.
        self.mangled = self.failures = self.poisoned = 0
        self._rng = random.Random(seed)
        self._held_sends: list = []
        self._held_receives: list = []

    def _wire(self, delta, held: list) -> list:
        """The deltas the wire hands on now, in the order it hands them on."""
        if not self.faulty:
            out, held[:] = held + [delta], []
            return out
        roll = self._rng.random()
        self.mangled += roll < 0.55
        if roll < 0.2:
            return []                       # dropped
        if roll < 0.35:
            return [delta, delta]           # duplicated
        if roll < 0.55:
            held.append(delta)              # held back, for a later reorder
            return []
        out, held[:] = held + [delta], []
        self._rng.shuffle(out)
        return out

    def _corrupt(self, records: list) -> list:
        """``records``, now and then with a corrupt copy of a real fingerprint."""
        if self.faulty and self._rng.random() < 0.2:
            self.poisoned += 1
            fingerprint = make_signature(self._rng.choice(LABELS)).fingerprint
            records = records + [{"fingerprint": fingerprint, "stacks": 7}]
        return records

    def send(self, records=(), controls=()) -> None:
        if self.faulty and self._rng.random() < 0.1:
            self.failures += 1
            raise OSError("injected send failure")
        for records, controls in self._wire((list(records), list(controls)),
                                            self._held_sends):
            self.inner.send(self._corrupt(records), controls)

    def receive(self):
        records, controls = [], []
        for delta in self._wire(self.inner.receive(), self._held_receives):
            records += delta[0]
            controls += delta[1]
        return self._corrupt(records), controls

    def snapshot(self, timeout: float = 5.0):
        return self.inner.snapshot(timeout)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return f"chaos+{self.inner.describe()}"

    @property
    def rejected(self) -> int:
        return self.inner.rejected


@pytest.fixture
def channels(request, tmp_path):
    """Two channels onto one pool of the parametrized transport.

    A daemon's channels carry it as ``daemon``, so a test can read its
    history.
    """
    kind, server = request.param, None
    if kind == "memory":
        hub = MemoryHub()
        pair = hub.channel(), hub.channel()
    elif kind == "file":
        pair = FileChannel(str(tmp_path / "pool.sig")), FileChannel(str(tmp_path / "pool.sig"))
    elif kind == "daemon":
        server = HistoryServer(unix_path=str(tmp_path / "pool.sock")).start()
        pair = tuple(SocketChannel(("unix", server._unix_path)) for _ in range(2))
        assert all(channel.wait_synced(5) for channel in pair)
    else:
        a = GossipChannel("127.0.0.1", 0, interval=60.0, node_name="a")
        b = GossipChannel("127.0.0.1", 0, peers=[a.bind], interval=60.0, node_name="b")
        a.add_peer(b.bind)
        pair = a, b
    for channel in pair:
        channel.daemon = server
    yield pair
    for channel in pair:
        channel.close()
    if server is not None:
        server.stop()


def make_signature(label: str) -> Signature:
    return Signature([CallStack.from_labels([f"{label}:1", "main:0"]),
                      CallStack.from_labels([f"{label}:2", "main:0"])])


def state_of(history: History) -> dict:
    return {signature.fingerprint: signature.disabled for signature in history.signatures()}


def run_workload(rng: random.Random, workers, steps: int = 60) -> None:
    """Learn, disable, enable, remove and pump at random; never re-learn a removed one.

    Re-learning a fingerprint the fleet removed is kept out on purpose: a
    standing ``remove`` blocks its record everywhere, by design, while the
    worker that learned it again keeps its local copy.
    """
    removed = set()
    for _ in range(steps):
        history, pool = rng.choice(workers)
        label = rng.choice(LABELS)
        fingerprint = make_signature(label).fingerprint
        action = rng.choice(("learn", "learn", "disable", "enable", "remove", "pump", "pump"))
        if action == "learn" and fingerprint not in removed:
            history.add(make_signature(label))
        elif action == "pump":
            pool.pump()
        elif action != "learn" and history.get(fingerprint) is not None:
            getattr(history, action)(fingerprint)
            if action == "remove":
                removed.add(fingerprint)


@pytest.mark.parametrize("channels", TRANSPORTS, indirect=True)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_healed_fault_syncs_to_equal_histories(channels, seed):
    rng = random.Random(seed)
    chaos = [ChaosChannel(channel, seed * 10 + index)
             for index, channel in enumerate(channels)]
    histories = [History(path=None, autosave=False) for _ in chaos]
    workers = [(history, SignaturePool(history, wrapped, origin=f"w{index}"))
               for index, (history, wrapped) in enumerate(zip(histories, chaos))]
    run_workload(rng, workers)                      # nothing raised into it
    assert all(wrapped.mangled for wrapped in chaos)
    for wrapped in chaos:
        wrapped.faulty = False
    (history_a, pool_a), (history_b, pool_b) = workers
    pool_a.sync()
    pool_b.sync()
    pool_a.sync()
    assert state_of(history_a) == state_of(history_b)
    for (_, pool), wrapped in zip(workers, chaos):
        report = pool.report()
        assert report["publish_errors"] + report["control_errors"] == wrapped.failures
        assert report["rejected"] == wrapped.poisoned


@pytest.mark.parametrize("channels", TRANSPORTS, indirect=True)
def test_a_corrupt_copy_does_not_block_the_real_signature(channels):
    """A corrupt record claiming F, put on the transport itself (under the
    sender's channel), is refused there; the real F then still reaches
    the other worker, the pool's snapshot and the daemon's history."""
    real = make_signature("claimed")
    corrupt = {"fingerprint": real.fingerprint, "stacks": 7}
    sender, receiver = channels
    sender._send([corrupt], [])                     # what a buggy peer would put there
    history_a, history_b = History(path=None, autosave=False), History(path=None, autosave=False)
    pool_a, pool_b = SignaturePool(history_a, sender), SignaturePool(history_b, receiver)
    history_a.add(real)
    deadline = time.monotonic() + 5
    while history_b.get(real.fingerprint) is None and time.monotonic() < deadline:
        pool_b.pump()
        time.sleep(0.01)
    assert history_b.get(real.fingerprint) == real
    assert [Signature.from_dict(record) for record in receiver.snapshot()[0]] == [real]
    if sender.daemon is not None:
        assert sender.daemon.history.get(real.fingerprint) == real
    assert pool_a.publish_errors == 0
    pool_a.close(), pool_b.close()


def test_a_send_to_a_dead_daemon_is_repaired_by_sync(tmp_path):
    """A publish while the daemon is gone is not lost: once a daemon is
    back on the same socket, ``sync()`` gets it there."""
    sock = str(tmp_path / "pool.sock")
    server = HistoryServer(unix_path=sock).start()
    channel = SocketChannel(("unix", sock), reconnect_interval=0.0)
    assert channel.wait_synced(5)
    history = History(path=None, autosave=False)
    pool = SignaturePool(history, channel)
    server.stop()                                   # killed mid-publish
    deadline = time.monotonic() + 5
    while channel.connected and time.monotonic() < deadline:
        time.sleep(0.01)
    learned = make_signature("outage")
    history.add(learned)                            # published into the outage
    revived = HistoryServer(unix_path=sock).start()
    try:
        pool.sync()
        deadline = time.monotonic() + 5
        while revived.history.get(learned.fingerprint) is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert revived.history.get(learned.fingerprint) == learned
    finally:
        pool.close()
        revived.stop()


def test_a_failed_append_is_repaired_by_sync(tmp_path, monkeypatch):
    """An append that raises ``OSError`` is counted, and the next
    ``sync()`` writes the lost record for the peer to read."""
    from repro.share import filechannel

    path = str(tmp_path / "pool.sig")
    sender, receiver = FileChannel(path), FileChannel(path)
    history_a, history_b = History(path=None, autosave=False), History(path=None, autosave=False)
    pool_a, pool_b = SignaturePool(history_a, sender), SignaturePool(history_b, receiver)
    real_lock = filechannel.locked_file

    def failing_lock(path, exclusive=True):
        monkeypatch.setattr(filechannel, "locked_file", real_lock)   # one failure, then healed
        raise OSError("injected append failure")

    monkeypatch.setattr(filechannel, "locked_file", failing_lock)
    learned = make_signature("append")
    history_a.add(learned)
    assert sender.io_errors == 1
    pool_a.sync()
    pool_b.pump()
    assert history_b.get(learned.fingerprint) == learned
    pool_a.close(), pool_b.close()
