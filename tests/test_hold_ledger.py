"""The hold ledger agrees with the grant rules it replaced.

``HoldLedger`` (``core/runtime_api.py``) decides grants for
``DimmunixRWLock``/``AioRWLock`` and every simulated resource, and
attributes permit releases for both semaphores.  The oracles below are the
rules the simulator's resources kept for themselves before they took with
the ledger: a permit pool, a reader-writer lock and a reentrant mutex.
Every sequence of up to four operations by up to three threads must leave
ledger and oracle with the same grant decisions and the same holders.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.runtime_api import HoldLedger
from repro.core.signature import EXCLUSIVE, SHARED

THREADS = (1, 2, 3)
MAX_OPS = 4


class SemaphoreModel:
    """A pool of ``capacity`` permits; a thread may hold several."""

    def __init__(self, capacity):
        self.capacity = capacity
        #: thread id -> number of permits held.
        self.permits = {}

    def can_grant(self, thread_id, mode=EXCLUSIVE):
        return sum(self.permits.values()) < self.capacity

    def grant(self, thread_id, mode=EXCLUSIVE):
        assert self.can_grant(thread_id, mode)
        self.permits[thread_id] = self.permits.get(thread_id, 0) + 1

    def release(self, thread_id):
        held = self.permits[thread_id]
        if held == 1:
            del self.permits[thread_id]
        else:
            self.permits[thread_id] = held - 1

    def held_by(self, thread_id):
        return self.permits.get(thread_id, 0) > 0


class RWLockModel:
    """SHARED holds coexist; EXCLUSIVE needs no *other* holder (a sole
    reader may upgrade).  A thread's holds are a LIFO stack of modes."""

    def __init__(self):
        #: thread id -> LIFO stack of hold modes.
        self.holds = {}

    def can_grant(self, thread_id, mode=EXCLUSIVE):
        if mode == SHARED:
            return all(EXCLUSIVE not in modes
                       for tid, modes in self.holds.items() if tid != thread_id)
        return all(tid == thread_id for tid in self.holds)

    def grant(self, thread_id, mode=EXCLUSIVE):
        assert self.can_grant(thread_id, mode)
        self.holds.setdefault(thread_id, []).append(mode)

    def release(self, thread_id):
        modes = self.holds[thread_id]
        modes.pop()
        if not modes:
            del self.holds[thread_id]

    def held_by(self, thread_id):
        return bool(self.holds.get(thread_id))


class MutexModel:
    """A reentrant mutex: one owner and its depth."""

    def __init__(self):
        self.owner, self.count = None, 0

    def can_grant(self, thread_id, mode=EXCLUSIVE):
        return self.owner is None or self.owner == thread_id

    def grant(self, thread_id, mode=EXCLUSIVE):
        assert self.can_grant(thread_id, mode)
        self.owner, self.count = thread_id, self.count + 1

    def release(self, thread_id):
        self.count -= 1
        if self.count == 0:
            self.owner = None

    def held_by(self, thread_id):
        return self.owner == thread_id


def assert_same_view(ledger, model, modes, context):
    for thread in THREADS:
        assert ledger.held_by(thread) == model.held_by(thread), context
        for mode in modes:
            assert (ledger.grantable(thread, mode)
                    == model.can_grant(thread, mode)), (context, thread, mode)


def sequences(operations):
    for length in range(1, MAX_OPS + 1):
        yield from itertools.product(operations, repeat=length)


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_permit_pool_matches_semaphore_model(capacity):
    operations = [(thread, op) for thread in THREADS for op in ("take", "give")]
    for sequence in sequences(operations):
        ledger, model = HoldLedger(capacity), SemaphoreModel(capacity)
        for step, (thread, op) in enumerate(sequence):
            context = (sequence, step)
            if op == "take":
                granted = ledger.take(thread)
                assert granted == model.can_grant(thread), context
                if granted:
                    model.grant(thread)
            elif model.held_by(thread):
                assert ledger.release(thread) == thread, context
                model.release(thread)
            assert ledger.permits_held() == sum(model.permits.values()), context
            assert_same_view(ledger, model, (EXCLUSIVE,), context)


def test_reader_writer_matches_rwlock_model():
    operations = [(thread, op) for thread in THREADS
                  for op in (SHARED, EXCLUSIVE, "release")]
    for sequence in sequences(operations):
        ledger, model = HoldLedger(), RWLockModel()
        for step, (thread, op) in enumerate(sequence):
            context = (sequence, step)
            if op == "release":
                if model.held_by(thread):
                    # The model unwinds a thread's holds LIFO.
                    mode = model.holds[thread][-1]
                    assert ledger.release(thread, mode) == thread, context
                    model.release(thread)
                else:
                    for mode in (SHARED, EXCLUSIVE):
                        assert ledger.release(thread, mode) is None, context
            else:
                granted = ledger.take(thread, op)
                assert granted == model.can_grant(thread, op), context
                if granted:
                    model.grant(thread, op)
            assert_same_view(ledger, model, (SHARED, EXCLUSIVE), context)
            writers = [t for t, modes in model.holds.items() if EXCLUSIVE in modes]
            assert ledger.writer == (writers[0] if writers else None), context
            assert ledger.reader_count() == sum(
                1 for modes in model.holds.values() if SHARED in modes), context


def test_exclusive_only_ledger_matches_reentrant_mutex_model():
    operations = [(thread, op) for thread in THREADS for op in ("take", "give")]
    for sequence in sequences(operations):
        ledger, model = HoldLedger(), MutexModel()
        for step, (thread, op) in enumerate(sequence):
            context = (sequence, step)
            if op == "take":
                granted = ledger.take(thread)
                assert granted == model.can_grant(thread), context
                if granted:
                    model.grant(thread)
            elif model.held_by(thread):
                assert ledger.release(thread) == thread, context
                model.release(thread)
            else:
                assert ledger.release(thread) is None, context
            assert ledger.writer == model.owner, context
            assert_same_view(ledger, model, (EXCLUSIVE,), context)


def test_sole_reader_may_upgrade_but_two_readers_may_not():
    ledger, model = HoldLedger(), RWLockModel()
    for both in (ledger.take, lambda t, m: model.grant(t, m)):
        both(1, SHARED)
    assert ledger.grantable(1, EXCLUSIVE) and model.can_grant(1, EXCLUSIVE)
    for both in (ledger.take, lambda t, m: model.grant(t, m)):
        both(2, SHARED)
    assert not ledger.grantable(1, EXCLUSIVE) and not model.can_grant(1, EXCLUSIVE)
    assert not ledger.grantable(2, EXCLUSIVE) and not model.can_grant(2, EXCLUSIVE)


def test_writer_reenters_both_sides_and_unwinds():
    ledger, model = HoldLedger(), RWLockModel()
    for mode in (EXCLUSIVE, EXCLUSIVE, SHARED):
        assert ledger.take(1, mode) and model.can_grant(1, mode)
        model.grant(1, mode)
    assert not ledger.take(2, SHARED) and not model.can_grant(2, SHARED)
    for mode in (SHARED, EXCLUSIVE):
        ledger.release(1, mode)
        model.release(1)
    assert ledger.writer == 1 and model.held_by(1)  # one write level left
    ledger.release(1, EXCLUSIVE)
    model.release(1)
    assert ledger.take(2, SHARED) and model.can_grant(2, SHARED)


def test_foreign_permit_release_is_attributed_to_a_holder():
    ledger = HoldLedger(2)
    assert ledger.release(9) is None  # nothing recorded: nothing to tell the engine
    ledger.grant(1)
    ledger.grant(2)
    assert ledger.release(2) == 2  # the caller, when it holds one
    assert ledger.release(9) == 1  # hand-off: some holder's permit is freed
    assert ledger.release(None) is None and ledger.permits_held() == 0
