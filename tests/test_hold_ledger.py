"""The shipped runtimes' hold ledger agrees with the simulator's model.

``HoldLedger`` (``core/runtime_api.py``) decides grants for
``DimmunixRWLock``/``AioRWLock`` and attributes permit releases for both
semaphores.  ``SimSemaphore``/``SimRWLock`` (``sim/locks.py``) are kept
apart on purpose: they are the model the explorer proves immunity on.
Every sequence of up to four operations by up to three threads must leave
the two with the same grant decisions and the same holders.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.runtime_api import HoldLedger
from repro.core.signature import EXCLUSIVE, SHARED
from repro.sim.locks import SimRWLock, SimSemaphore

THREADS = (1, 2, 3)
MAX_OPS = 4


def assert_same_view(ledger, model, modes, context):
    for thread in THREADS:
        assert ((thread in ledger._holders or thread in ledger._readers)
                == model.held_by(thread)), context
        for mode in modes:
            assert (ledger._grantable(thread, mode)
                    == model.can_grant(thread, mode)), (context, thread, mode)


def sequences(operations):
    for length in range(1, MAX_OPS + 1):
        yield from itertools.product(operations, repeat=length)


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_permit_pool_matches_sim_semaphore(capacity):
    operations = [(thread, op) for thread in THREADS for op in ("take", "give")]
    for sequence in sequences(operations):
        ledger, model = HoldLedger(capacity), SimSemaphore(capacity)
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


def test_reader_writer_matches_sim_rwlock():
    operations = [(thread, op) for thread in THREADS
                  for op in (SHARED, EXCLUSIVE, "release")]
    for sequence in sequences(operations):
        ledger, model = HoldLedger(), SimRWLock()
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


def test_sole_reader_may_upgrade_but_two_readers_may_not():
    ledger, model = HoldLedger(), SimRWLock()
    for both in (ledger.take, lambda t, m: model.grant(t, m)):
        both(1, SHARED)
    assert ledger._grantable(1, EXCLUSIVE) and model.can_grant(1, EXCLUSIVE)
    for both in (ledger.take, lambda t, m: model.grant(t, m)):
        both(2, SHARED)
    assert not ledger._grantable(1, EXCLUSIVE) and not model.can_grant(1, EXCLUSIVE)
    assert not ledger._grantable(2, EXCLUSIVE) and not model.can_grant(2, EXCLUSIVE)


def test_writer_reenters_both_sides_and_unwinds():
    ledger, model = HoldLedger(), SimRWLock()
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
