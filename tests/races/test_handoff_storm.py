"""Hand-off storm: the owner map needs no mutex because the primitive orders it.

The cache's double-acquire check is one ``dict.setdefault`` on an owner
map that a release empties again, with no lock between them.  That is
safe only because the engine's ``release`` runs before the native release
and its ``acquired`` after the native acquire, so the primitive itself
orders the previous owner's removal before the next owner's insert.  Four
threads hand three real primitives back and forth under preemption
pressure: a mutex, a one-permit semaphore that is always returned by a
thread other than the one that took it, and a reader-writer lock with
mixed readers and writers.  A hand-off the order did not cover would
raise ``AvoidanceError`` (a "foreign" double acquire) or leave an owner
behind; the monitor's RAG checks the event order of the same run.
"""

from __future__ import annotations

import queue
import random
import threading

from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.instrument.locks import DimmunixLock, DimmunixRWLock, DimmunixSemaphore
from repro.instrument.runtime import InstrumentationRuntime

from .harness import preemption_pressure, run_threads

WORKERS, ROUNDS = 4, 2000


def test_handoffs_leave_no_owner_and_no_inversion():
    dimmunix = Dimmunix(config=DimmunixConfig.for_testing(monitor_interval=0.005))
    runtime = InstrumentationRuntime(dimmunix)
    lock = DimmunixLock(runtime=runtime)
    permit = DimmunixSemaphore(1, runtime=runtime)
    rwlock = DimmunixRWLock(runtime=runtime)
    # The permit goes round a ring: each worker returns the one its
    # predecessor took, then takes it for its successor to return.
    turns = [queue.Queue() for _ in range(WORKERS)]
    # A thread that ends is forgotten with its holds, so nobody leaves
    # before the last permit is back.
    finished = threading.Barrier(WORKERS)

    def worker(me):
        rng = random.Random(me)
        for round_ in range(ROUNDS):
            with lock:
                pass
            if rng.random() < 0.25:
                rwlock.acquire_write()
                rwlock.release_write()
            else:
                rwlock.acquire_read()
                rwlock.release_read()
            if me or round_:
                turns[me].get(timeout=30)
                permit.release()
            permit.acquire()
            turns[(me + 1) % WORKERS].put(None)
        if me == 0:
            turns[0].get(timeout=30)
            permit.release()  # the last taker's
        finished.wait(timeout=30)

    dimmunix.start()
    try:
        with preemption_pressure(1e-5):
            run_threads([lambda me=me: worker(me) for me in range(WORKERS)], timeout=120)
    finally:
        dimmunix.stop()

    cache = dimmunix.engine.cache
    for primitive in (lock, permit, rwlock):
        assert cache.holders_of(primitive.lock_id) == []
    assert cache._owners == {}
    assert dimmunix.stats.acquisitions == WORKERS * ROUNDS * 3
    assert dimmunix.monitor.rag.order_violations == 0
