"""Choreography utilities and invariant oracles for the races harness.

Two styles of test live on top of these helpers:

*Deterministic interleavings* — a :class:`Trap` parks a chosen thread
*inside* a known race window while the test drives the other side of the
race to completion, then releases the parked thread and asserts the
invariant.  These fail on the pre-fix code every
single run, on any build.

*Seeded stress* — many threads hammer the structure with the interpreter
switch interval cranked to its minimum so the scheduler preempts at
bytecode granularity, and an oracle checks a global invariant
afterwards.  These catch whole *classes* of interleaving bugs (a
ring-retirement race that lost records was found this way) at the price
of being probabilistic per run; the fixed seeds keep the schedule
pressure reproducible.
"""

from __future__ import annotations

import sys
import sysconfig
import threading
from contextlib import contextmanager
from typing import Callable, List, Sequence, Tuple

#: True when the interpreter was built with PEP 703 ``--disable-gil``.
FREE_THREADED_BUILD = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


def gil_enabled() -> bool:
    """Is the GIL actually on right now (False only on 3.13t+ with it off)?"""
    checker = getattr(sys, "_is_gil_enabled", None)
    return True if checker is None else bool(checker())


@contextmanager
def preemption_pressure(interval: float = 1e-6):
    """Crank the switch interval so the scheduler preempts constantly.

    On free-threaded builds threads already run concurrently and the
    interval is irrelevant, but setting it is harmless there.
    """
    old = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def run_threads(thunks: Sequence[Callable[[], None]],
                timeout: float = 30.0) -> None:
    """Run every thunk in its own thread, aligned on a start barrier.

    Joins them all and re-raises the first exception any of them hit
    (a plain ``Thread`` would swallow it and the test would pass
    vacuously).
    """
    barrier = threading.Barrier(len(thunks))
    failures: List[BaseException] = []

    def wrap(thunk):
        def runner():
            barrier.wait()
            try:
                thunk()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)
        return runner

    threads = [threading.Thread(target=wrap(thunk), name=f"races-{index}")
               for index, thunk in enumerate(thunks)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise AssertionError(f"race thread {thread.name} wedged")
    if failures:
        raise failures[0]


class Trap:
    """Parks one chosen thread at one chosen point of the code under test.

    A proxy standing in for something that code touches calls
    :meth:`here` at the point.  Calls made by other threads pass, and so
    do the first ``skip`` calls of a thread whose name contains ``trap``;
    its next call sets ``reached`` and blocks until the test, having
    driven the other side of the race to completion, sets ``release``.
    """

    def __init__(self, trap: str, skip: int = 0):
        self._trap = trap
        self._skip = skip
        self._armed = True
        self.reached = threading.Event()
        self.release = threading.Event()

    def here(self) -> None:
        if not self._armed or self._trap not in threading.current_thread().name:
            return
        if self._skip:
            self._skip -= 1
            return
        self._armed = False
        self.reached.set()
        if not self.release.wait(30.0):
            raise AssertionError("Trap never released")


def assert_producer_order(batches: Sequence[Sequence[Tuple]], producers: int,
                          per_thread: int) -> None:
    """Loss and order detector: producer ``1..producers`` emitted its running
    index ``0..per_thread-1`` as ``lock_id``; across every drain boundary
    each producer's indexes come out once each, in order."""
    indexes = {thread_id: [] for thread_id in range(1, producers + 1)}
    for batch in batches:
        for record in batch:
            indexes[record[1]].append(record[2])
    for thread_id, seen in indexes.items():
        assert seen == list(range(per_thread)), (
            f"producer {thread_id}: {len(seen)} records, first out of order at "
            f"{next((i for i, v in enumerate(seen) if v != i), None)}")


def rag_quiescent_consistent(rag) -> List[str]:
    """RAG/history consistency oracle for a fully drained, finished run.

    After every emitter completed balanced acquire/release pairs and the
    consumer applied every record, the graph must show no residue.
    Returns a list of violations (empty = consistent).
    """
    problems = []
    if rag.order_violations:
        problems.append(
            f"{rag.order_violations} release/acquire order violations")
    for thread in rag.threads():
        if thread.holds:
            problems.append(
                f"thread {thread.thread_id} still holds {dict(thread.holds)}")
        if thread.request is not None or thread.allow is not None:
            problems.append(
                f"thread {thread.thread_id} has a dangling request/allow")
    for resource in rag.locks():
        if resource.edges:
            problems.append(
                f"resource {resource.lock_id} still has hold edges")
    return problems
