"""Choreography utilities and invariant oracles for the races harness.

Two styles of test live on top of these helpers:

*Deterministic interleavings* — a ``Gated*`` proxy parks a chosen thread
*inside* a known race window (between a sequence allocation and the ring
append, between a counter read and its write-back) while the test drives
the other side of the race to completion, then releases the parked
thread and asserts the invariant.  These fail on the pre-fix code every
single run, on any build.

*Seeded stress* — many threads hammer the structure with the interpreter
switch interval cranked to its minimum so the scheduler preempts at
bytecode granularity, and an oracle checks a global invariant
afterwards.  These catch whole *classes* of interleaving bugs (they are
how the ring-retirement TOCTOU in this PR's own first draft was found)
at the price of being probabilistic per run; the fixed seeds keep the
schedule pressure reproducible.
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


class GatedSeq:
    """Seq-allocator proxy that parks one chosen allocation mid-window.

    Installed in place of ``EventBus._next_seq``.  The first allocation
    made by a thread whose name contains ``trap`` returns its number but
    blocks *before* returning control to ``emit`` — i.e. after the seq
    exists, before the record is appended — which is exactly the
    publication window the drain's hold-back must tolerate.  The test
    observes ``allocated`` to know the window is open and sets
    ``release`` to let the emit complete.
    """

    def __init__(self, inner: Callable[[], int], trap: str):
        self._inner = inner
        self._trap = Trap(trap)
        self.allocated, self.release = self._trap.reached, self._trap.release

    def __call__(self) -> int:
        seq = self._inner()
        self._trap.here()
        return seq


class GatedDict(dict):
    """Counter-dict proxy that parks one chosen ``get`` mid-bump.

    Installed as a stats shard's counts storage.  ``bump`` reads the old
    value with ``get`` and stores ``old + amount`` afterwards; parking
    inside ``get`` (the first one, whichever thread makes it) holds the
    bump in exactly the read-modify-write window a concurrent ``reset``
    races with.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self._trap = Trap("")  # the empty name is part of every thread's
        self.entered, self.release = self._trap.reached, self._trap.release

    def get(self, key, default=None):
        value = super().get(key, default)
        self._trap.here()
        return value


def assert_seq_order(batches: Sequence[Sequence[Tuple]],
                     expect_total: int = None) -> None:
    """Seq-gap detector: drained batches form one strictly increasing,
    duplicate-free seq stream across every drain boundary."""
    seqs = [record[0] for batch in batches for record in batch]
    assert seqs == sorted(seqs), "seq order violated across drains"
    assert len(set(seqs)) == len(seqs), "duplicate seq released"
    if expect_total is not None:
        assert len(seqs) == expect_total, (
            f"lost records: released {len(seqs)} of {expect_total}")


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
        if resource.waiters:
            problems.append(
                f"resource {resource.lock_id} still has waiters")
    return problems
