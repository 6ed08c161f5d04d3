"""Shared pytest fixtures for the Dimmunix reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument import patching


@pytest.fixture
def config() -> DimmunixConfig:
    """A fast, in-memory configuration for unit tests."""
    return DimmunixConfig.for_testing()


@pytest.fixture
def history() -> History:
    """An empty in-memory history."""
    return History(path=None, autosave=False)


@pytest.fixture
def dimmunix(config, history) -> Dimmunix:
    """A Dimmunix instance without the background monitor running."""
    return Dimmunix(config=config, history=history)


@pytest.fixture
def started_dimmunix(config, history):
    """A Dimmunix instance with the monitor thread running."""
    instance = Dimmunix(config=config, history=history)
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    """Ensure tests never leak patched ``threading``/``asyncio`` modules
    or default runtimes."""
    yield
    for kind in list(patching._installed):
        patching._uninstall(kind)
    patching.reset_default_runtimes()


@pytest.fixture
def evaluate_at():
    """``evaluate_at(path, expression, **names)``: evaluate ``expression``
    (over ``asyncio``, ``threading`` and ``names``) in a function ``make``
    whose code object says it lives at ``path`` — what the patched
    factories and the stack captures see of a caller."""
    def evaluate(path: str, expression: str, **names):
        namespace: dict = dict(names)
        exec(compile("import asyncio, threading\n"
                     f"def make():\n    return {expression}\n", path, "exec"),
             namespace)
        return namespace["make"]()
    return evaluate


@pytest.fixture(scope="session")
def hand_over_the_filter():
    """``hand_over_the_filter(engine)``: what any next request does first —
    a republished filter reaches the cache, which rebuilds its Allowed sets.

    For tests that look at the cache themselves: a request by a thread, for
    a lock and from a call site nothing else uses, and nothing left behind.
    """
    def hand_over(engine, thread_id: int = 99) -> None:
        assert engine.request(thread_id, 99, CallStack.from_labels(["syncer:1"])).is_go
        engine.cancel(thread_id, 99)
        engine.forget_thread(thread_id)
    return hand_over


def stack(*labels: str) -> CallStack:
    """Shorthand for building symbolic call stacks in tests."""
    return CallStack.from_labels(list(labels))


def two_thread_signature(depth: int = 4) -> Signature:
    """The canonical update(A,B)/update(B,A) signature from the paper's §4."""
    return Signature.from_stacks(
        [["lock:update:4", "update:main:1"], ["lock:update:4", "update:main:2"]],
        matching_depth=depth,
    )
