"""Shared pytest fixtures for the Dimmunix reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument import aio as instrument_aio
from repro.instrument import patching, runtime as instrument_runtime


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
    if patching.installed():
        patching.uninstall()
    instrument_runtime.reset_default_dimmunix()
    if instrument_aio.asyncio_installed():
        instrument_aio.uninstall_asyncio()
    instrument_aio.reset_default_aio_runtime()


@pytest.fixture
def evaluate_at():
    """``evaluate_at(path, expression)``: evaluate ``expression`` in a
    function whose code object says it lives at ``path`` — what the
    patched factories see of a caller."""
    def evaluate(path: str, expression: str):
        namespace: dict = {}
        exec(compile("import asyncio, threading\n"
                     f"def make():\n    return {expression}\n", path, "exec"),
             namespace)
        return namespace["make"]()
    return evaluate


def stack(*labels: str) -> CallStack:
    """Shorthand for building symbolic call stacks in tests."""
    return CallStack.from_labels(list(labels))


def two_thread_signature(depth: int = 4) -> Signature:
    """The canonical update(A,B)/update(B,A) signature from the paper's §4."""
    return Signature.from_stacks(
        [["lock:update:4", "update:main:1"], ["lock:update:4", "update:main:2"]],
        matching_depth=depth,
    )
