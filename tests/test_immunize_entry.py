"""Tests for the unified entry point: repro.immunize(runtime=...).

One front door covers thread programs, asyncio programs, and mixed
programs — always against a single shared engine.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro
from repro.core.errors import DimmunixError
from repro.instrument import aio as raio
from repro.instrument import patching
from repro.instrument.entry import ImmunityHandle, RUNTIMES


@pytest.fixture(autouse=True)
def clean_patches():
    yield
    patching.uninstall()
    raio.uninstall_asyncio()


class TestImmunizeThreads:
    def test_default_runtime_patches_threading(self):
        handle = repro.immunize()
        try:
            assert isinstance(handle, ImmunityHandle)
            assert handle.threads is not None
            assert handle.aio is None
            assert handle.dimmunix.running
            lock = threading.Lock()
            assert type(lock).__module__.startswith("repro")
        finally:
            handle.stop()
        assert threading.Lock().__class__.__module__ == "_thread"

    @pytest.mark.parametrize("path", [
        "/srv/myrepro/core/app.py",         # "repro/core" inside a longer name
        "/srv/myrepro/instrument/app.py",
        "/srv/repro/utilities/app.py",      # "repro/util" starting a longer one
        "/srv/app_threading.py",            # "threading.py" ending a longer one
        "/srv/threading.py/app.py",         # ... or naming a directory
    ])
    def test_application_paths_that_contain_a_native_fragment_are_immunized(
            self, evaluate_at, path):
        with repro.immunize():
            assert type(evaluate_at(path, "threading.Lock()")).__module__ \
                == "repro.instrument.locks"
            assert type(evaluate_at(path, "threading.Semaphore(2)")).__module__ \
                == "repro.instrument.locks"

    @pytest.mark.parametrize("path", [
        "/usr/lib/python3.11/threading.py",
        "threading.py",
        "/site-packages/repro/core/monitor.py",
        "repro/util/clock.py",
        "C:\\venv\\Lib\\site-packages\\repro\\instrument\\locks.py",
    ])
    def test_threading_and_library_callers_stay_native(self, evaluate_at, path):
        with repro.immunize():
            assert type(evaluate_at(path, "threading.Lock()")).__module__ \
                == "_thread"

    def test_threading_primitives_still_build_on_native_locks(self):
        with repro.immunize():
            event, condition = threading.Event(), threading.Condition()
        assert type(event._cond._lock).__module__ == "_thread"
        assert type(condition._lock).__module__ == "_thread"

    def test_handle_delegates_to_the_runtime(self):
        handle = repro.immunize(history_path=None)
        try:
            # Historical call sites read runtime attributes off the
            # return value; the handle forwards what it lacks.
            assert handle.config is handle.dimmunix.config
            assert handle.engine is handle.threads.engine
            assert handle.yields is handle.threads.yields
        finally:
            handle.stop()

    def test_stop_is_idempotent_and_context_managed(self):
        with repro.immunize() as handle:
            assert not handle.stopped
        assert handle.stopped
        handle.stop()                      # second stop: no-op
        assert not handle.dimmunix.running

    def test_report_reaches_the_engine(self):
        handle = repro.immunize()
        try:
            assert "history_size" in handle.report()
        finally:
            handle.stop()


class TestImmunizeAsyncio:
    def test_asyncio_runtime_patches_asyncio_only(self):
        handle = repro.immunize(runtime="asyncio")
        try:
            assert handle.threads is None
            assert handle.aio is not None
            assert raio.asyncio_installed()
            assert threading.Lock().__class__.__module__ == "_thread"

            async def probe():
                return type(asyncio.Lock()).__name__

            assert asyncio.run(probe()) == "AioLock"
        finally:
            handle.stop()
        assert not raio.asyncio_installed()


class TestImmunizeBoth:
    def test_both_shares_one_engine(self):
        handle = repro.immunize(runtime="both")
        try:
            assert handle.threads is not None
            assert handle.aio is not None
            # ONE engine backs both runtimes: a deadlock learned on a
            # thread immunizes the event loop too.
            assert handle.threads.dimmunix is handle.aio.dimmunix
            assert handle.threads.dimmunix is handle.dimmunix
            assert raio.asyncio_installed()
            assert threading.Lock().__class__.__module__.startswith("repro")
        finally:
            handle.stop()
        assert not raio.asyncio_installed()
        assert threading.Lock().__class__.__module__ == "_thread"

    def test_repr_names_the_runtimes(self):
        handle = repro.immunize(runtime="both")
        try:
            assert "threads+asyncio" in repr(handle)
            assert "running" in repr(handle)
        finally:
            handle.stop()
        assert "stopped" in repr(handle)


class TestImmunizeValidation:
    def test_unknown_runtime_raises(self):
        with pytest.raises(DimmunixError) as err:
            repro.immunize(runtime="goroutines")
        for runtime in RUNTIMES:
            assert runtime in str(err.value)
        # Nothing was left half-installed.
        assert threading.Lock().__class__.__module__ == "_thread"
        assert not raio.asyncio_installed()

    def test_share_spec_reaches_the_engine(self):
        from repro.share import memory_hub, reset_memory_hubs
        reset_memory_hubs()
        handle = repro.immunize(share="memory://entry-test")
        try:
            report = handle.report()
            assert report["share"]["channel"] == "memory://entry-test"
            assert memory_hub("entry-test") is not None
        finally:
            handle.stop()

    def test_config_object_with_history_path_override(self, tmp_path):
        from repro.core.config import DimmunixConfig
        path = str(tmp_path / "h.json")
        handle = repro.immunize(config=DimmunixConfig(),
                                history_path=path)
        try:
            assert handle.dimmunix.config.history_path == path
        finally:
            handle.stop()
