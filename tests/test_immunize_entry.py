"""Tests for the unified entry point: repro.immunize(runtime=...).

One front door covers thread programs, asyncio programs, and mixed
programs — always against a single shared engine.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro
from repro.core.dimmunix import Dimmunix
from repro.core.errors import DimmunixError, InstrumentationError
from repro.instrument import patching
from repro.instrument.entry import ImmunityHandle, RUNTIMES

#: What each ``runtime=`` value installs, in the patch table's kinds.
KINDS = {"threads": {"threads"}, "asyncio": {"asyncio"}, "both": {"threads", "asyncio"}}
ROWS = [pytest.param(kind, row, id=f"{row[0].__name__}.{row[1]}")
        for kind, (_, _, rows) in patching._TABLE.items() for row in rows]


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
            assert patching._installed == {"asyncio"}
            assert threading.Lock().__class__.__module__ == "_thread"

            async def probe():
                return type(asyncio.Lock()).__name__

            assert asyncio.run(probe()) == "AioLock"
        finally:
            handle.stop()
        assert not patching._installed


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
            assert patching._installed == {"threads", "asyncio"}
            assert threading.Lock().__class__.__module__.startswith("repro")
        finally:
            handle.stop()
        assert not patching._installed
        assert threading.Lock().__class__.__module__ == "_thread"

    def test_threads_and_tasks_draw_ids_from_one_space(self, config):
        """A task never takes a thread's id, nor an asyncio lock a thread lock's.

        The second thread holds the second thread lock while the first task
        takes the second asyncio lock: with an id space per runtime the
        engine saw thread 1 take lock 2 from thread 2's hold, and raised.
        """
        units, locks = {"threads": set(), "tasks": set()}, {"threads": set(), "tasks": set()}
        with repro.immunize(runtime="both", config=config) as handle:
            first, second = threading.Lock(), threading.Lock()
            locks["threads"] |= {first.lock_id, second.lock_id}
            holding, done = threading.Event(), threading.Event()

            def take_first():
                with first:
                    units["threads"].add(handle.threads.current_thread_id())

            def hold_second():
                with second:
                    units["threads"].add(handle.threads.current_thread_id())
                    holding.set()
                    assert done.wait(10.0)

            first_thread = threading.Thread(target=take_first)
            first_thread.start()
            first_thread.join(10.0)
            holder = threading.Thread(target=hold_second)
            holder.start()
            assert holding.wait(10.0)

            async def main():
                one, two = asyncio.Lock(), asyncio.Lock()
                locks["tasks"] |= {one.lock_id, two.lock_id}

                async def take(lock):
                    async with lock:
                        units["tasks"].add(handle.aio.current_task_id())

                await asyncio.create_task(take(two))
                await asyncio.create_task(take(one))

            try:
                asyncio.run(main())
            finally:
                done.set()
                holder.join(10.0)
        assert len(units["threads"]) == len(units["tasks"]) == 2
        assert not units["threads"] & units["tasks"]
        assert len(locks["threads"]) == len(locks["tasks"]) == 2
        assert not locks["threads"] & locks["tasks"]

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
        assert not patching._installed

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

    def test_a_callers_engine_comes_with_its_own_configuration(self, config):
        engine = Dimmunix(config=config)
        with repro.immunize(runtime="both", dimmunix=engine) as handle:
            assert handle.dimmunix is engine and engine.running
            assert handle.threads.dimmunix is handle.aio.dimmunix is engine
        assert not engine.running
        with pytest.raises(DimmunixError):
            repro.immunize(dimmunix=engine, history_path="ignored.history")
        assert not patching._installed


class TestThePatchTable:
    """Every ``(module, attribute, native factory, immune class)`` row, in and out."""

    @pytest.mark.parametrize("kind, row", ROWS)
    def test_a_row_is_patched_for_applications_only_and_restored(self, evaluate_at, kind, row):
        module, attribute, native, immune = row
        before = getattr(module, attribute)
        assert before is native
        name = f"{module.__name__}.{attribute}"
        own = "/site-packages/asyncio/x.py" if kind == "asyncio" else "/lib/threading.py"
        with repro.immunize(runtime=kind) as handle:
            made = evaluate_at("/srv/app/handlers.py", f"{name}()")
            assert type(made) is immune
            assert made._runtime is (handle.threads if kind == "threads" else handle.aio)
            for path in (own, "/site-packages/repro/core/monitor.py"):
                assert type(evaluate_at(path, f"{name}()")) is type(native())
        assert getattr(module, attribute) is before

    @pytest.mark.parametrize("live", RUNTIMES)
    @pytest.mark.parametrize("second", RUNTIMES)
    def test_a_second_immunize_raises_and_leaves_the_first_as_it_was(self, live, second):
        with repro.immunize(runtime=live) as handle:
            patched = {(module, attribute): getattr(module, attribute)
                       for _, _, rows in patching._TABLE.values()
                       for module, attribute, _, _ in rows}
            defaults = dict(patching._defaults)
            if KINDS[live] & KINDS[second]:
                with pytest.raises(InstrumentationError):
                    repro.immunize(runtime=second)
            else:
                repro.immunize(runtime=second).stop()
            # Nothing half-installed, nothing of the live handle undone.
            assert patching._installed == KINDS[live]
            assert patching._defaults == defaults
            assert all(getattr(module, attribute) is factory
                       for (module, attribute), factory in patched.items())
            assert not handle.stopped and handle.dimmunix.running
        assert not patching._installed


class TestStopClearsTheDefaults:
    """A stopped handle leaves no live default behind (both survived ``stop()`` once)."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_no_default_runtime_outlives_its_engine(self, runtime):
        handle = repro.immunize(runtime=runtime)
        assert {kind for kind, default in patching._defaults.items()
                if default.dimmunix is handle.dimmunix} == KINDS[runtime]
        handle.stop()
        assert not patching._defaults
        for kind in sorted(KINDS[runtime]):
            # A primitive made now binds to a fresh engine, not the stopped one.
            assert patching.default_runtime(kind).dimmunix is not handle.dimmunix
        with repro.immunize(runtime=runtime) as later:
            assert later.dimmunix is not handle.dimmunix
            for kind in KINDS[runtime]:
                assert patching.default_runtime(kind).dimmunix is later.dimmunix

    def test_a_failed_immunize_clears_what_it_installed(self, monkeypatch):
        def refuse(self):
            raise RuntimeError("no monitor thread today")

        monkeypatch.setattr(Dimmunix, "start", refuse)
        with pytest.raises(RuntimeError):
            repro.immunize(runtime="both")
        assert not patching._installed and not patching._defaults
        assert threading.Lock().__class__.__module__ == "_thread"
