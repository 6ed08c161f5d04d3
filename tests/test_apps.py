"""Unit tests for the miniature target applications (normal operation).

The deadlock-provoking interleavings are covered by the exploit tests;
here we check that the applications behave like the small systems they
are: data goes where it should, reentrant locking works, and the
deadlock-free code paths run cleanly under full instrumentation.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps import (BeanContext, Broker, CharArrayWriter, Connection,
                        CustomRecursiveLock, MiniApp, MiniDB, NetLibrary,
                        SyncHashtable, SyncPrintWriter, SyncStringBuffer,
                        SyncVector, TaskQueue)
from repro.core.dimmunix import Dimmunix
from repro.instrument.runtime import InstrumentationRuntime


@pytest.fixture
def runtime(config, history):
    return InstrumentationRuntime(Dimmunix(config=config, history=history))


@pytest.fixture
def app(runtime):
    return MiniApp(runtime=runtime, acquire_timeout=1.0)


class TestMiniDB:
    def test_insert_select(self, runtime):
        db = MiniDB(runtime=runtime)
        db.create_table("users")
        assert db.insert("users", {"id": 1, "name": "ada"}) == 1
        assert db.insert("users", {"id": 2, "name": "bob"}) == 2
        rows = db.select("users", predicate=lambda row: row["id"] == 2)
        assert rows == [{"id": 2, "name": "bob"}]
        assert db.row_count("users") == 2

    def test_truncate_clears_rows(self, runtime):
        db = MiniDB(runtime=runtime)
        db.create_table("logs")
        db.insert("logs", {"x": 1})
        assert db.truncate("logs") == 1
        assert db.row_count("logs") == 0

    def test_transaction_log_records_operations(self, runtime):
        db = MiniDB(runtime=runtime)
        db.create_table("t")
        db.insert("t", {"a": 1})
        db.truncate("t")
        entries = db.log_entries()
        assert any(entry.startswith("INSERT") for entry in entries)
        assert any(entry.startswith("TRUNCATE") for entry in entries)

    def test_create_table_idempotent(self, runtime):
        db = MiniDB(runtime=runtime)
        first = db.create_table("t")
        second = db.create_table("t")
        assert first is second
        assert db.tables() == ["t"]

    def test_concurrent_inserts_are_consistent(self, runtime):
        db = MiniDB(runtime=runtime)
        db.create_table("t")

        def worker(start):
            for i in range(25):
                db.insert("t", {"id": start + i})

        threads = [threading.Thread(target=worker, args=(k * 100,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert db.row_count("t") == 100

    def test_custom_recursive_lock_reentrancy(self, app):
        rlock = CustomRecursiveLock(app)
        rlock.acquire()
        rlock.acquire()
        assert rlock.held
        rlock.release()
        assert rlock.held
        rlock.release()
        assert not rlock.held

    def test_custom_recursive_lock_rejects_foreign_release(self, app):
        rlock = CustomRecursiveLock(app)
        rlock.acquire()
        errors = []

        def bad():
            try:
                rlock.release()
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=bad)
        thread.start()
        thread.join()
        assert errors
        rlock.release()


class TestConnectionPool:
    def test_prepare_and_query(self, runtime):
        connection = Connection(runtime=runtime)
        statement = connection.prepare_statement("SELECT * FROM t")
        rows = statement.execute_query()
        assert rows and "id" in rows[0]
        statement.set_parameter(1, 42)
        assert statement.parameters[1] == 42

    def test_close_marks_statements_closed(self, runtime):
        connection = Connection(runtime=runtime)
        statement = connection.prepare_statement("SELECT 1")
        connection.close()
        assert connection.closed
        assert statement.closed
        assert connection.statements == []

    def test_statement_close_unregisters(self, runtime):
        connection = Connection(runtime=runtime)
        statement = connection.prepare_statement("SELECT 1")
        statement.close()
        assert statement not in connection.statements

    def test_warnings_after_close(self, runtime):
        connection = Connection(runtime=runtime)
        statement = connection.prepare_statement("SELECT 1")
        connection.close()
        assert "connection warning" in statement.get_warnings()

    def test_create_statement_plain(self, runtime):
        connection = Connection(runtime=runtime)
        statement = connection.create_statement()
        assert statement.execute_query("SELECT * FROM t")


class TestBroker:
    def test_produce_dispatch_ack_cycle(self, runtime):
        broker = Broker(runtime=runtime)
        acks = broker.produce_consume_cycle("orders", messages=5)
        assert acks == 5
        queue = broker.queues["orders"]
        assert queue.dequeued == 5
        assert queue.in_flight == 0

    def test_drop_event_requeues_prefetched(self, runtime):
        broker = Broker(runtime=runtime)
        queue = broker.create_queue("q")
        subscription = broker.subscribe(queue, "c")
        queue.enqueue({"id": 1})
        queue.dispatch_one()
        assert len(subscription.prefetched) == 1
        recovered = queue.drop_event(subscription)
        assert recovered == 1
        assert len(queue.messages) == 1
        assert subscription not in queue.subscriptions

    def test_session_consumer_registration(self, runtime):
        broker = Broker(runtime=runtime)
        session = broker.create_session()
        session.create_consumer("c1")
        assert broker.dispatch_to_sessions({"m": 1}) == 1
        assert session.consumers == ["c1"]

    def test_dispatch_without_subscribers_is_noop(self, runtime):
        broker = Broker(runtime=runtime)
        queue = broker.create_queue("empty")
        queue.enqueue({"id": 1})
        assert queue.dispatch_one() is False


class TestCollections:
    def test_vector_add_all(self, app):
        v1 = SyncVector(app, [1, 2])
        v2 = SyncVector(app, [3])
        assert v1.add_all(v2) == 3
        assert v1.items() == [1, 2, 3]
        assert v2.size() == 1

    def test_hashtable_put_get_equals(self, app):
        h1 = SyncHashtable(app)
        h2 = SyncHashtable(app)
        h1.put("k", 1)
        h2.put("k", 2)
        assert h1.get("k") == 1
        assert h1.get("missing", "default") == "default"
        assert h1.equals(h2)

    def test_stringbuffer_append(self, app):
        s1 = SyncStringBuffer(app, "hello ")
        s2 = SyncStringBuffer(app, "world")
        s1.append(s2)
        assert s1.to_string() == "hello world"
        s1.append_text("!")
        assert s1.to_string().endswith("!")

    def test_printwriter_and_chararraywriter(self, app):
        backing = CharArrayWriter(app)
        writer = SyncPrintWriter(app, backing=backing)
        writer.write("abc")
        assert backing.contents() == "abc"
        backing.write("def")
        assert backing.write_to(writer) == len("abcdef")
        assert "abcdef" in writer.contents()

    def test_beancontext_property_propagation(self, app):
        parent = BeanContext(app, "parent")
        child = BeanContext(app, "child")
        parent.add_child(child)
        parent.property_change("theme", "dark")
        assert child.properties["theme"] == "dark"
        assert child.remove(parent)
        assert parent.children == []
        assert not child.remove(parent)


class TestNetLibrary:
    def test_open_write_close(self, runtime):
        library = NetLibrary(runtime=runtime)
        socket = library.nl_open()
        assert library.nl_write(socket, b"ping") == 4
        assert library.nl_close(socket)
        assert socket.socket_id not in library.sockets
        assert library.nl_write(socket, b"late") == 0

    def test_shutdown_closes_everything(self, runtime):
        library = NetLibrary(runtime=runtime)
        sockets = [library.nl_open() for _ in range(3)]
        assert library.nl_shutdown() == 3
        assert not library.initialized
        assert all(not socket.open for socket in sockets)


class TestTaskQueue:
    def test_schedule_run_unschedules_oneshot(self, runtime):
        queue = TaskQueue(runtime=runtime)
        ran = []
        task = queue.schedule(action=lambda: ran.append(1), periodic=False)
        assert task.run_once()
        assert ran == [1]
        assert task not in queue.pending()

    def test_periodic_task_stays_scheduled(self, runtime):
        queue = TaskQueue(runtime=runtime)
        task = queue.schedule(periodic=True)
        assert task.run_once()
        assert task.run_once()
        assert task in queue.pending()
        assert task.runs == 2

    def test_cancel_prevents_run(self, runtime):
        queue = TaskQueue(runtime=runtime)
        task = queue.schedule(periodic=True)
        assert task.cancel()
        assert not task.run_once()
        assert task not in queue.pending()

    def test_shutdown_stops_all(self, runtime):
        queue = TaskQueue(runtime=runtime)
        tasks = [queue.schedule(periodic=True) for _ in range(3)]
        assert queue.shutdown() == 3
        assert queue.shut_down
        assert all(task.cancelled for task in tasks)
        with pytest.raises(RuntimeError):
            queue.schedule()


class TestAioBroker:
    """The asyncio broker app (deadlock-free paths + the exploit pair)."""

    @pytest.fixture
    def aio_runtime(self, config, history):
        from repro.instrument.aio import AsyncioRuntime
        return AsyncioRuntime(Dimmunix(config=config, history=history))

    def test_produce_dispatch_ack_cycle(self, aio_runtime):
        import asyncio
        from repro.apps import AioBroker

        broker = AioBroker(runtime=aio_runtime)
        acks = asyncio.run(broker.produce_consume_cycle("orders", messages=5))
        assert acks == 5
        queue = broker.queues["orders"]
        assert queue.dequeued == 5
        assert queue.in_flight == 0

    def test_drop_event_requeues_prefetched(self, aio_runtime):
        import asyncio
        from repro.apps import AioBroker

        async def scenario():
            broker = AioBroker(runtime=aio_runtime)
            queue = await broker.create_queue("q")
            subscription = await broker.subscribe(queue, "c")
            await queue.enqueue({"id": 1})
            await queue.dispatch_one()
            assert len(subscription.prefetched) == 1
            recovered = await queue.drop_event(subscription)
            assert recovered == 1
            assert len(queue.messages) == 1
            assert subscription not in queue.subscriptions

        asyncio.run(scenario())

    def test_session_consumer_registration(self, aio_runtime):
        import asyncio
        from repro.apps import AioBroker

        async def scenario():
            broker = AioBroker(runtime=aio_runtime)
            session = broker.create_session()
            await session.create_consumer("c1")
            assert await broker.dispatch_to_sessions({"m": 1}) == 1
            assert session.consumers == ["c1"]

        asyncio.run(scenario())

    def test_bug336_pair_deadlocks_and_learns(self, aio_runtime):
        """The create_consumer/dispatch inversion wedges two tasks; the
        bounded timeout surfaces AppLockTimeout and the monitor archives
        the cycle's signature."""
        import asyncio
        from contextlib import asynccontextmanager
        from repro.apps import AioBroker, AppLockTimeout

        class PairedBroker(AioBroker):
            """Forces the race: a task that has taken the first lock of its
            operation waits (bounded) until the other has taken its own."""

            firsts = {}  # (operation, lock name) -> (mine, the other's) events

            @asynccontextmanager
            async def holding(self, lock, operation):
                async with super().holding(lock, operation):
                    events = self.firsts.get((operation, lock.name))
                    if events is not None:
                        events[0].set()
                        try:
                            await asyncio.wait_for(events[1].wait(), 0.3)
                        except asyncio.TimeoutError:
                            pass
                    yield

        dimmunix = aio_runtime.dimmunix
        dimmunix.start()
        try:
            async def scenario():
                broker = PairedBroker(runtime=aio_runtime, acquire_timeout=0.8)
                session = broker.create_session()
                # Bootstrap consumer so dispatch has a session to lock.
                await session.create_consumer("bootstrap")
                reached = asyncio.Event(), asyncio.Event()
                broker.firsts = {
                    ("AioSession.create_consumer", session.lock.name): reached,
                    ("AioBroker.dispatch_to_sessions", broker.dispatcher_lock.name):
                        reached[::-1]}
                timeouts = []

                async def register():
                    try:
                        await session.create_consumer("c")
                    except AppLockTimeout:
                        timeouts.append("register")

                async def dispatch():
                    try:
                        await broker.dispatch_to_sessions({"m": 1})
                    except AppLockTimeout:
                        timeouts.append("dispatch")

                await asyncio.gather(register(), dispatch())
                return timeouts

            timeouts = asyncio.run(scenario())
            assert timeouts  # at least one side timed out in the deadlock
            assert len(dimmunix.history) >= 1
        finally:
            dimmunix.stop()

    def test_aiobroker_workload_runs_clean(self, aio_runtime):
        from repro.harness import run_aiobroker_workload

        result = run_aiobroker_workload(aio_runtime, tasks=2, cycles=2,
                                        messages_per_cycle=3)
        assert result.errors == 0
        assert result.operations > 0
        assert result.throughput > 0
