"""Request-driven workloads against the miniature server applications.

These stand in for the paper's end-to-end benchmarks: RUBiS (driving
JBoss) is replaced by a multi-threaded produce/dispatch/acknowledge
workload against the mini message broker, and JDBCBench (driving the MySQL
JDBC driver) by a multi-threaded transaction workload against the mini
connection/statement layer.  Both interleave locking with non-trivial work
between critical sections, which is what lets the avoidance overhead be
absorbed in realistic settings (section 7.2.1).

The asyncio counterpart (:func:`run_aiobroker_workload`) drives the
mini *async* broker with concurrent tasks on one event loop — the shape
of modern Python service traffic — so the harness matrix covers the
event-loop runtime with the same produce/dispatch/ack workload.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from ..apps.aiobroker import AioBroker
from ..apps.connpool import Connection
from ..apps.minibroker import Broker
from ..instrument.aio import AsyncioRuntime
from ..instrument.runtime import InstrumentationRuntime


@dataclass
class WorkloadResult:
    """Throughput measurement of one application workload run."""

    operations: int
    duration: float
    errors: int = 0

    @property
    def throughput(self) -> float:
        """Operations per second."""
        if self.duration <= 0:
            return 0.0
        return self.operations / self.duration


def run_broker_workload(runtime: InstrumentationRuntime, threads: int = 8,
                        cycles: int = 10, messages_per_cycle: int = 10
                        ) -> WorkloadResult:
    """The RUBiS stand-in: concurrent produce/dispatch/ack cycles.

    Each worker owns one queue but all workers also contend on a shared
    queue, so there is genuine lock contention across threads.
    """
    broker = Broker(runtime=runtime, acquire_timeout=1.0)
    shared = broker.create_queue("shared")
    operations = [0] * threads
    errors = [0] * threads
    barrier = threading.Barrier(threads + 1)

    def worker(index: int) -> None:
        barrier.wait()
        queue_name = f"queue-{index}"
        for cycle in range(cycles):
            try:
                # Full produce/dispatch/ack cycles on the worker's own queue;
                # the shared queue only sees producer traffic (a single-lock
                # path), so cross-thread contention exists without exercising
                # the broker's known deadlock-prone method pair.
                operations[index] += broker.produce_consume_cycle(
                    queue_name, messages=messages_per_cycle)
                if cycle % 2 == 0:
                    # One operation per enqueue; its return value is the
                    # queue length, which grows with the run.
                    shared.enqueue({"cycle": cycle, "worker": index})
                    operations[index] += 1
            except Exception:
                errors[index] += 1

    workers = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(threads)]
    for thread in workers:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in workers:
        thread.join()
    duration = time.perf_counter() - started
    return WorkloadResult(operations=sum(operations), duration=duration,
                          errors=sum(errors))


def run_aiobroker_workload(runtime: AsyncioRuntime, tasks: int = 8,
                           cycles: int = 10, messages_per_cycle: int = 10
                           ) -> WorkloadResult:
    """The asyncio stand-in: concurrent produce/dispatch/ack *task* cycles.

    The event-loop twin of :func:`run_broker_workload`: each task owns
    one queue but all tasks also contend on a shared queue, so there is
    genuine lock contention between tasks of one loop — the traffic
    shape of an async service under load.  Runs its own event loop via
    ``asyncio.run`` and reports wall-clock throughput.
    """
    broker = AioBroker(runtime=runtime, acquire_timeout=1.0)
    operations = [0] * tasks
    errors = [0] * tasks

    async def worker(index: int, shared, barrier: asyncio.Event) -> None:
        await barrier.wait()
        queue_name = f"aio-queue-{index}"
        for cycle in range(cycles):
            try:
                # Full produce/dispatch/ack cycles on the task's own queue;
                # the shared queue only sees producer traffic (a single-lock
                # path), so cross-task contention exists without exercising
                # the broker's known deadlock-prone method pair.
                operations[index] += await broker.produce_consume_cycle(
                    queue_name, messages=messages_per_cycle)
                if cycle % 2 == 0:
                    await shared.enqueue({"cycle": cycle, "worker": index})
                    operations[index] += 1
            except Exception:
                errors[index] += 1

    async def drive() -> float:
        shared = await broker.create_queue("aio-shared")
        barrier = asyncio.Event()
        workers = [asyncio.ensure_future(worker(i, shared, barrier))
                   for i in range(tasks)]
        await asyncio.sleep(0)  # let every worker reach the barrier
        barrier.set()
        started = time.perf_counter()
        await asyncio.gather(*workers)
        return time.perf_counter() - started

    duration = asyncio.run(drive())
    return WorkloadResult(operations=sum(operations), duration=duration,
                          errors=sum(errors))


def run_jdbc_workload(runtime: InstrumentationRuntime, threads: int = 8,
                      transactions: int = 25, pool_size: Optional[int] = None
                      ) -> WorkloadResult:
    """The JDBCBench stand-in: concurrent transactions over a connection pool.

    Each worker checks out its own connection (as JDBCBench clients do), so
    the workload is deadlock free; contention comes from the driver-level
    statement bookkeeping inside each connection.
    """
    if pool_size is None:
        pool_size = threads
    pool: List[Connection] = [Connection(runtime=runtime, acquire_timeout=1.0)
                              for _ in range(pool_size)]
    operations = [0] * threads
    errors = [0] * threads
    barrier = threading.Barrier(threads + 1)

    def worker(index: int) -> None:
        barrier.wait()
        for txn in range(transactions):
            connection = pool[index % pool_size]
            try:
                statement = connection.prepare_statement(
                    f"SELECT * FROM accounts WHERE id = {txn}")
                statement.set_parameter(1, txn)
                rows = statement.execute_query()
                operations[index] += 1 + len(rows)
                statement.get_warnings()
                statement.close()
                operations[index] += 1
            except Exception:
                errors[index] += 1

    workers = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(threads)]
    for thread in workers:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in workers:
        thread.join()
    duration = time.perf_counter() - started
    return WorkloadResult(operations=sum(operations), duration=duration,
                          errors=sum(errors))
