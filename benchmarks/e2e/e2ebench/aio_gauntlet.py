"""The asyncio gauntlet: ``aio_miss``.

Eight closed-loop client tasks on one event loop drive ``AioBroker`` plus
a benchmark-owned ``AioSemaphore`` gate and ``AioRWLock`` catalog against
an all-miss history.  ``instrument.aio`` does the work here and
``instrument.locks`` none.  A client hands control back to the loop after
every request, as a client waiting for its reply does; no lock is held
across that hand-over, so acquisitions stay on the uncontended path.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Dict, List, Sequence

from repro.apps import AioBroker
from repro.core import Dimmunix, DimmunixConfig
from repro.instrument import AioRWLock, AioSemaphore, AsyncioRuntime

from .common import Outcome, SpeedMeter, foreign_history
from .gauntlet import (ACK, ACQUIRE_TIMEOUT, CATALOG_READ, CATALOG_WRITE, DISPATCH, ENQUEUE,
                       GATE, GATE_PERMITS, RAISED, SHARED_ENQUEUE, Kit, Request, Trial, cut,
                       generate_requests, merge_trials, run_world, shared_enqueues)

CLIENTS = 8
#: Requests per client task in one trial, before ``--scale``.
REQUESTS = 3200
#: Segments an immune trial is cut into; the machine speed is sampled between them.
SEGMENTS = 12
#: Passes over the request lists in one native trial.
NATIVE_REPEATS = 4
_WEIGHTS = {ENQUEUE: 6, DISPATCH: 6, ACK: 6, SHARED_ENQUEUE: 4, GATE: 4, CATALOG_READ: 6,
            CATALOG_WRITE: 2}


class NativeAioBroker(AioBroker):
    """``AioBroker`` on plain ``asyncio.Lock``: the native twin."""

    def make_lock(self, name):
        return asyncio.Lock()

    async def acquire_nested(self, lock, operation):
        await lock.acquire()


class NativeAioRWLock:
    """A reader-preference rwlock on loop futures, without the engine."""

    def __init__(self):
        self._readers = 0
        self._writer = False
        self._waiters: deque = deque()

    async def _wait(self) -> None:
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        try:
            await future
        finally:
            self._waiters.remove(future)

    def _wake(self) -> None:
        for future in self._waiters:
            if not future.done():
                future.set_result(True)

    async def acquire_read(self) -> bool:
        while self._writer:
            await self._wait()
        self._readers += 1
        return True

    def release_read(self) -> None:
        self._readers -= 1
        self._wake()

    async def acquire_write(self) -> bool:
        while self._writer or self._readers:
            await self._wait()
        self._writer = True
        return True

    def release_write(self) -> None:
        self._writer = False
        self._wake()


_NO_RUNTIME = object()

NATIVE_KIT = Kit(broker=lambda: NativeAioBroker(_NO_RUNTIME, ACQUIRE_TIMEOUT),
                 gate=lambda: asyncio.Semaphore(GATE_PERMITS),
                 catalog=NativeAioRWLock)


def immune_kit(runtime: AsyncioRuntime) -> Kit:
    return Kit(broker=lambda: AioBroker(runtime, ACQUIRE_TIMEOUT),
               gate=lambda: AioSemaphore(GATE_PERMITS, runtime=runtime, name="aio-gate"),
               catalog=lambda: AioRWLock(runtime=runtime, name="aio-catalog"))


class Client:
    """One closed-loop client task: its own queue plus the shared objects."""

    def __init__(self, index: int, queue, subscription, shared_queue, gate, catalog_lock,
                 catalog: Dict):
        self.index = index
        self.queue = queue
        self.subscription = subscription
        self.shared_queue = shared_queue
        self.gate = gate
        self.catalog_lock = catalog_lock
        self.catalog = catalog
        self.handlers = {ENQUEUE: self.enqueue, DISPATCH: self.dispatch, ACK: self.ack,
                         SHARED_ENQUEUE: self.shared_enqueue, GATE: self.enter_gate,
                         CATALOG_READ: self.catalog_read, CATALOG_WRITE: self.catalog_write}

    async def enqueue(self, arg):
        return await self.queue.enqueue({"id": arg})

    async def dispatch(self, arg):
        return await self.queue.dispatch_one()

    async def ack(self, arg):
        return (await self.subscription.remove(self.queue))["id"]

    async def shared_enqueue(self, arg):
        await self.shared_queue.enqueue({"id": arg})

    async def enter_gate(self, arg):
        async with self.gate:
            return arg

    async def catalog_read(self, arg):
        await self.catalog_lock.acquire_read()
        try:
            return self.catalog.get((self.index, arg), -1)
        finally:
            self.catalog_lock.release_read()

    async def catalog_write(self, arg):
        await self.catalog_lock.acquire_write()
        try:
            self.catalog[(self.index, arg % 8)] = arg // 8
        finally:
            self.catalog_lock.release_write()

    async def run(self, requests: Sequence[Request], latencies: List[int]) -> int:
        """Issue every request in order; returns how many failed."""
        handlers = self.handlers
        clock = time.perf_counter_ns
        record = latencies.append
        failed = 0
        for kind, arg, expected in requests:
            started = clock()
            try:
                result = await handlers[kind](arg)
            except Exception:
                result = RAISED
            record(clock() - started)
            if result != expected:
                failed += 1
            await asyncio.sleep(0)
        return failed


async def _trial(kit: Kit, segments: Sequence[Sequence[Sequence[Request]]],
                 meter: SpeedMeter) -> Trial:
    """Run the segments in order on one fresh program, all on this event loop."""
    broker = kit.broker()
    shared_queue = await broker.create_queue("aio-shared")
    gate, catalog_lock, catalog = kit.gate(), kit.catalog(), {}
    clients = []
    for index in range(len(segments[0])):
        queue = await broker.create_queue(f"aq{index}")
        subscription = await broker.subscribe(queue, f"consumer-{index}")
        clients.append(Client(index, queue, subscription, shared_queue, gate, catalog_lock,
                              catalog))
    wall = cpu = 0.0
    failed = 0
    latencies: List[float] = []
    meter.restart()
    for lists in segments:
        sinks: List[List[int]] = [[] for _ in clients]
        cpu_before = time.process_time()
        started = time.perf_counter()
        failures = await asyncio.gather(*(client.run(requests, sink) for client, requests, sink
                                          in zip(clients, lists, sinks)))
        elapsed = time.perf_counter() - started
        burned = time.process_time() - cpu_before
        speed = meter.lap()
        wall += elapsed * speed
        cpu += burned * speed
        failed += sum(failures)
        latencies.extend(value * speed for sink in sinks for value in sink)
    if len(shared_queue.messages) != sum(map(shared_enqueues, segments)):
        failed += 1
    latencies.sort()
    return Trial(len(latencies), failed, wall, cpu, latencies)


class World:
    """Everything one run needs before its first timed trial, warm-up included."""

    def __init__(self, seed: int, requests: int, meter: SpeedMeter):
        self.meter = meter
        lists = [generate_requests(seed, client, requests, _WEIGHTS)
                 for client in range(CLIENTS)]
        self.segments = cut(lists, SEGMENTS)
        self.passes = [lists]
        warm = [[requests[:max(25, len(requests) // 8)] for requests in lists]]
        self.dimmunix = Dimmunix(DimmunixConfig(), history=foreign_history(seed))
        self.runtime = AsyncioRuntime(self.dimmunix)
        self.immune_kit = immune_kit(self.runtime)
        self.dimmunix.start()
        asyncio.run(_trial(self.immune_kit, warm, meter))
        asyncio.run(_trial(NATIVE_KIT, warm, meter))

    def immune_trial(self) -> Trial:
        return asyncio.run(_trial(self.immune_kit, self.segments, self.meter))

    def native_trial(self) -> Trial:
        return merge_trials([asyncio.run(_trial(NATIVE_KIT, self.passes, self.meter))
                             for _ in range(NATIVE_REPEATS)])

    def close(self) -> None:
        self.dimmunix.stop()


def run(seed: int, seconds: float, scale: float = 1.0) -> Outcome:
    requests = max(25, int(REQUESTS * scale))
    return run_world("aio_miss", lambda meter: World(seed, requests, meter), seconds,
                     match=False)
