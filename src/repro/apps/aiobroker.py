"""A miniature *asyncio* message broker.

The event-loop twin of :mod:`repro.apps.minibroker`: the same two Apache
ActiveMQ deadlock shapes of Table 1, but the contenders are asyncio
tasks and the locks are :class:`~repro.instrument.aio.AioLock`
instances:

* the **bug #336 analogue** — registering a message listener locks the
  *session* then the *dispatcher*, while active dispatch locks the
  *dispatcher* then each *session*;
* the **bug #575 analogue** — ``Queue.drop_event()`` locks the queue
  then the subscription, while ``Subscription.add()`` locks the
  subscription then the queue.

In a threaded broker these inversions hang two threads; on an event
loop they hang two *tasks* — and, because every other coroutine awaits
the same loop, a deadlocked pair quietly wedges whatever shares locks
with it.  The broker otherwise behaves like a small but real async
pub/sub system (enqueue, dispatch, acknowledge), so throughput
workloads can run against it (see
:func:`repro.harness.appworkloads.run_aiobroker_workload` and the
``aio_miss`` workload of ``benchmarks/e2e/``).
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import asynccontextmanager
from typing import Deque, Dict, List, Optional

from ..instrument.aio import AioLock, AsyncioRuntime
from ..instrument.patching import default_runtime
from .base import AppLockTimeout


class AioApp:
    """Base class for asyncio miniature apps: aio locks bound to one runtime.

    The asyncio analogue of :class:`repro.apps.base.MiniApp`: nested
    acquisitions are bounded by ``acquire_timeout`` and surface
    :class:`~repro.apps.base.AppLockTimeout` on expiry, standing in for
    the external restart the paper relies on for recovery.
    """

    #: Bound on nested lock acquisitions inside app methods, in seconds.
    acquire_timeout: float = 2.0

    def __init__(self, runtime: Optional[AsyncioRuntime] = None,
                 acquire_timeout: Optional[float] = None):
        self.runtime = runtime if runtime is not None else default_runtime("asyncio")
        if acquire_timeout is not None:
            self.acquire_timeout = acquire_timeout

    def make_lock(self, name: str) -> AioLock:
        """An aio mutex tied to this app's runtime."""
        return AioLock(runtime=self.runtime, name=name)

    async def acquire_nested(self, lock: AioLock, operation: str) -> None:
        """Acquire ``lock`` with the app's timeout; raise on expiry."""
        if not await lock.acquire(timeout=self.acquire_timeout):
            raise AppLockTimeout(lock.name, operation)

    @asynccontextmanager
    async def holding(self, lock: AioLock, operation: str):
        """Hold ``lock`` for the duration of the block."""
        await self.acquire_nested(lock, operation)
        try:
            yield
        finally:
            lock.release()


class AioSubscription:
    """A consumer-side prefetch buffer (asyncio twin of PrefetchSubscription)."""

    _ids = itertools.count(1)

    def __init__(self, broker: "AioBroker", consumer: str):
        self.subscription_id = next(AioSubscription._ids)
        self.consumer = consumer
        self.broker = broker
        self.lock = broker.make_lock(f"aio-subscription-{self.subscription_id}")
        self.prefetched: Deque[dict] = deque()
        self.delivered: List[dict] = []

    async def add(self, queue: "AioQueue", message: dict) -> int:
        """Add a message: locks the subscription, then the queue (bug #575)."""
        async with self.broker.holding(self.lock, "AioSubscription.add"):
            self.prefetched.append(message)
            async with self.broker.holding(queue.lock, "AioSubscription.add"):
                queue.in_flight += 1
            return len(self.prefetched)

    async def remove(self, queue: "AioQueue") -> Optional[dict]:
        """Acknowledge a message: subscription lock, then queue lock."""
        async with self.broker.holding(self.lock, "AioSubscription.remove"):
            if not self.prefetched:
                return None
            message = self.prefetched.popleft()
            self.delivered.append(message)
            async with self.broker.holding(queue.lock, "AioSubscription.remove"):
                queue.in_flight = max(0, queue.in_flight - 1)
                queue.dequeued += 1
            return message


class AioQueue:
    """A broker-side message queue."""

    def __init__(self, broker: "AioBroker", name: str):
        self.name = name
        self.broker = broker
        self.lock = broker.make_lock(f"aio-queue-{name}")
        self.messages: Deque[dict] = deque()
        self.subscriptions: List[AioSubscription] = []
        self.in_flight = 0
        self.dequeued = 0

    async def enqueue(self, message: dict) -> int:
        """Producer path: queue lock only (not deadlock prone)."""
        async with self.broker.holding(self.lock, "AioQueue.enqueue"):
            self.messages.append(message)
            return len(self.messages)

    async def drop_event(self, subscription: AioSubscription) -> int:
        """Handle a consumer drop: locks the queue, then the subscription
        (bug #575, opposite order to :meth:`AioSubscription.add`)."""
        async with self.broker.holding(self.lock, "AioQueue.drop_event"):
            async with self.broker.holding(subscription.lock,
                                           "AioQueue.drop_event"):
                recovered = len(subscription.prefetched)
                while subscription.prefetched:
                    self.messages.appendleft(subscription.prefetched.pop())
                if subscription in self.subscriptions:
                    self.subscriptions.remove(subscription)
                return recovered

    async def dispatch_one(self) -> bool:
        """Move one message into a subscription's prefetch buffer."""
        async with self.broker.holding(self.lock, "AioQueue.dispatch_one"):
            if not self.messages or not self.subscriptions:
                return False
            message = self.messages.popleft()
            target = self.subscriptions[0]
            async with self.broker.holding(target.lock,
                                           "AioQueue.dispatch_one"):
                target.prefetched.append(message)
                self.in_flight += 1
            return True


class AioSession:
    """A client session; listener registration races with dispatch (bug #336)."""

    _ids = itertools.count(1)

    def __init__(self, broker: "AioBroker"):
        self.session_id = next(AioSession._ids)
        self.broker = broker
        self.lock = broker.make_lock(f"aio-session-{self.session_id}")
        self.consumers: List[str] = []

    async def create_consumer(self, name: str) -> str:
        """Register a listener: locks the session, then the dispatcher."""
        async with self.broker.holding(self.lock, "AioSession.create_consumer"):
            self.consumers.append(name)
            async with self.broker.holding(self.broker.dispatcher_lock,
                                           "AioSession.create_consumer"):
                self.broker.dispatch_targets.append((self, name))
            return name


class AioBroker(AioApp):
    """The async broker: queues, sessions, and the dispatcher task's lock."""

    def __init__(self, runtime: Optional[AsyncioRuntime] = None,
                 acquire_timeout: Optional[float] = None):
        super().__init__(runtime=runtime, acquire_timeout=acquire_timeout)
        self.queues: Dict[str, AioQueue] = {}
        self.dispatcher_lock = self.make_lock("aio-broker-dispatcher")
        self.dispatch_targets: List[tuple] = []
        self._registry_lock = self.make_lock("aio-broker-registry")

    # -- management ---------------------------------------------------------------------------

    async def create_queue(self, name: str) -> AioQueue:
        """Create (or return) the queue ``name``."""
        async with self.holding(self._registry_lock, "AioBroker.create_queue"):
            queue = self.queues.get(name)
            if queue is None:
                queue = AioQueue(self, name)
                self.queues[name] = queue
            return queue

    def create_session(self) -> AioSession:
        """Open a new client session."""
        return AioSession(self)

    async def subscribe(self, queue: AioQueue, consumer: str) -> AioSubscription:
        """Attach a consumer to a queue."""
        subscription = AioSubscription(self, consumer)
        async with self.holding(queue.lock, "AioBroker.subscribe"):
            queue.subscriptions.append(subscription)
        return subscription

    # -- the bug #336 dispatch path ----------------------------------------------------------------

    async def dispatch_to_sessions(self, message: dict) -> int:
        """Active dispatch: locks the dispatcher, then each target session."""
        async with self.holding(self.dispatcher_lock,
                                "AioBroker.dispatch_to_sessions"):
            delivered = 0
            for session, _consumer in list(self.dispatch_targets):
                async with self.holding(session.lock,
                                        "AioBroker.dispatch_to_sessions"):
                    delivered += 1
            return delivered

    # -- workload helpers (used by the asyncio overhead benchmark) ----------------------------------

    async def produce_consume_cycle(self, queue_name: str,
                                    messages: int = 10) -> int:
        """A correct end-to-end produce/dispatch/ack cycle; returns acks."""
        queue = await self.create_queue(queue_name)
        if not queue.subscriptions:
            await self.subscribe(queue, f"consumer-{queue_name}")
        for index in range(messages):
            await queue.enqueue({"id": index})
        while await queue.dispatch_one():
            pass
        acks = 0
        for subscription in list(queue.subscriptions):
            while await subscription.remove(queue) is not None:
                acks += 1
        return acks
