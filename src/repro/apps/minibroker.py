"""A miniature message broker.

Reproduces the two Apache ActiveMQ deadlocks of Table 1:

* **ActiveMQ 3.1 bug #336** — creating a message listener races with the
  active dispatching of messages to the same consumer: listener creation
  locks the *session* then the *dispatcher*, dispatch locks the
  *dispatcher* then the *session*.
* **ActiveMQ 4.0 bug #575** — ``Queue.dropEvent()`` locks the queue then
  the subscription, while ``PrefetchSubscription.add()`` locks the
  subscription then the queue.  The paper notes this bug has three
  distinct deadlock patterns; the additional patterns come from
  ``PrefetchSubscription.remove()`` and the acknowledgement path, both of
  which also nest subscription-then-queue.

The broker otherwise behaves like a small but real pub/sub system: it can
enqueue, dispatch, and acknowledge messages, so throughput workloads
(Figure 4's JBoss/RUBiS stand-in) can run against it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional

from .base import MiniApp


class PrefetchSubscription:
    """A consumer-side prefetch buffer."""

    _ids = itertools.count(1)

    def __init__(self, broker: "Broker", consumer: str):
        self.subscription_id = next(PrefetchSubscription._ids)
        self.consumer = consumer
        self.broker = broker
        self.lock = broker.make_rlock(f"subscription-{self.subscription_id}")
        self.prefetched: Deque[dict] = deque()
        self.delivered: List[dict] = []

    def add(self, queue: "Queue", message: dict) -> int:
        """Add a message: locks the subscription, then the queue (bug #575)."""
        with self.broker.holding(self.lock, "PrefetchSubscription.add"):
            self.prefetched.append(message)
            with self.broker.holding(queue.lock, "PrefetchSubscription.add"):
                queue.in_flight += 1
            return len(self.prefetched)

    def remove(self, queue: "Queue") -> Optional[dict]:
        """Acknowledge a message: subscription lock, then queue lock (bug #575,
        second pattern)."""
        with self.broker.holding(self.lock, "PrefetchSubscription.remove"):
            if not self.prefetched:
                return None
            message = self.prefetched.popleft()
            self.delivered.append(message)
            with self.broker.holding(queue.lock, "PrefetchSubscription.remove"):
                queue.in_flight = max(0, queue.in_flight - 1)
                queue.dequeued += 1
            return message


class Queue:
    """A broker-side message queue."""

    def __init__(self, broker: "Broker", name: str):
        self.name = name
        self.broker = broker
        self.lock = broker.make_rlock(f"queue-{name}")
        self.messages: Deque[dict] = deque()
        self.subscriptions: List[PrefetchSubscription] = []
        self.in_flight = 0
        self.dequeued = 0

    def enqueue(self, message: dict) -> int:
        """Producer path: queue lock only (not deadlock prone)."""
        with self.broker.holding(self.lock, "Queue.enqueue"):
            self.messages.append(message)
            return len(self.messages)

    def drop_event(self, subscription: PrefetchSubscription) -> int:
        """Handle a consumer drop: locks the queue, then the subscription
        (bug #575, opposite order to :meth:`PrefetchSubscription.add`)."""
        with self.broker.holding(self.lock, "Queue.drop_event"):
            with self.broker.holding(subscription.lock, "Queue.drop_event"):
                recovered = len(subscription.prefetched)
                while subscription.prefetched:
                    self.messages.appendleft(subscription.prefetched.pop())
                if subscription in self.subscriptions:
                    self.subscriptions.remove(subscription)
                return recovered

    def dispatch_one(self) -> bool:
        """Move one message into a subscription's prefetch buffer."""
        with self.broker.holding(self.lock, "Queue.dispatch_one"):
            if not self.messages or not self.subscriptions:
                return False
            message = self.messages.popleft()
            target = self.subscriptions[0]
            with self.broker.holding(target.lock, "Queue.dispatch_one"):
                target.prefetched.append(message)
                self.in_flight += 1
            return True


class Session:
    """A client session; listener registration races with dispatch (bug #336)."""

    _ids = itertools.count(1)

    def __init__(self, broker: "Broker"):
        self.session_id = next(Session._ids)
        self.broker = broker
        self.lock = broker.make_rlock(f"session-{self.session_id}")
        self.consumers: List[str] = []

    def create_consumer(self, name: str) -> str:
        """Register a listener: locks the session, then the dispatcher (bug #336)."""
        with self.broker.holding(self.lock, "Session.create_consumer"):
            self.consumers.append(name)
            with self.broker.holding(self.broker.dispatcher_lock,
                                     "Session.create_consumer"):
                self.broker.dispatch_targets.append((self, name))
            return name


class Broker(MiniApp):
    """The broker: queues, sessions, and the dispatcher thread's lock."""

    def __init__(self, runtime=None, acquire_timeout: Optional[float] = None):
        super().__init__(runtime=runtime, acquire_timeout=acquire_timeout)
        self.queues: Dict[str, Queue] = {}
        self.dispatcher_lock = self.make_rlock("broker-dispatcher")
        self.dispatch_targets: List[tuple] = []
        self._registry_lock = self.make_rlock("broker-registry")

    # -- management ---------------------------------------------------------------------------

    def create_queue(self, name: str) -> Queue:
        """Create (or return) the queue ``name``."""
        with self.holding(self._registry_lock, "Broker.create_queue"):
            queue = self.queues.get(name)
            if queue is None:
                queue = Queue(self, name)
                self.queues[name] = queue
            return queue

    def create_session(self) -> Session:
        """Open a new client session."""
        return Session(self)

    def subscribe(self, queue: Queue, consumer: str) -> PrefetchSubscription:
        """Attach a consumer to a queue."""
        subscription = PrefetchSubscription(self, consumer)
        with self.holding(queue.lock, "Broker.subscribe"):
            queue.subscriptions.append(subscription)
        return subscription

    # -- the bug #336 dispatch path ----------------------------------------------------------------

    def dispatch_to_sessions(self, message: dict) -> int:
        """Active dispatch: locks the dispatcher, then each target session."""
        with self.holding(self.dispatcher_lock, "Broker.dispatch_to_sessions"):
            delivered = 0
            for session, _consumer in list(self.dispatch_targets):
                with self.holding(session.lock, "Broker.dispatch_to_sessions"):
                    delivered += 1
            return delivered

    # -- workload helpers (used by the Figure 4 benchmark) ------------------------------------------

    def produce_consume_cycle(self, queue_name: str, messages: int = 10) -> int:
        """A correct end-to-end produce/dispatch/ack cycle; returns acks."""
        queue = self.create_queue(queue_name)
        if not queue.subscriptions:
            self.subscribe(queue, f"consumer-{queue_name}")
        for index in range(messages):
            queue.enqueue({"id": index})
        dispatched = 0
        while queue.dispatch_one():
            dispatched += 1
        acks = 0
        for subscription in list(queue.subscriptions):
            while subscription.remove(queue) is not None:
                acks += 1
        return acks
