"""The threaded gauntlet: ``threads_miss`` and ``threads_match``.

Two closed-loop client threads drive one program composed from the
existing apps (connpool -> minibroker -> minidb) plus a benchmark-owned
permit gate and catalog rwlock.  One request is one app call (1-3 lock
operations).  Each client owns its connection, queue, subscription and
database; the gate, the catalog and one shared queue (single-lock
producer traffic) are shared.  The same request lists run against a
native twin of the program, built by overriding the apps' lock
factories, so every immune trial has a native trial next to it.

Requests are counted here, in the driver; nothing is taken from an app
return value (``harness.appworkloads`` adds queue lengths to its
operation count, which makes its ops/s grow with run length).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import AppLockTimeout, Broker, Connection, MiniDB
from repro.core import CallStack, Dimmunix, DimmunixConfig, EventType, History
from repro.instrument import DimmunixRWLock, DimmunixSemaphore, InstrumentationRuntime

from .common import (CheckFailed, Outcome, SpeedMeter, foreign_history, median_setup,
                     peak_rss_mb, percentile, summarize)

CLIENTS = 2
GATE_PERMITS = 4
ACQUIRE_TIMEOUT = 5.0
#: Requests per client in one trial, before ``--scale``.  An immune trial lasts
#: about a second, ten monitor periods: shorter ones see one pass or two, and the
#: per-trial figures split into two modes that a median jumps between.
REQUESTS_MISS = 7000
REQUESTS_MATCH = 1200
#: Segments an immune trial is cut into; the machine speed is sampled between them.
SEGMENTS = 7
#: Passes over the request lists in one native trial.
NATIVE_REPEATS = 8
QUEUE_CAP = 32
TABLE_CAP = 64

# Request kinds: index into Client.handlers.
(SET_PARAMETER, EXECUTE_QUERY, GET_WARNINGS, ENQUEUE, DISPATCH, ACK, SHARED_ENQUEUE,
 INSERT, ROW_COUNT, TRUNCATE, GATE, CATALOG_READ, CATALOG_WRITE) = range(13)
# The shared queue is kept rare: a client preempted while holding it hands the
# other one a lock convoy (block, materialize, block back), and at a few percent
# of the traffic that alone pushes the all-miss run past 1 % materialized captures.
_WEIGHTS = {SET_PARAMETER: 4, EXECUTE_QUERY: 4, GET_WARNINGS: 2, ENQUEUE: 6, DISPATCH: 6,
            ACK: 6, SHARED_ENQUEUE: 1, INSERT: 5, ROW_COUNT: 3, TRUNCATE: 1, GATE: 4,
            CATALOG_READ: 6, CATALOG_WRITE: 2}

Request = Tuple[int, int, object]
#: What a request that raised (``AppLockTimeout`` or anything else) counts as returning.
RAISED = object()


def generate_requests(seed: int, client: int, count: int,
                      weights: Optional[Dict[int, int]] = None) -> List[Request]:
    """A client's request list with the result each request must return.

    The list is valid against a *fresh* program: a small model of the
    client's queue and table tracks what every call returns, and keeps
    both bounded so memory is flat however long a run lasts.
    """
    rng = random.Random(seed * 1009 + client)
    # Every block of sum(weights) requests holds each kind exactly ``weight`` times,
    # in seeded order: the mix, and with it the latency tail, is the same for all seeds.
    block = [kind for kind, weight in (weights or _WEIGHTS).items() for _ in range(weight)]
    kinds: List[int] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    queued: List[int] = []
    prefetched: List[int] = []
    rows = 0
    catalog: Dict[int, int] = {}
    next_message = 0
    requests: List[Request] = []
    for kind in kinds[:count]:
        if kind == ACK and not prefetched:
            kind = DISPATCH
        if kind == DISPATCH and not queued:
            kind = ENQUEUE
        if kind == ENQUEUE and len(queued) >= QUEUE_CAP:
            kind = DISPATCH
        if kind == INSERT and rows >= TABLE_CAP:
            kind = TRUNCATE
        if kind == TRUNCATE and rows == 0:
            kind = INSERT
        arg = rng.randrange(8)
        if kind == SET_PARAMETER:
            expected: object = None
        elif kind == EXECUTE_QUERY:
            expected = 2
        elif kind == GET_WARNINGS:
            expected = 0
        elif kind == ENQUEUE:
            arg = next_message
            next_message += 1
            queued.append(arg)
            expected = len(queued)
        elif kind == DISPATCH:
            prefetched.append(queued.pop(0))
            expected = True
        elif kind == ACK:
            expected = prefetched.pop(0)
        elif kind == SHARED_ENQUEUE:
            expected = None
        elif kind == INSERT:
            rows += 1
            expected = rows
        elif kind == ROW_COUNT:
            expected = rows
        elif kind == TRUNCATE:
            expected, rows = rows, 0
        elif kind == GATE:
            expected = arg
        elif kind == CATALOG_READ:
            expected = catalog.get(arg, -1)
        else:
            arg += 8 * rng.randrange(1000)
            catalog[arg % 8] = arg // 8
            expected = None
        requests.append((kind, arg, expected))
    return requests


# -- the native twin -------------------------------------------------------------------


class _NativeLocks:
    """Overrides the apps' lock factories with the plain ``threading`` types."""

    def make_lock(self, name):
        return threading.Lock()

    def make_rlock(self, name):
        return threading.RLock()

    def acquire_nested(self, lock, operation):
        if not lock.acquire(timeout=self.acquire_timeout):
            raise AppLockTimeout("native", operation)


class NativeConnection(_NativeLocks, Connection):
    pass


class NativeBroker(_NativeLocks, Broker):
    pass


class NativeMiniDB(_NativeLocks, MiniDB):
    pass


class NativeRWLock:
    """The reader-preference rwlock of ``DimmunixRWLock`` without the engine."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers: Dict[int, int] = {}
        self._writer: Optional[int] = None

    def acquire_read(self) -> bool:
        me = threading.get_ident()
        with self._cond:
            while self._writer is not None and self._writer != me:
                self._cond.wait()
            self._readers[me] = self._readers.get(me, 0) + 1
        return True

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._readers[me]
            if count == 1:
                del self._readers[me]
            else:
                self._readers[me] = count - 1
            self._cond.notify_all()

    def acquire_write(self) -> bool:
        me = threading.get_ident()
        with self._cond:
            while self._writer is not None or any(tid != me for tid in self._readers):
                self._cond.wait()
            self._writer = me
        return True

    def release_write(self) -> None:
        with self._cond:
            self._writer = None
            self._cond.notify_all()


@dataclass
class Kit:
    """The constructors one flavour of the program is built from."""

    broker: Callable
    gate: Callable
    catalog: Callable
    connection: Optional[Callable] = None
    database: Optional[Callable] = None


#: Passed as the apps' ``runtime`` so they never create the process default.
_NO_RUNTIME = object()

NATIVE_KIT = Kit(
    connection=lambda: NativeConnection(_NO_RUNTIME, ACQUIRE_TIMEOUT),
    broker=lambda: NativeBroker(_NO_RUNTIME, ACQUIRE_TIMEOUT),
    database=lambda: NativeMiniDB(_NO_RUNTIME, ACQUIRE_TIMEOUT),
    gate=lambda: threading.Semaphore(GATE_PERMITS),
    catalog=NativeRWLock)


def immune_kit(runtime: InstrumentationRuntime) -> Kit:
    return Kit(
        connection=lambda: Connection(runtime, ACQUIRE_TIMEOUT),
        broker=lambda: Broker(runtime, ACQUIRE_TIMEOUT),
        database=lambda: MiniDB(runtime, ACQUIRE_TIMEOUT),
        gate=lambda: DimmunixSemaphore(GATE_PERMITS, runtime=runtime, name="gate"),
        catalog=lambda: DimmunixRWLock(runtime=runtime, name="catalog"))


# -- the program -----------------------------------------------------------------------


class Client:
    """One closed-loop client: its own objects plus the shared ones."""

    def __init__(self, kit: Kit, index: int, broker, shared_queue, gate, catalog_lock,
                 catalog: Dict):
        self.index = index
        self.connection = kit.connection()
        self.statement = self.connection.prepare_statement("SELECT * FROM t")
        self.queue = broker.create_queue(f"q{index}")
        self.subscription = broker.subscribe(self.queue, f"consumer-{index}")
        self.shared_queue = shared_queue
        self.database = kit.database()
        self.database.create_table("t")
        self.gate = gate
        self.catalog_lock = catalog_lock
        self.catalog = catalog
        self.handlers = (self.set_parameter, self.execute_query, self.get_warnings,
                         self.enqueue, self.dispatch, self.ack, self.shared_enqueue,
                         self.insert, self.row_count, self.truncate, self.enter_gate,
                         self.catalog_read, self.catalog_write)

    def set_parameter(self, arg):
        return self.statement.set_parameter(1, arg)

    def execute_query(self, arg):
        return len(self.statement.execute_query())

    def get_warnings(self, arg):
        return len(self.statement.get_warnings())

    def enqueue(self, arg):
        return self.queue.enqueue({"id": arg})

    def dispatch(self, arg):
        return self.queue.dispatch_one()

    def ack(self, arg):
        return self.subscription.remove(self.queue)["id"]

    def shared_enqueue(self, arg):
        self.shared_queue.enqueue({"id": arg})

    def insert(self, arg):
        return self.database.insert("t", {"v": arg})

    def row_count(self, arg):
        return self.database.row_count("t")

    def truncate(self, arg):
        return self.database.truncate("t")

    def enter_gate(self, arg):
        with self.gate:
            return arg

    def catalog_read(self, arg):
        self.catalog_lock.acquire_read()
        try:
            return self.catalog.get((self.index, arg), -1)
        finally:
            self.catalog_lock.release_read()

    def catalog_write(self, arg):
        self.catalog_lock.acquire_write()
        try:
            self.catalog[(self.index, arg % 8)] = arg // 8
        finally:
            self.catalog_lock.release_write()

    def run(self, requests: Sequence[Request], latencies: List[int]) -> int:
        """Issue every request in order; returns how many failed."""
        handlers = self.handlers
        clock = time.perf_counter_ns
        record = latencies.append
        failed = 0
        for kind, arg, expected in requests:
            started = clock()
            try:
                result = handlers[kind](arg)
            except Exception:
                result = RAISED
            record(clock() - started)
            if result != expected:
                failed += 1
        return failed


class Program:
    """A fresh instance of the whole program for one trial."""

    def __init__(self, kit: Kit, clients: int):
        self.broker = kit.broker()
        self.shared_queue = self.broker.create_queue("shared")
        gate = kit.gate()
        catalog_lock = kit.catalog()
        catalog: Dict = {}
        self.clients = [Client(kit, index, self.broker, self.shared_queue, gate,
                               catalog_lock, catalog) for index in range(clients)]


class Trial:
    """What one trial measured, in calibrated time; latencies are sorted nanoseconds."""

    def __init__(self, requests: int, failed: int, wall: float, cpu: float,
                 latencies: List[float]):
        self.requests = requests
        self.failed = failed
        self.wall = wall
        self.cpu = cpu
        self.latencies = latencies

    @property
    def ops_per_s(self) -> float:
        return self.requests / self.wall


def merge_trials(trials: Sequence[Trial]) -> Trial:
    """Back-to-back trials as one; the per-request latencies are not kept."""
    return Trial(sum(trial.requests for trial in trials), sum(trial.failed for trial in trials),
                 sum(trial.wall for trial in trials), sum(trial.cpu for trial in trials), [])


def shared_enqueues(lists: Sequence[Sequence[Request]]) -> int:
    return sum(1 for requests in lists for kind, _, _ in requests if kind == SHARED_ENQUEUE)


class Workers:
    """The client threads, alive for the whole run and fed one segment at a time."""

    def __init__(self, clients: int):
        self._start = threading.Barrier(clients + 1)
        self._done = threading.Barrier(clients + 1)
        self._job: Optional[Tuple[Program, Sequence[Sequence[Request]]]] = None
        self._latencies: List[List[int]] = []
        self._failed = [0] * clients
        self._began = [0.0] * clients
        self._ended = [0.0] * clients
        self._threads = [threading.Thread(target=self._loop, args=(index,), daemon=True,
                                          name=f"client-{index}")
                         for index in range(clients)]
        for thread in self._threads:
            thread.start()

    def _loop(self, index: int) -> None:
        while True:
            self._start.wait()
            if self._job is None:
                return
            program, lists = self._job
            # The clients stamp the clock themselves: the main thread may not get the
            # GIL back until long after the barrier let everyone go.
            self._began[index] = time.perf_counter()
            self._failed[index] = program.clients[index].run(lists[index],
                                                             self._latencies[index])
            self._ended[index] = time.perf_counter()
            self._done.wait()

    def trial(self, kit: Kit, segments: Sequence[Sequence[Sequence[Request]]],
              meter: SpeedMeter) -> Trial:
        """Run the segments in order on one fresh program.

        Wall and CPU time cover all clients; every duration is scaled by
        the machine speed measured around its segment.
        """
        program = Program(kit, len(segments[0]))
        wall = cpu = 0.0
        failed = 0
        latencies: List[float] = []
        meter.restart()
        for lists in segments:
            self._job = (program, lists)
            self._latencies = [[] for _ in lists]
            cpu_before = time.process_time()
            self._start.wait()
            self._done.wait()
            elapsed = max(self._ended) - min(self._began)
            burned = time.process_time() - cpu_before
            speed = meter.lap()
            wall += elapsed * speed
            cpu += burned * speed
            failed += sum(self._failed)
            latencies.extend(value * speed for client in self._latencies for value in client)
        if len(program.shared_queue.messages) != sum(map(shared_enqueues, segments)):
            failed += 1
        latencies.sort()
        return Trial(len(latencies), failed, wall, cpu, latencies)

    def stop(self) -> None:
        self._job = None
        self._start.wait()
        for thread in self._threads:
            thread.join(timeout=5.0)


def cut(lists: Sequence[Sequence[Request]], pieces: int) -> List[List[Sequence[Request]]]:
    """Cut every client's list into ``pieces`` consecutive segments (~0.1 s each)."""
    length = -(-len(lists[0]) // pieces)
    return [[requests[start:start + length] for requests in lists]
            for start in range(0, len(lists[0]), length)]


# -- histories -------------------------------------------------------------------------


def collect_own_stacks(workers: Workers, lists, meter: SpeedMeter) -> List[CallStack]:
    """The program's own acquisition stacks, from a monitor-less eager-capture run."""
    dimmunix = Dimmunix(DimmunixConfig(lazy_capture=False))
    trial = workers.trial(immune_kit(InstrumentationRuntime(dimmunix)), [lists], meter)
    bus = dimmunix.engine.events
    if trial.failed or bus.dropped:
        raise CheckFailed(f"stack collection run: {trial.failed} failed requests, "
                          f"{bus.dropped} dropped events")
    stacks = {event.stack for event in bus.drain() if event.type is EventType.ACQUIRED}
    return sorted(stacks)


HistoryBuilder = Callable[[int, Optional[List[CallStack]]], History]


class World:
    """Everything one run needs before its first timed trial, warm-up included."""

    def __init__(self, seed: int, requests: int, match: bool, meter: SpeedMeter,
                 clients: int = CLIENTS, history: HistoryBuilder = foreign_history):
        self.meter = meter
        self.workers = Workers(clients)
        lists = [generate_requests(seed, client, requests) for client in range(clients)]
        self.segments = cut(lists, SEGMENTS)
        self.passes = [lists]
        warm = [[requests[:max(50, len(requests) // 8)] for requests in lists]]
        # The stack collection issues the very lists the trials will, so every call
        # site a trial reaches has a signature.  It is capped by the event ring.
        own = (collect_own_stacks(self.workers, [r[:4000] for r in lists], meter)
               if match else None)
        self.dimmunix = Dimmunix(DimmunixConfig(), history=history(seed, own))
        self.runtime = InstrumentationRuntime(self.dimmunix)
        self.immune_kit = immune_kit(self.runtime)
        self.dimmunix.start()
        self.workers.trial(self.immune_kit, warm, meter)
        self.workers.trial(NATIVE_KIT, warm, meter)

    def immune_trial(self) -> Trial:
        return self.workers.trial(self.immune_kit, self.segments, self.meter)

    def native_trial(self) -> Trial:
        """Several passes, each on a fresh program: one alone is too short to time well."""
        return merge_trials([self.workers.trial(NATIVE_KIT, self.passes, self.meter)
                             for _ in range(NATIVE_REPEATS)])

    def close(self) -> None:
        self.workers.stop()
        self.dimmunix.stop()


def measure_pairs(outcome: Outcome, world, seconds: float) -> None:
    """Alternate immune and native trials (order swapped every pair) for ``seconds``."""
    deadline = time.perf_counter() + seconds
    immune_first = True
    pairs = 0
    while pairs < 5 or time.perf_counter() < deadline:
        if immune_first:
            immune, native = world.immune_trial(), world.native_trial()
        else:
            native, immune = world.native_trial(), world.immune_trial()
        immune_first = not immune_first
        pairs += 1
        outcome.attempted += immune.requests + native.requests
        outcome.failed += immune.failed + native.failed
        outcome.add("ops_per_s", immune.ops_per_s)
        outcome.add("overhead_x", native.ops_per_s / immune.ops_per_s)
        outcome.add("cpu_us_per_op", immune.cpu / immune.requests * 1e6)
        outcome.add("op_p50_us", percentile(immune.latencies, 0.50) / 1e3)
        outcome.add("op_p90_us", percentile(immune.latencies, 0.90) / 1e3)
        outcome.add("op_p95_us", percentile(immune.latencies, 0.95) / 1e3)
        outcome.add("op_p99_us", percentile(immune.latencies, 0.99) / 1e3)
        outcome.add("native_ops_per_s", native.ops_per_s)
    outcome.counts["requests_per_trial"] = immune.requests


def run_world(workload: str, build: Callable[[SpeedMeter], object], seconds: float,
              match: bool) -> Outcome:
    """Set-up time, medians over immune/native trial pairs, then the path check."""
    outcome = Outcome(workload)
    meter = SpeedMeter()
    outcome.add("setup_s", median_setup(lambda: build(meter), lambda world: world.close(),
                                        meter))
    world = build(meter)
    try:
        measure_pairs(outcome, world, seconds)
    finally:
        world.close()
    check_path(outcome, world.dimmunix, match)
    outcome.add("peak_rss_mb", peak_rss_mb())
    outcome.extra["machine_speed"] = summarize(meter.samples)
    return outcome


def run(workload: str, seed: int, seconds: float, scale: float = 1.0,
        history: HistoryBuilder = foreign_history) -> Outcome:
    match = workload == "threads_match"
    requests = max(50, int((REQUESTS_MATCH if match else REQUESTS_MISS) * scale))
    return run_world(workload, lambda meter: World(seed, requests, match, meter,
                                                   history=history), seconds, match)


def check_path(outcome: Outcome, dimmunix: Dimmunix, match: bool) -> None:
    """Did the requests leave through the code path the workload exists for?

    Read after ``stop()``, so the monitor has drained every event.  A
    granted request emits ALLOW, ACQUIRED and RELEASE; one that found
    index candidates and entered the cover search emits REQUEST as well,
    so events per acquisition minus three is the share that searched.
    """
    stats = dimmunix.stats.snapshot()
    unwanted = {"yield_decisions": stats["yield_decisions"],
                "deadlocks_detected": stats["deadlocks_detected"],
                "dropped_events": dimmunix.engine.events.dropped}
    if any(unwanted.values()):
        raise CheckFailed(f"gauntlet must not yield, deadlock or drop events: {unwanted}")
    outcome.checks["yields_deadlocks_drops"] = "0"
    materialized = stats["capture_materialized"] / stats["capture_deferred"]
    searched = stats["events_processed"] / stats["acquisitions"] - 3.0
    low, high = (0.99, 1.01) if match else (0.0, 0.01)
    if not (low <= materialized <= high and low <= searched <= high):
        raise CheckFailed(
            f"{outcome.workload}: {materialized:.4f} of captures materialized and "
            f"{searched:.4f} of requests searched for a cover; both must lie in "
            f"[{low}, {high}] - the history does not fit the program's stacks")
    outcome.checks["materialized_ratio"] = f"{materialized:.4f}"
    outcome.checks["cover_search_ratio"] = f"{searched:.4f}"
