"""Isolated per-layer probes: a tight loop around one public call.

Each probe reports nanoseconds (or microseconds) per call as the median of
``REPEATS`` timed loops; the ``for`` loop and call overhead (some tens of
nanoseconds) are part of every figure.  Probes construct their own small
worlds, so their values do not depend on the workload that is traced next
to them.  README.md lists which end-to-end metric each one should move.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List

from repro.core import (AvoidanceCache, CallStack, Decision, Dimmunix, DimmunixConfig,
                        EngineStats, History, ResourceAllocationGraph, Signature,
                        SignatureIndex, acquired_event, allow_event, find_deadlock_cycles)
from repro.core.events import EV_ACQUIRED, EV_ALLOW, EV_RELEASE, EventBus
from repro.instrument import (AioLock, AioRWLock, AioSemaphore, AsyncioRuntime, DimmunixLock,
                              DimmunixRLock, DimmunixRWLock, DimmunixSemaphore,
                              InstrumentationRuntime)
from repro.share import FileChannel, GossipChannel, HistoryServer, MemoryHub, SignaturePool
from repro.share import open_channel
from repro.sim import SCENARIOS, DimmunixBackend, Explorer, NullBackend, build_philosophers

from .common import CheckFailed, SpeedMeter, foreign_history, foreign_stack
from .fleet import WORK_DIR

REPEATS = 5
Samples = Dict[str, List[float]]


class Bench:
    """The state one pass over the probes shares: results, loop scale, speed meter."""

    def __init__(self, scale: float):
        self.out: Samples = {}
        #: Loop lengths are multiplied by this (the suite's tests run at ``--scale 0.02``).
        self.scale = min(1.0, max(0.05, scale))
        self.meter = SpeedMeter()

    def sized(self, calls: int) -> int:
        return max(10, int(calls * self.scale))

    def start(self) -> int:
        """Open a timed interval."""
        self.meter.restart()
        return time.perf_counter_ns()

    def since(self, started_ns: int) -> float:
        """Calibrated nanoseconds since :meth:`start` returned ``started_ns``."""
        elapsed = time.perf_counter_ns() - started_ns
        return elapsed * self.meter.lap()

    def timed(self, loop: Callable[[], object], calls: int,
              reset: Callable[[], object] = None, scale: float = 1.0) -> List[float]:
        """Time ``loop`` (``calls`` calls) REPEATS times; ns per call times ``scale``."""
        samples = []
        for _ in range(REPEATS):
            started = self.start()
            loop()
            samples.append(self.since(started) / calls * scale)
            if reset is not None:
                reset()
        return samples


def symbolic(name: str) -> CallStack:
    return CallStack.from_labels([f"{name}:probe.py:1", "b:probe.py:2", "c:probe.py:3",
                                  "d:probe.py:4", "e:probe.py:5"])


def signatures(count: int, tag: str) -> List[Signature]:
    rng = random.Random(7)
    return [Signature([foreign_stack(rng, tag, index), foreign_stack(rng, tag + "x", index)])
            for index in range(count)]


def callstack_probes(bench: Bench) -> None:
    calls = bench.sized(5000)

    def lazy():
        capture = CallStack.capture_lazy
        for _ in range(calls):
            capture(0, 10)

    def eager():
        capture = CallStack.capture_cached
        for _ in range(calls):
            capture(0, 10)

    bench.out["core.callstack.capture_lazy_ns"] = bench.timed(lazy, calls)
    bench.out["core.callstack.capture_eager_ns"] = bench.timed(eager, calls)
    samples = []
    for _ in range(REPEATS):
        stacks = [CallStack.capture_lazy(0, 10) for _ in range(calls)]
        started = bench.start()
        for stack in stacks:
            stack.materialize()
        samples.append(bench.since(started) / calls)
    bench.out["core.callstack.materialize_ns"] = samples


def sigindex_probes(bench: Bench) -> None:
    calls = bench.sized(20000)
    history = foreign_history(3)
    index = SignatureIndex(history)
    miss, hit = symbolic("miss"), history.signatures()[5].stacks[0]
    if index.candidates(miss) or not index.candidates(hit):
        raise CheckFailed("sigindex probe stacks do not miss/hit as intended")

    def lookups(stack):
        def loop():
            candidates = index.candidates
            for _ in range(calls):
                candidates(stack)
        return loop

    bench.out["core.sigindex.candidates_miss_ns"] = bench.timed(lookups(miss), calls)
    bench.out["core.sigindex.candidates_hit_ns"] = bench.timed(lookups(hit), calls)
    big = History(path=None, autosave=False)
    big.merge(signatures(1000, "big"))
    index = SignatureIndex(big)
    fresh = signatures(20, "fresh")

    def adds():
        for signature in fresh:
            index.add(signature)

    def discard():
        for signature in fresh:
            index.discard(signature)

    bench.out["core.sigindex.add_us_at_1000"] = bench.timed(adds, len(fresh), discard, 1e-3)


def avoidance_probes(bench: Bench) -> None:
    calls = bench.sized(2000)
    own = symbolic("own")

    def world(history):
        dimmunix = Dimmunix(DimmunixConfig(), history=history)
        return dimmunix, dimmunix.engine.events.drain_raw

    def triples(dimmunix, thread, lock, stack, count=calls):
        def loop():
            request, acquired, release = dimmunix.request, dimmunix.acquired, dimmunix.release
            for _ in range(count):
                request(thread, lock, stack)
                acquired(thread, lock, stack)
                release(thread, lock)
        return loop

    dimmunix, drain = world(foreign_history(3))
    bench.out["core.avoidance.triple_miss_ns"] = bench.timed(
        triples(dimmunix, 1, 1, own), calls, drain)

    def two_threads():
        workers = [threading.Thread(target=triples(dimmunix, 10 + index, 10 + index, own))
                   for index in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    bench.out["core.avoidance.triple_miss_ns_2threads"] = bench.timed(two_threads, 2 * calls, drain)
    # As in threads_match: a handful of the 128 signatures carry this stack.
    history = foreign_history(3)
    for signature in foreign_history(4, own_stacks=[own], count=5).signatures():
        history.add(signature)
    dimmunix, drain = world(history)
    few = calls // 10
    bench.out["core.avoidance.triple_match_ns"] = bench.timed(
        triples(dimmunix, 1, 1, own, few), few, drain)

    first, second = symbolic("first"), symbolic("second")
    history = History(path=None, autosave=False)
    history.add(Signature([first, second]))
    dimmunix, drain = world(history)
    dimmunix.request(1, 1, first)
    dimmunix.acquired(1, 1, first)

    def yields():
        for _ in range(few):
            if dimmunix.request(2, 2, second).decision is not Decision.YIELD:
                raise CheckFailed("yield probe was answered GO")
            dimmunix.cancel(2, 2)

    bench.out["core.avoidance.yield_decision_us"] = bench.timed(yields, few, drain, 1e-3)


def cache_stats_events_probes(bench: Bench) -> int:
    calls = bench.sized(10000)
    stack = symbolic("hold")
    cache, stats, bus = AvoidanceCache(), EngineStats(), EventBus()

    def holds():
        add_hold, release_hold = cache.add_hold, cache.release_hold
        for _ in range(calls):
            add_hold(1, 1, stack)
            release_hold(1, 1)

    def bumps():
        bump = stats.bump
        for _ in range(calls):
            bump("requests")

    def emits():
        emit = bus.emit
        for _ in range(calls):
            emit(EV_ALLOW, 1, 1, stack, (), 0.0)

    bench.out["core.cache.hold_release_ns"] = bench.timed(holds, calls)
    bench.out["core.stats.bump_ns"] = bench.timed(bumps, calls)
    bench.out["core.events.emit_ns"] = bench.timed(emits, calls, bus.drain_raw)

    def fill():
        for index in range(calls // 3):
            lock = index % 16
            bus.emit(EV_ALLOW, 1, lock, stack, (), 0.0)
            bus.emit(EV_ACQUIRED, 1, lock, stack, (), 0.0)
            bus.emit(EV_RELEASE, 1, lock, stack, (), 0.0)

    fill()
    records = []
    bench.out["core.events.drain_ns_per_record"] = bench.timed(
        lambda: records.append(bus.drain_raw()), calls // 3 * 3, fill)
    bus.drain_raw()
    batch = records[0]
    bench.out["core.rag.apply_ns_per_record"] = bench.timed(
        lambda: ResourceAllocationGraph().apply_encoded(batch), len(batch))
    return bus.dropped


def ring_of_waiters(threads: int) -> ResourceAllocationGraph:
    """Thread i holds lock i and is allowed to wait for lock i+1: one cycle."""
    rag = ResourceAllocationGraph()
    for index in range(threads):
        rag.apply(allow_event(index, index, symbolic(f"hold{index}")))
        rag.apply(acquired_event(index, index, symbolic(f"hold{index}")))
    for index in range(threads):
        rag.apply(allow_event(index, (index + 1) % threads, symbolic(f"wait{index}")))
    return rag


def monitor_probes(bench: Bench) -> None:
    for threads in (2, 64):
        rag = ring_of_waiters(threads)
        if len(find_deadlock_cycles(rag)) != 1:
            raise CheckFailed(f"{threads}-thread ring has no single cycle")
        calls = 2000 // threads
        bench.out[f"core.cycles.search_us_{threads}threads"] = bench.timed(
            lambda: [find_deadlock_cycles(rag) for _ in range(calls)], calls, scale=1e-3)
    dimmunix = Dimmunix(DimmunixConfig(), history=foreign_history(3))
    bench.out["core.monitor.pass_us_idle"] = bench.timed(
        lambda: [dimmunix.process_now() for _ in range(500)], 500, scale=1e-3)
    stack = symbolic("busy")

    def load():
        for index in range(334):
            lock = index % 16
            dimmunix.request(1, lock, stack)
            dimmunix.acquired(1, lock, stack)
            dimmunix.release(1, lock)

    load()
    bench.out["core.monitor.pass_us_1000_events"] = bench.timed(dimmunix.process_now, 1, load, 1e-3)


def history_probes(bench: Bench, directory: str) -> None:
    batch = signatures(200, "hist")

    def adds():
        history = History(path=None, autosave=False)
        for signature in batch:
            history.add(signature)

    bench.out["core.history.add_us"] = bench.timed(adds, len(batch), scale=1e-3)
    bench.out["core.history.merge_us_per_sig"] = bench.timed(
        lambda: History(path=None, autosave=False).merge(batch), len(batch), scale=1e-3)
    stored = History(path=os.path.join(directory, "probe.history"), autosave=False)
    stored.merge(signatures(1000, "disk"))
    bench.out["core.history.save_ms_at_1000"] = bench.timed(stored.save, 1, scale=1e-6)


def thread_lock_probes(bench: Bench) -> None:
    calls = bench.sized(1000)
    dimmunix = Dimmunix(DimmunixConfig(), history=foreign_history(3))
    runtime = InstrumentationRuntime(dimmunix)
    drain = dimmunix.engine.events.drain_raw
    thread_id = runtime.current_thread_id()

    def repeat(call):
        def loop():
            for _ in range(calls):
                call()
        return loop

    def pair(acquire, release):
        def loop():
            for _ in range(calls):
                acquire()
                release()
        return loop

    bench.out["instrument.runtime.capture_stack_ns"] = bench.timed(
        repeat(runtime.capture_stack), calls)
    bench.out["instrument.runtime.park_prepare_ns"] = bench.timed(
        repeat(lambda: runtime.core.prepare_wait(thread_id)), calls)
    lock, rlock = DimmunixLock(runtime=runtime), DimmunixRLock(runtime=runtime)
    semaphore, rwlock = DimmunixSemaphore(4, runtime=runtime), DimmunixRWLock(runtime=runtime)
    native = threading.Lock()
    for name, acquire, release in (
            ("lock_pair_ns", lock.acquire, lock.release),
            ("rlock_pair_ns", rlock.acquire, rlock.release),
            ("semaphore_pair_ns", semaphore.acquire, semaphore.release),
            ("rwlock_read_pair_ns", rwlock.acquire_read, rwlock.release_read),
            ("rwlock_write_pair_ns", rwlock.acquire_write, rwlock.release_write),
            ("native_lock_pair_ns", native.acquire, native.release)):
        bench.out[f"instrument.locks.{name}"] = bench.timed(pair(acquire, release), calls, drain)


def aio_lock_probes(bench: Bench) -> None:
    calls = bench.sized(1000)
    dimmunix = Dimmunix(DimmunixConfig(), history=foreign_history(3))
    runtime = AsyncioRuntime(dimmunix)
    drain = dimmunix.engine.events.drain_raw

    async def measure():
        lock, semaphore = AioLock(runtime=runtime), AioSemaphore(4, runtime=runtime)
        rwlock, native = AioRWLock(runtime=runtime), asyncio.Lock()
        for name, acquire, release in (
                ("lock_pair_ns", lock.acquire, lock.release),
                ("semaphore_pair_ns", semaphore.acquire, semaphore.release),
                ("rwlock_read_pair_ns", rwlock.acquire_read, rwlock.release_read),
                ("native_lock_pair_ns", native.acquire, native.release)):
            samples = []
            for _ in range(REPEATS):
                started = bench.start()
                for _ in range(calls):
                    await acquire()
                    release()
                samples.append(bench.since(started) / calls)
                drain()
            bench.out[f"instrument.aio.{name}"] = samples

    asyncio.run(measure())


def share_probes(bench: Bench, directory: str) -> int:
    """Publish-to-install cost per signature over each transport, bare histories."""
    batch = 20
    errors = 0
    hub = MemoryHub()
    source, sink = History(path=None, autosave=False), History(path=None, autosave=False)
    publisher, installer = SignaturePool(source, hub.channel()), SignaturePool(sink, hub.channel())
    fresh = iter(signatures(3 * REPEATS * batch, "pool"))

    def publish():
        for _ in range(batch):
            source.add(next(fresh))

    bench.out["share.pool.publish_us"] = bench.timed(publish, batch, scale=1e-3)
    installer.pump()
    publish()
    bench.out["share.pool.install_us"] = bench.timed(installer.pump, batch, publish, 1e-3)
    installer.pump()
    bench.out["share.pool.idle_pump_us"] = bench.timed(
        lambda: [installer.pump() for _ in range(1000)], 1000, scale=1e-3)
    errors += publisher.publish_errors + installer.publish_errors

    server = HistoryServer(host="127.0.0.1", port=0).start()
    node_a = GossipChannel("127.0.0.1", 0, node_name="probe-a")
    node_b = GossipChannel("127.0.0.1", 0, peers=[node_a.bind], node_name="probe-b")
    node_a.add_peer(node_b.bind)
    log = os.path.join(directory, "probe.sig")
    links = {"memory": (hub.channel(), hub.channel()),
             "file": (FileChannel(log), FileChannel(log)),
             "daemon": (open_channel(server.spec), open_channel(server.spec)),
             "gossip": (node_a, node_b)}
    try:
        for tag, (channel_a, channel_b) in links.items():
            source = History(path=None, autosave=False)
            sink = History(path=None, autosave=False)
            publisher, installer = SignaturePool(source, channel_a), SignaturePool(sink, channel_b)
            publisher.sync()
            installer.sync()
            fresh = iter(signatures((REPEATS + 1) * batch, f"link{tag}"))

            def round_trip():
                wanted = len(sink) + batch
                for _ in range(batch):
                    source.add(next(fresh))
                limit = time.perf_counter() + 5.0
                while len(sink) < wanted:
                    installer.pump()
                    if time.perf_counter() > limit:
                        raise CheckFailed(f"{tag}: signatures did not arrive within 5 s")
                    time.sleep(0)

            round_trip()
            bench.out[f"share.{tag}.per_sig_us"] = bench.timed(round_trip, batch, scale=1e-3)
            errors += publisher.publish_errors
            publisher.close()
            installer.close()
    finally:
        server.stop()
    return errors


def sim_probes(bench: Bench) -> int:
    steps = []

    def schedule():
        result = build_philosophers(NullBackend(), seats=3).run()
        steps.append(result.steps)

    runs = bench.sized(50)
    samples = bench.timed(lambda: [schedule() for _ in range(runs)], runs)
    per_run = steps[0]
    bench.out["sim.scheduler.steps_per_s"] = [per_run / (ns * 1e-9) for ns in samples]
    scenario = SCENARIOS["philosophers-3-eat0"]
    found = []
    for name, backend in (("null", NullBackend),
                          ("dimmunix", lambda: DimmunixBackend(
                              config=DimmunixConfig.for_testing()))):
        rates = []
        for _ in range(REPEATS):
            started = bench.start()
            result = Explorer(lambda: scenario(backend()), name="probe").explore()
            rates.append(result.steps / (bench.since(started) * 1e-9))
            found.append(result.runs)
        bench.out[f"sim.explore.states_per_s_{name}"] = rates
    if len(set(found[:REPEATS])) != 1:
        raise CheckFailed(f"explorer run count does not repeat: {found}")
    return found[0]


def run_all(scale: float = 1.0) -> Samples:
    """Every isolated probe; counts come back as single-sample metrics."""
    bench = Bench(scale)
    os.makedirs(WORK_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="probes-", dir=WORK_DIR)
    try:
        callstack_probes(bench)
        sigindex_probes(bench)
        avoidance_probes(bench)
        dropped = cache_stats_events_probes(bench)
        monitor_probes(bench)
        history_probes(bench, directory)
        thread_lock_probes(bench)
        aio_lock_probes(bench)
        errors = share_probes(bench, directory)
        runs = sim_probes(bench)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if dropped:
        raise CheckFailed(f"event bus probes dropped {dropped} records")
    bench.out["core.events.dropped"] = [float(dropped)]
    bench.out["share.pool.publish_errors"] = [float(errors)]
    bench.out["sim.explore.runs_philosophers-3-eat0"] = [float(runs)]
    return bench.out
