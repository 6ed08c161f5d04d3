"""The traced run (``--trace 1``): probes, span ledgers and tracing overhead.

The timed runs stay shim-free.  Here the suite installs timing shims on
the public bound methods *of the instances it constructs* (instance
attributes shadow the class's methods, so nothing in ``repro`` is edited
or monkey-patched globally), buffers spans ``(id, name, start, end,
parent, root)`` in memory, and reports a layer's self time: its spans
minus the part their child spans cover.  A shim claims the source file of
the function it wraps, so stack capture skips its frame exactly as it
skips the wrapped function's own frame and captured stacks are unchanged.

Where the program holds on to a bound method before the suite can
interpose (``EngineStats`` uses ``__slots__``; ``SignaturePool.pump`` is
registered as a monitor hook inside ``attach_share``), the ledger row
comes from the isolated probe and says so.
"""

from __future__ import annotations

import contextvars
import itertools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import AioBroker, Broker, Connection, MiniDB
from repro.instrument import (AioRWLock, AioSemaphore, DimmunixRWLock, DimmunixSemaphore)

from . import aio_gauntlet, explore, fleet, gauntlet, probes
from .common import Outcome, SpeedMeter
from .gauntlet import ACQUIRE_TIMEOUT, GATE_PERMITS, Kit

Span = Tuple[int, str, int, int, int, int]
#: Spans of the last traced trial written next to ``--output``.
SPANS_KEPT = 50_000


class Tracer:
    """Span buffer plus the shims that fill it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._next_id = itertools.count(1).__next__
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=(0, 0))
        self.inner_ns, self.outer_ns = self._calibrate()
        #: Set by :meth:`fit`: in-situ shim cost over the tight-loop calibration.
        self.scale = 1.0
        self.spans.clear()

    # -- shims -------------------------------------------------------------------------

    def shim(self, name: str, original: Callable, clock: Callable[[], int] = time.perf_counter_ns,
             roots: Optional[List[int]] = None, opens_root: bool = False) -> Callable:
        """Wrap ``original`` in a span.  ``roots`` links a release to its acquisition."""
        current, next_id, record = self._current, self._next_id, self.spans.append

        def shim(*args, **kwargs):
            parent_id, root_id = current.get()
            span_id = next_id()
            if roots is not None and not opens_root and roots:
                root_id = roots.pop()
            elif not root_id:
                root_id = span_id
            token = current.set((span_id, root_id))
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ended = clock()
                current.reset(token)
                if opens_root:
                    roots.append(root_id)
                record((span_id, name, started, ended, parent_id, root_id))

        _claim_source_file(shim, original)
        return shim

    def coroutine_shim(self, name: str, original: Callable, roots: List[int]) -> Callable:
        """For ``acquire`` methods that return a coroutine (the asyncio primitives).

        The call itself captures the stack; the returned coroutine does the
        rest when awaited.  One span covers both.
        """
        current, next_id, record = self._current, self._next_id, self.spans.append
        clock = time.perf_counter_ns

        def shim(*args, **kwargs):
            parent_id, root_id = current.get()
            span_id = next_id()
            root_id = root_id or span_id
            token = current.set((span_id, root_id))
            started = clock()
            try:
                coroutine = original(*args, **kwargs)
            finally:
                current.reset(token)

            async def finish():
                inner = current.set((span_id, root_id))
                try:
                    return await coroutine
                finally:
                    ended = clock()
                    current.reset(inner)
                    roots.append(root_id)
                    record((span_id, name, started, ended, parent_id, root_id))

            return finish()

        _claim_source_file(shim, original)
        return shim

    def attach(self, target: object, method: str, name: str, **options) -> None:
        """Shadow ``target.method`` with a shim, as an instance attribute."""
        setattr(target, method, self.shim(name, getattr(target, method), **options))

    def _calibrate(self) -> Tuple[float, float]:
        """What a shim adds inside its own span and to its parent's self time."""
        def nothing(thread_id, lock_id, stack, mode=None, capacity=1):
            return None

        shimmed = self.shim("calibrate", nothing)
        calls = 20000

        def loop(call):
            # Called the way RuntimeCore.request is, the most frequent shape.
            started = time.perf_counter_ns()
            for _ in range(calls):
                call(1, 2, None, mode="exclusive", capacity=1)
            return (time.perf_counter_ns() - started) / calls

        direct = min(loop(nothing) for _ in range(3))
        traced = min(loop(shimmed) for _ in range(3))
        inner = statistics.median(span[3] - span[2] for span in self.spans)
        return inner, max(0.0, traced - direct - inner)

    # -- what gets traced --------------------------------------------------------------

    def trace_lock(self, lock, prefix: str):
        """Acquire opens a root span; the matching release joins it."""
        roots: List[int] = []
        pairs = ([("acquire_read", "release_read"), ("acquire_write", "release_write")]
                 if hasattr(lock, "acquire_read") else [("acquire", "release")])
        for acquire, release in pairs:
            original = getattr(lock, acquire)
            if prefix == "aio":
                setattr(lock, acquire, self.coroutine_shim("aio.acquire", original, roots))
            else:
                setattr(lock, acquire, self.shim("locks.acquire", original, roots=roots,
                                                 opens_root=True))
            self.attach(lock, release, f"{prefix}.release", roots=roots)
        return lock

    def trace_runtime(self, runtime) -> None:
        """The layers under a lock: stack capture, the runtime core, the event bus, the monitor."""
        self.attach(runtime, "capture_stack", "runtime.capture_stack")
        for method in ("prepare_wait", "request", "acquired", "release", "cancel", "note_blocked"):
            self.attach(runtime.core, method, f"core.{method}")
        self.attach(runtime.core, "park", "core.park")
        self.attach(runtime.dimmunix.engine.events, "emit", "events.emit")
        # The pass runs on the monitor thread: its span is in CPU time of that
        # thread, which under the GIL is time taken from the clients.
        self.attach(runtime.dimmunix.monitor, "process", "monitor.process",
                    clock=time.thread_time_ns)

    def thread_kit(self, runtime) -> Kit:
        def traced(cls):
            tracer = self

            class Traced(cls):
                def make_lock(self, name):
                    return tracer.trace_lock(super().make_lock(name), "locks")

                def make_rlock(self, name):
                    return tracer.trace_lock(super().make_rlock(name), "locks")

            return Traced

        connection, broker, database = traced(Connection), traced(Broker), traced(MiniDB)
        return Kit(
            connection=lambda: connection(runtime, ACQUIRE_TIMEOUT),
            broker=lambda: broker(runtime, ACQUIRE_TIMEOUT),
            database=lambda: database(runtime, ACQUIRE_TIMEOUT),
            gate=lambda: self.trace_lock(
                DimmunixSemaphore(GATE_PERMITS, runtime=runtime, name="gate"), "locks"),
            catalog=lambda: self.trace_lock(
                DimmunixRWLock(runtime=runtime, name="catalog"), "locks"))

    def aio_kit(self, runtime) -> Kit:
        tracer = self

        class Traced(AioBroker):
            def make_lock(self, name):
                return tracer.trace_lock(super().make_lock(name), "aio")

        return Kit(
            broker=lambda: Traced(runtime, ACQUIRE_TIMEOUT),
            gate=lambda: self.trace_lock(
                AioSemaphore(GATE_PERMITS, runtime=runtime, name="aio-gate"), "aio"),
            catalog=lambda: self.trace_lock(AioRWLock(runtime=runtime, name="aio-catalog"), "aio"))

    def fleet_channel(self, tag: str, channel):
        self.attach(channel, "publish", f"share.{tag}.publish")
        self.attach(channel, "poll", f"share.{tag}.poll")
        return channel

    def trace_worker(self, dimmunix) -> None:
        self.attach(dimmunix.monitor, "process", "monitor.process")
        self.attach(dimmunix.history, "add", "history.add")
        self.attach(dimmunix.history, "merge", "history.merge")

    def scenario(self, name: str, build: Callable) -> Callable:
        """Explorer runs: every scheduler run and the backend calls under it."""
        def traced(backend):
            for method in ("request", "acquired", "release"):
                self.attach(backend, method, f"sim.backend.{method}")
            scheduler = build(backend)
            self.attach(scheduler, "run", "sim.scheduler.run")
            return scheduler

        return traced

    # -- analysis ----------------------------------------------------------------------

    def fit(self, overhead_ns: float) -> float:
        """Set the cost of one shim from what tracing cost in total.

        ``overhead_ns`` is traced minus untraced wall time (raw ns) over the
        work the buffered spans cover.  A shim in a tight calibration loop
        costs about half of what it costs in place (cold caches, the span
        tuples feeding the collector), so the per-span cost is taken from
        the two runs themselves; the calibration only decides how it splits
        between a span and its parent.  Returns the cost per span.
        """
        own = sum(1 for span in self.spans if span[1] != "monitor.process")
        per_span = max(0.0, overhead_ns) / max(1, own)
        self.scale = per_span / (self.inner_ns + self.outer_ns)
        return per_span

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """name -> (span count, total self nanoseconds), shim cost taken out."""
        covered: Dict[int, int] = defaultdict(int)
        children: Dict[int, int] = defaultdict(int)
        for _, _, started, ended, parent, _ in self.spans:
            covered[parent] += ended - started
            children[parent] += 1
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span_id, name, started, ended, _, _ in self.spans:
            own = (ended - started - covered[span_id]
                   - self.scale * (self.inner_ns + children[span_id] * self.outer_ns))
            totals[name][0] += 1
            totals[name][1] += own
        return {name: (int(count), total) for name, (count, total) in totals.items()}

    def take(self) -> List[Span]:
        spans, self.spans[:] = list(self.spans), []
        return spans


def _claim_source_file(shim: Callable, original: Callable) -> None:
    code = getattr(getattr(original, "__func__", original), "__code__", None)
    if code is not None:
        shim.__code__ = shim.__code__.replace(co_filename=code.co_filename)


# -- the acquire -> release ledger -----------------------------------------------------

#: Probe rows that sit inside a shimmed span, shown under it ("of which").
INSIDE = (("runtime.capture_stack", "core.callstack.capture_lazy_ns"),
          ("core.request", "core.stats.bump_ns"),
          ("core.acquired", "core.stats.bump_ns"),
          ("core.release", "core.stats.bump_ns"))


def traced_worlds(build_world: Callable, build_kit: Callable):
    """An untouched world and one whose runtime and locks carry shims."""
    meter = SpeedMeter()
    plain, traced_world = build_world(meter), build_world(meter)
    tracer = Tracer()
    tracer.trace_runtime(traced_world.runtime)
    traced_world.immune_kit = build_kit(tracer, traced_world.runtime)
    return meter, plain, traced_world, tracer


def ledger(kind: str, build_world: Callable, build_kit: Callable,
           probe_values: Dict[str, float], seconds: float, outcome: Outcome) -> None:
    """One client, so no span is stretched by another client holding the GIL.

    Untraced immune and native trials give the measured cost of immunity
    per lock operation; a traced trial on a second world gives the rows.
    The remainder is ``ledger.<kind>.unattributed_pct``.
    """
    meter, plain, traced_world, tracer = traced_worlds(build_world, build_kit)
    immune_ns, native_ns, rows_by_round, per_span = [], [], [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    try:
        while rounds < 2 or time.perf_counter() < deadline:
            rounds += 1
            immune, native = plain.immune_trial(), plain.native_trial()
            mark = len(meter.samples)
            traced = traced_world.immune_trial()
            speed = statistics.mean(meter.samples[mark:])
            per_span.append(tracer.fit((traced.wall - immune.wall) / speed * 1e9))
            times = tracer.self_times()
            outcome.extra["spans"] = tracer.take()[:SPANS_KEPT]
            lock_ops = times.get("locks.acquire", times.get("aio.acquire"))[0]
            per_request = lock_ops / traced.requests
            immune_ns.append(immune.wall / immune.requests / per_request * 1e9)
            native_ns.append(native.wall / native.requests / per_request * 1e9)
            rows_by_round.append({name: total * speed / lock_ops
                                  for name, (_, total) in times.items()})
            outcome.attempted += immune.requests + native.requests + traced.requests
            outcome.failed += immune.failed + native.failed + traced.failed
    finally:
        plain.close()
        traced_world.close()
    cost = statistics.median(immune_ns) - statistics.median(native_ns)
    names = sorted({name for rows in rows_by_round for name in rows})
    rows = {name: statistics.median(rows.get(name, 0.0) for rows in rows_by_round)
            for name in names}
    native_pair = probe_values["instrument.aio.native_lock_pair_ns" if kind == "aio"
                               else "instrument.locks.native_lock_pair_ns"]
    attributed = sum(rows.values()) - native_pair
    unattributed = cost - attributed
    outcome.add(f"ledger.{kind}.unattributed_pct", 100.0 * unattributed / cost)
    lines = [f"-- {kind} ledger: one acquire->release, calibrated ns per lock operation "
             f"({rounds} rounds; {statistics.median(per_span):.0f} ns of shim cost per span "
             "removed, from traced - untraced)"]
    for name in names:
        note = "  (CPU time of the monitor thread)" if name == "monitor.process" else ""
        lines.append(f"   {name:28s} {rows[name]:10.0f}{note}")
        for parent, probe in INSIDE:
            if parent == name:
                lines.append(f"      of which {probe:34s} {probe_values[probe]:8.0f}"
                             "  (isolated probe: a shim cannot interpose)")
    lines.append(f"   {'- native primitive pair':28s} {-native_pair:10.0f}  (isolated probe; "
                 "the native twin pays it too)")
    lines.append(f"   {'= attributed':28s} {attributed:10.0f}")
    lines.append(f"   {'unattributed':28s} {unattributed:10.0f}  "
                 f"({100.0 * unattributed / cost:.1f} %)")
    lines.append(f"   {'immune - native (measured)':28s} {cost:10.0f}  "
                 f"= {statistics.median(immune_ns):.0f} - {statistics.median(native_ns):.0f}")
    outcome.extra.setdefault("ledger", []).extend(lines)
    outcome.extra[f"ledger_{kind}"] = {"rows": rows, "native_pair": native_pair,
                                       "attributed": attributed, "unattributed": unattributed,
                                       "immune_minus_native": cost}


# -- tracing overhead on the workload itself -------------------------------------------


def layer_table(tracer: Tracer, per: int, what: str, outcome: Outcome) -> None:
    shim_ns = tracer.scale * (tracer.inner_ns + tracer.outer_ns)
    lines = [f"-- self time per {what} by layer (raw ns; {shim_ns:.0f} ns of shim cost per "
             "span removed)"]
    for name, (count, total) in sorted(tracer.self_times().items()):
        lines.append(f"   {name:28s} {total / per:12.0f}   ({count / per:.2f} spans per {what})")
    outcome.extra.setdefault("ledger", []).extend(lines)


def overhead(outcome: Outcome, seconds: float, tracer: Tracer, one_trial: Callable, what: str,
             notes: Tuple[str, ...] = (), fit: bool = True) -> None:
    """Alternate untraced and traced trials; ``trace.overhead_pct`` and the layer table.

    ``one_trial(traced)`` returns (units of ``what`` done, units per second,
    attempted, failed).
    """
    rates: Dict[bool, List[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while len(rates[True]) < 2 or time.perf_counter() < deadline:
        for traced in (False, True):
            tracer.take()
            units, rate, attempted, failed = one_trial(traced)
            rates[traced].append(rate)
            outcome.attempted += attempted
            outcome.failed += failed
    plain_rate, traced_rate = statistics.median(rates[False]), statistics.median(rates[True])
    outcome.add("trace.overhead_pct", 100.0 * (1.0 - traced_rate / plain_rate))
    if fit:
        tracer.fit(units * (1.0 / traced_rate - 1.0 / plain_rate) * 1e9)
    outcome.extra.setdefault("ledger", []).extend(notes)
    layer_table(tracer, units, what, outcome)


def overhead_gauntlet(outcome: Outcome, build_world: Callable, build_kit: Callable,
                      seconds: float) -> None:
    _, plain, traced_world, tracer = traced_worlds(build_world, build_kit)

    def one_trial(traced: bool):
        trial = (traced_world if traced else plain).immune_trial()
        return trial.requests, trial.ops_per_s, trial.requests, trial.failed

    notes = (("   (both clients run here: a span also counts the time its thread waited for "
              "the GIL; the ledger above uses one client)",)
             if build_kit is Tracer.thread_kit else ())
    try:
        overhead(outcome, seconds, tracer, one_trial, "request", notes)
    finally:
        plain.close()
        traced_world.close()


def overhead_fleet(outcome: Outcome, seconds: float, scale: float) -> None:
    meter, tracer = SpeedMeter(), Tracer()

    def one_trial(traced: bool):
        world = fleet.Fleet(tracer.fleet_channel) if traced else fleet.Fleet()
        try:
            if traced:
                for pair in world.pairs.values():
                    tracer.trace_worker(pair.a)
                    tracer.trace_worker(pair.b)
            trial = fleet.run_trial(world, scale, meter)
        finally:
            world.close()
        return trial.attempted, trial.storm_rate, trial.attempted, trial.failed

    # The rate is the storm's, the table is per deadlock of any phase: no fit.
    overhead(outcome, seconds, tracer, one_trial, "deadlock", fit=False, notes=(
        "   (SignaturePool.pump is registered as a monitor hook inside attach_share, so its "
        "time shows as monitor.process self time; see share.pool.* probes)",))


def overhead_explore(outcome: Outcome, seconds: float) -> None:
    meter, tracer = SpeedMeter(), Tracer()

    def one_trial(traced: bool):
        trial = (explore.run_trial(meter, tracer.scenario) if traced
                 else explore.run_trial(meter))
        return trial.runs, trial.runs / trial.wall, len(explore.PINNED), trial.failed

    overhead(outcome, seconds, tracer, one_trial, "explored run")


def run(workload: str, seed: int, seconds: float, scale: float) -> Outcome:
    """Probes, both ledgers, then this workload traced against itself untraced."""
    outcome = Outcome(workload)
    outcome.samples.update(probes.run_all(scale))
    probe_values = {name: statistics.median(values) for name, values in outcome.samples.items()}
    # Traced trials are slow, so the traced parts run on reduced request lists; the
    # threads ledger's single client issues about as many requests as the 8 aio tasks.
    threads_requests = max(50, int(gauntlet.REQUESTS_MISS * scale))
    aio_requests = max(25, int(aio_gauntlet.REQUESTS * scale / 4))
    share = seconds / 8.0
    ledger("threads", lambda meter: gauntlet.World(seed, threads_requests, False, meter, clients=1),
           Tracer.thread_kit, probe_values, share, outcome)
    ledger("aio", lambda meter: aio_gauntlet.World(seed, aio_requests, meter),
           Tracer.aio_kit, probe_values, share, outcome)
    if workload in ("threads_miss", "threads_match"):
        match = workload == "threads_match"
        requests = (max(50, int(gauntlet.REQUESTS_MATCH * scale)) if match
                    else threads_requests // 2)
        overhead_gauntlet(outcome, lambda meter: gauntlet.World(seed, requests, match, meter),
                          Tracer.thread_kit, share)
    elif workload == "aio_miss":
        overhead_gauntlet(outcome, lambda meter: aio_gauntlet.World(seed, 2 * aio_requests, meter),
                          Tracer.aio_kit, share)
    elif workload == "fleet_immunity":
        overhead_fleet(outcome, share, scale)
    else:
        overhead_explore(outcome, share)
    return outcome
