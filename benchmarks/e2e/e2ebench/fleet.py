"""Fleet time-to-immunity: ``fleet_immunity``.

No application locks.  Worker A's engine is driven on symbolic stacks,
from two logical threads, into one distinct deadlock per operation.  The
clock starts when the cycle is formed and runs through ``A.process_now()``
(detect, archive, publish) and ``B.process_now()`` pumps, yielding the GIL
between empty polls, until B's engine answers YIELD for that pattern.
No monitor thread runs, so the configured ``monitor_interval`` sleeps are
not part of the figure.

One trial builds a fresh fleet (a live ``HistoryServer`` on TCP loopback
with one publisher and one consumer connection, an in-process
``memory://`` pair as its twin, a ``file://`` pair, a two-node
``gossip://`` pair) and measures single deadlocks on each, then a storm
of deadlocks published back to back before B pumps.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import CallStack, Decision, Dimmunix, DimmunixConfig
from repro.share import FileChannel, GossipChannel, HistoryServer, MemoryHub, open_channel

from .common import (CheckFailed, Outcome, SpeedMeter, median_setup, peak_rss_mb, percentile,
                     summarize)

#: Deadlocks per trial and transport, before ``--scale``.
SINGLES = {"daemon": 40, "memory": 40, "file": 20, "gossip": 20}
STORM = 500
#: Single deadlocks between two samples of the machine speed (~15 ms).
GROUP = 16
IMMUNE_TIMEOUT = 5.0
#: A pattern no worker ever deadlocks on; the peer must answer GO for it.
CONTROL_PATTERN = -1
WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".e2e-work")

T1, T2, L1, L2 = 1, 2, 1, 2


def pattern_stacks(tag: str, pattern: int) -> Tuple[CallStack, CallStack, CallStack, CallStack]:
    """The two hold stacks and two wait stacks of deadlock pattern ``pattern``."""
    def stack(site: str) -> CallStack:
        return CallStack.from_labels([f"{site}_{tag}_{pattern}:svc/{tag}.py:{10 + pattern % 89}",
                                      f"handle_{pattern % 7}:svc/{tag}.py:7",
                                      "serve:svc/main.py:3", "main:svc/main.py:1"])
    return stack("lock_a"), stack("lock_b"), stack("then_b"), stack("then_a")


def form_deadlock(worker: Dimmunix, tag: str, pattern: int) -> None:
    """Drive ``worker``'s engine into the two-thread cycle of ``pattern``."""
    hold_a, hold_b, wait_b, wait_a = pattern_stacks(tag, pattern)
    steps = ((T1, L1, hold_a, True), (T2, L2, hold_b, True),
             (T1, L2, wait_b, False), (T2, L1, wait_a, False))
    for thread, lock, stack, acquire in steps:
        if worker.request(thread, lock, stack).decision is not Decision.GO:
            raise CheckFailed(f"worker yielded while forming deadlock {tag}/{pattern}")
        if acquire:
            worker.acquired(thread, lock, stack)


def clear_deadlock(worker: Dimmunix) -> None:
    """Unwind the two logical threads so the next pattern starts clean."""
    worker.cancel(T1, L2)
    worker.cancel(T2, L1)
    worker.release(T1, L1)
    worker.release(T2, L2)


def answers_yield(peer: Dimmunix, tag: str, pattern: int) -> bool:
    """Would ``peer`` park the thread that completes ``pattern``?  Leaves no state."""
    hold_a, hold_b, _, _ = pattern_stacks(tag, pattern)
    peer.request(T1, L1, hold_a)
    peer.acquired(T1, L1, hold_a)
    yielded = peer.request(T2, L2, hold_b).decision is Decision.YIELD
    peer.cancel(T2, L2)
    peer.release(T1, L1)
    return yielded


class Pair:
    """Worker A (deadlocks) and worker B (must become immune) on one transport."""

    def __init__(self, tag: str, channel_a, channel_b):
        self.tag = tag
        self.a = Dimmunix(DimmunixConfig(), share=channel_a)
        self.b = Dimmunix(DimmunixConfig(), share=channel_b)
        self.formed = 0

    def deadlock(self, pattern: int) -> None:
        """Form ``pattern`` on A, detect and publish it; exactly one new condition."""
        form_deadlock(self.a, self.tag, pattern)
        self.formed += 1
        self.started = time.perf_counter()
        found = self.a.process_now()
        if len(found) != 1 or found[0].kind != "deadlock":
            raise CheckFailed(f"{self.tag}/{pattern}: monitor reported {found!r}, "
                              "wanted one deadlock")

    def recover(self) -> None:
        """Unwind A's two threads and let its monitor see the cycle gone.

        Without the second pass the monitor still lists the thread pair as
        reported and would take the next pattern for the same deadlock.
        """
        clear_deadlock(self.a)
        self.a.process_now()

    def until_immune(self, pattern: int) -> Optional[float]:
        """Pump B until it yields on ``pattern``; seconds since the cycle, or None."""
        limit = self.started + IMMUNE_TIMEOUT
        while True:
            self.b.process_now()
            if answers_yield(self.b, self.tag, pattern):
                return time.perf_counter() - self.started
            if time.perf_counter() > limit:
                return None
            time.sleep(0)

    def close(self) -> None:
        pool = self.a.share_pool
        errors = pool.publish_errors if pool is not None else 0
        detected = self.a.stats.deadlocks_detected
        self.a.stop()
        self.b.stop()
        if errors or detected != self.formed:
            raise CheckFailed(f"{self.tag}: {errors} publish errors, {detected} deadlocks "
                              f"detected for {self.formed} formed")


class Fleet:
    """One trial's fleet: four pairs, each on its own transport."""

    def __init__(self, wrap: Callable = lambda tag, channel: channel):
        os.makedirs(WORK_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="fleet-", dir=WORK_DIR)
        self.server = HistoryServer(host="127.0.0.1", port=0).start()
        hub = MemoryHub()
        log = os.path.join(self.directory, "pool.sig")
        node_a = GossipChannel("127.0.0.1", 0, node_name="a")
        node_b = GossipChannel("127.0.0.1", 0, peers=[node_a.bind], node_name="b")
        node_a.add_peer(node_b.bind)
        self.pairs: Dict[str, Pair] = {
            "daemon": Pair("daemon", wrap("daemon", open_channel(self.server.spec)),
                           wrap("daemon", open_channel(self.server.spec))),
            "memory": Pair("memory", wrap("memory", hub.channel()), wrap("memory", hub.channel())),
            "file": Pair("file", wrap("file", FileChannel(log)), wrap("file", FileChannel(log))),
            "gossip": Pair("gossip", wrap("gossip", node_a), wrap("gossip", node_b)),
        }

    def close(self) -> None:
        try:
            for pair in self.pairs.values():
                pair.close()
        finally:
            self.server.stop()
            shutil.rmtree(self.directory, ignore_errors=True)


class TrialResult:
    """One trial in calibrated time; the first deadlock of a transport is kept apart."""

    def __init__(self):
        self.tti: Dict[str, List[float]] = {tag: [] for tag in SINGLES}
        self.cold: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.storm_rate = 0.0
        self.cpu = 0.0


def run_trial(fleet: Fleet, scale: float, meter: SpeedMeter,
              control_pattern: int = CONTROL_PATTERN) -> TrialResult:
    """Single deadlocks on every transport in turn, then the storm on the daemon pair.

    The first deadlock over a fresh connection waits out a 40 ms delayed-ACK
    timer on the daemon link.  That wait is a timer, not work, so it is
    reported on its own (``tti_*_cold_ms``) and kept out of the percentiles.
    """
    result = TrialResult()
    counts = {tag: max(3, int(count * scale)) for tag, count in SINGLES.items()}
    order = [tag for index in range(max(counts.values()))
             for tag in SINGLES if index < counts[tag]]
    position = {tag: 0 for tag in counts}
    for start in range(0, len(order), GROUP):
        group: List[Tuple[str, int, float]] = []
        meter.restart()
        cpu = time.process_time()
        for tag in order[start:start + GROUP]:
            pair, pattern = fleet.pairs[tag], position[tag]
            position[tag] += 1
            pair.deadlock(pattern)
            elapsed = pair.until_immune(pattern)
            pair.recover()
            result.attempted += 1
            if elapsed is None:
                result.failed += 1
            else:
                group.append((tag, pattern, elapsed))
        cpu = time.process_time() - cpu
        speed = meter.lap()
        result.cpu += cpu * speed
        for tag, pattern, elapsed in group:
            if pattern == 0:
                result.cold[tag] = elapsed * speed
            else:
                result.tti[tag].append(elapsed * speed)
    # The storm: every deadlock is detected and published before B pumps once.
    pair = fleet.pairs["daemon"]
    first, storm = counts["daemon"], max(10, int(STORM * scale))
    patterns = range(first, first + storm)
    meter.restart()
    cpu = time.process_time()
    started = None
    for pattern in patterns:
        pair.deadlock(pattern)
        pair.recover()
        started = started if started is not None else pair.started
    # Sample the machine speed between A's publishing and B's pumping, so each half is
    # scaled by its own surroundings; the sample's own duration is not storm time.
    published = time.perf_counter()
    publish_speed = meter.lap()
    sampling = time.perf_counter() - published
    pair.started = started + sampling
    elapsed = pair.until_immune(patterns[-1])
    while elapsed is not None and pair.b.share_pool.installed < first + storm:
        pair.b.process_now()
        elapsed = time.perf_counter() - pair.started
        if elapsed > IMMUNE_TIMEOUT:
            elapsed = None
    cpu = time.process_time() - cpu
    pump_speed = meter.lap()
    result.cpu += cpu * (publish_speed + pump_speed) / 2.0
    result.attempted += storm
    if elapsed is None:
        result.failed += storm
    else:
        publishing = published - started
        result.storm_rate = storm / (publishing * publish_speed
                                     + (elapsed - publishing) * pump_speed)
        result.failed += sum(1 for pattern in patterns
                             if not answers_yield(pair.b, "daemon", pattern))
    for tag, pair in fleet.pairs.items():
        if answers_yield(pair.b, tag, control_pattern):
            raise CheckFailed(f"{tag}: peer yields on control pattern {control_pattern}, "
                              "which no worker ever deadlocked on")
    return result


def build_and_warm(scale: float) -> Fleet:
    fleet = Fleet()
    run_trial(fleet, min(scale, 0.1), SpeedMeter())
    return fleet


def run(seed: int, seconds: float, scale: float = 1.0,
        control_pattern: int = CONTROL_PATTERN) -> Outcome:
    """Fresh-fleet trials for ``seconds``; the inputs are fixed, so ``seed`` is unused."""
    outcome = Outcome("fleet_immunity")
    meter = SpeedMeter()
    outcome.add("setup_s", median_setup(lambda: build_and_warm(scale), Fleet.close, meter))
    pooled: Dict[str, List[float]] = {tag: [] for tag in SINGLES}
    cold: Dict[str, List[float]] = {tag: [] for tag in SINGLES}
    deadline = time.perf_counter() + seconds
    trials = 0
    while trials < 5 or time.perf_counter() < deadline:
        fleet = Fleet()
        try:
            trial = run_trial(fleet, scale, meter, control_pattern)
        finally:
            fleet.close()
        trials += 1
        outcome.attempted += trial.attempted
        outcome.failed += trial.failed
        if trial.failed:
            continue
        for tag in SINGLES:
            pooled[tag].extend(trial.tti[tag])
            cold[tag].append(trial.cold[tag])
        daemon, memory = sorted(trial.tti["daemon"]), sorted(trial.tti["memory"])
        outcome.add("ops_per_s", trial.storm_rate)
        outcome.add("overhead_x", percentile(daemon, 0.5) / percentile(memory, 0.5))
        outcome.add("cpu_us_per_op", trial.cpu / trial.attempted * 1e6)
    if outcome.failed:
        return outcome
    # Percentiles over every deadlock of the run: one trial has too few for a p99.
    for tag, values in pooled.items():
        values.sort()
        outcome.add(f"tti_{tag}_p50_ms", percentile(values, 0.50) * 1e3)
        outcome.add(f"tti_{tag}_cold_ms", percentile(sorted(cold[tag]), 0.50) * 1e3)
    outcome.add("tti_daemon_p99_ms", percentile(pooled["daemon"], 0.99) * 1e3)
    outcome.add("op_p50_us", percentile(pooled["daemon"], 0.50) * 1e6)
    outcome.add("op_p90_us", percentile(pooled["daemon"], 0.90) * 1e6)
    outcome.add("op_p95_us", percentile(pooled["daemon"], 0.95) * 1e6)
    outcome.add("peak_rss_mb", peak_rss_mb())
    outcome.counts["deadlocks_per_trial"] = outcome.attempted // trials
    outcome.checks["detected_once_peer_yields_control_goes"] = f"{outcome.attempted} deadlocks"
    outcome.extra["machine_speed"] = summarize(meter.samples)
    return outcome
