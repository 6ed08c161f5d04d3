"""Statistics, environment fingerprint and synthetic histories shared by the workloads."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import CallStack, History, Signature

_HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.normpath(os.path.join(_HERE, "..", "..", ".."))

#: Signatures in every synthetic history (the paper's Fig. 7 mid-range).
HISTORY_SIZE = 128


class CheckFailed(Exception):
    """A correctness or path check of a workload did not hold."""


@dataclass
class Outcome:
    """What one workload run reports: samples per metric plus its checks."""

    workload: str
    #: metric name -> one sample per timed trial (the reported value is their median).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: check name -> detail string; every entry here held.
    checks: Dict[str, str] = field(default_factory=dict)
    #: Exact counts that must repeat across runs of one commit and seed.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific figures outside the BENCHMARK.json metric set.
    extra: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, minimum and count of one metric's trial samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"value": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "n": len(ordered)}


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The reference kernel and the CPU time it takes on the nominal machine.
KERNEL_ITERATIONS = 50_000
NOMINAL_KERNEL_NS = 2_500_000.0


def machine_speed() -> float:
    """How fast this CPU runs Python right now: 1.0 on the nominal machine.

    The sandbox's effective CPU speed wanders by a factor of two over
    seconds (shared cores), so raw times of one commit spread by 25 % and
    more from run to run.  Every timed segment is therefore bracketed by
    this fixed pure-Python kernel, timed in CPU time of the calling thread
    (so waiting for the GIL does not count), and durations are reported in
    *calibrated* seconds: measured seconds times the speed around them.
    """
    started = time.thread_time_ns()
    total = 0
    for index in range(KERNEL_ITERATIONS):
        total += index * index % 7
    return NOMINAL_KERNEL_NS / (time.thread_time_ns() - started)


class SpeedMeter:
    """Machine speed over consecutive segments: the mean of the samples at both ends."""

    def __init__(self):
        self.samples: List[float] = []
        self.restart()

    def restart(self) -> None:
        """Take the sample that opens the next segment (after an untimed gap)."""
        self._last = machine_speed()
        self.samples.append(self._last)

    def lap(self) -> float:
        """Close the current segment, open the next; the closed one's speed factor."""
        previous, self._last = self._last, machine_speed()
        self.samples.append(self._last)
        return (previous + self._last) / 2.0


#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def median_setup(build: Callable[[], object], teardown: Callable[[object], None],
                 meter: SpeedMeter) -> float:
    """Median calibrated time of ``build`` over ``SETUP_REPEATS`` fresh set-ups.

    ``build`` covers everything a run needs before its first timed trial,
    warm-up trial included, so work moved out of the timed loop shows here.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        meter.restart()
        started = time.perf_counter()
        world = build()
        elapsed = time.perf_counter() - started
        times.append(elapsed * meter.lap())
        teardown(world)
    return statistics.median(times)


def pin_to_one_cpu() -> Optional[int]:
    """Under the GIL, keep every thread of this process on one CPU.

    Only one thread executes Python at a time, but left alone the kernel
    spreads the clients over the CPUs some of the time, and the two
    placements differ by ~40 % in CPU time per request (GIL hand-overs
    across CPUs, sibling contention); runs then land in one regime or the
    other.  Free-threaded builds are left unpinned.
    """
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    if not gil or not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> Dict[str, object]:
    """Fingerprint of the machine state a result was measured under."""
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                             capture_output=True, timeout=5).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    return {"python": platform.python_version(), "gil_enabled": gil, "nproc": nproc,
            "loadavg_1m": load[0], "noisy": load[0] > nproc, "git_sha": sha}


def foreign_stack(rng: random.Random, tag: str, index: int) -> CallStack:
    """A symbolic stack no workload ever executes (depth 6, unique top frame)."""
    labels = [f"foreign_{tag}_{index}:vendor/{tag}.py:{rng.randrange(1, 900)}"]
    labels += [f"caller_{rng.randrange(16)}:vendor/{tag}.py:{rng.randrange(1, 900)}"
               for _ in range(5)]
    return CallStack.from_labels(labels)


def foreign_history(seed: int, own_stacks: Optional[Sequence[CallStack]] = None,
                    count: int = HISTORY_SIZE) -> History:
    """``count`` two-stack signatures over a foreign stack universe.

    Without ``own_stacks`` both stacks are foreign, so every request of the
    program misses the top-frame filter.  With them, each signature pairs
    one of the program's own acquisition stacks with a foreign stack that
    never executes (the paper's Fig. 4 set-up): every request matches a
    signature stack and runs the cover search, and the answer is still GO.
    """
    rng = random.Random(seed)
    history = History(path=None, autosave=False)
    for index in range(count):
        first = (own_stacks[index % len(own_stacks)] if own_stacks
                 else foreign_stack(rng, "a", index))
        history.add(Signature([first, foreign_stack(rng, "b", index)]))
    if len(history) != count:
        raise CheckFailed(f"synthetic history holds {len(history)} signatures, wanted {count}")
    return history
