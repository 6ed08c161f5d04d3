"""Runtime statistics counters.

The engine, monitor, and calibrator update these counters so experiments
and end users can observe what Dimmunix is doing (number of yields, GO
decisions, detected deadlocks, starvation breaks, false positives, ...).

Six are never written: ``requests``, ``go_decisions``,
``yield_decisions``, ``acquisitions``, ``releases`` and ``cancels`` are
what the engine's ALLOW + YIELD, ALLOW, YIELD, ACQUIRED, RELEASE and
CANCEL records count, so they are read off the per-code counts of the
buses engines register (:meth:`~repro.core.events.EventBus.counts`): a
miss-path acquire/release writes no counter but its ring's.  Only
reading these walks the buses.

The rest are sharded per thread: :meth:`EngineStats.bump` writes a dict
owned by the calling thread, taking no lock and contending with no other
thread (a shared lock would serialize every core of a free-threaded
build); reads aggregate the shards, O(threads) but off the hot path.

:meth:`EngineStats.reset` is *epoch-based*: clearing the shard dicts in
place would race lock-free bumpers (a writer that read before the clear
and stored after it resurrects the pre-reset total), so it bumps a
generation number instead.  Each writer replaces its counts dict on its
next bump — *counts dict before epoch*, so a reader that sees the new
epoch sees the fresh dict — and readers skip stale generations: an
in-flight bump lands wholly in the old epoch or wholly in the new one.
The same step re-takes every bus's counts as the baseline the derived
counters are read against, so an emission racing it is counted exactly
once too (``docs/architecture.md``, "The memory model").

A shard whose thread has ended is *retired* the way :class:`EventBus`
rings are: its counts are folded into per-epoch retired totals, so a
server churning short-lived threads keeps O(live threads) shards while
every total stays what it was.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable

from .events import EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE, EV_YIELD

#: Names of all counters, used by snapshot()/reset() and attribute reads.
_COUNTER_NAMES = (
    "requests", "go_decisions", "yield_decisions", "acquisitions", "releases",
    "cancels", "aborted_yields", "forced_go", "deadlocks_detected",
    "starvations_detected", "starvations_broken", "signatures_added",
    "restarts_requested", "false_positives", "true_positives",
    "monitor_wakeups", "events_processed",
    # Lazy capture observability: how many acquire-path captures deferred
    # the deep stack walk, and how many of those were later forced to
    # materialize (filter hit, YIELD, block, archive).  The ratio
    # 1 - materialized/deferred is the capture deferral ratio the
    # overhead benchmarks report.
    "capture_deferred", "capture_materialized",
)

_COUNTER_SET = frozenset(_COUNTER_NAMES)

#: Event code -> the counters each record of it counts (the others are bumped).
_COUNTED_BY = {EV_ALLOW: ("requests", "go_decisions"), EV_YIELD: ("requests", "yield_decisions"),
               EV_ACQUIRED: ("acquisitions",), EV_RELEASE: ("releases",), EV_CANCEL: ("cancels",)}
_DERIVED = frozenset(name for names in _COUNTED_BY.values() for name in names)


class _StatShard:
    """One thread's counter storage.

    ``counts`` is written only by the owning thread; ``epoch`` records the
    reset generation those counts belong to.  The owner replaces both on
    its first bump after a reset, writing ``counts`` *before* ``epoch``
    so readers filtering by epoch never see a stale dict behind a fresh
    epoch number.  ``owner`` is a weak reference to that thread.
    """

    __slots__ = ("counts", "epoch", "owner")

    def __init__(self, epoch: int):
        self.counts: Dict[str, int] = {}
        self.epoch = epoch
        self.owner = weakref.ref(threading.current_thread())


class EngineStats:
    """Counters maintained by the avoidance engine and monitor.

    Each counter is readable as a plain attribute (``stats.requests``);
    the value is aggregated across all thread shards and buses at read
    time, so it is exact once the counting threads are quiescent (joined),
    and at worst a few increments stale while they are still running.
    """

    __slots__ = ("_lock", "_local", "_shards", "_epoch", "_retired", "_retire_at", "_buses")

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: The shards of threads not yet seen dead.  Replaced, never changed
        #: in place, under _lock, together with _retired: a reader that takes
        #: both under _lock counts every shard exactly once.
        self._shards = []
        #: Reset generation.  Writers compare their shard's epoch to this
        #: and readers skip shards from older generations.  Only ever
        #: incremented, under _lock.
        self._epoch = 0
        #: Counts of this epoch's retired shards (a new epoch starts empty).
        self._retired: Dict[str, int] = {}
        #: Shard count at which a new shard first retires dead ones: twice
        #: the survivors of the last retirement, so a thread start costs O(1).
        self._retire_at = 8
        #: (bus, its counts at registration or the last reset); replaced under _lock.
        self._buses = ()

    def register(self, bus) -> None:
        """Derive the operation counters from ``bus``'s records too, from now on."""
        with self._lock:
            self._buses += ((bus, bus.counts()),)

    def _new_shard(self) -> _StatShard:
        shard = _StatShard(self._epoch)
        with self._lock:
            shards = self._shards
            if len(shards) >= self._retire_at:
                shards = self._retire(shards)
            self._shards = shards + [shard]
        self._local.shard = shard
        return shard

    def _retire(self, shards):
        """Fold the shards of ended threads into ``_retired``; the rest (under _lock)."""
        retired = dict(self._retired)
        live = []
        for shard in shards:
            # Owner dead first, counts second: dead means its last bump is in.
            thread = shard.owner()
            if thread is not None and thread.is_alive():
                live.append(shard)
            elif shard.epoch == self._epoch:
                for name, value in shard.counts.items():
                    retired[name] = retired.get(name, 0) + value
        self._retired = retired
        self._retire_at = max(8, 2 * len(live))
        return live

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name`` on the calling thread's shard."""
        try:
            shard = self._local.shard
        except AttributeError:  # the thread's first bump
            shard = self._new_shard()
        epoch = self._epoch
        if shard.epoch != epoch:
            # First bump after a reset: start a fresh dict for the new
            # generation.  Publication order matters — counts first, then
            # epoch — so a reader that accepts this shard by its epoch
            # can only see the fresh dict, never leftover totals.
            shard.counts = {}
            shard.epoch = epoch
        counts = shard.counts
        counts[name] = counts.get(name, 0) + amount

    def _totals(self, names: Iterable[str]) -> Dict[str, int]:
        """The values of ``names``: bumped, plus what the buses count of the derived ones."""
        with self._lock:  # one consistent view: each shard live or retired
            epoch, shards, retired, buses = self._epoch, self._shards, self._retired, self._buses
        totals = dict.fromkeys(names, 0)
        for counts in [retired] + [shard.counts for shard in shards if shard.epoch == epoch]:
            for name, value in list(counts.items()):
                if name in totals:
                    totals[name] += value
        for bus, baseline in buses if not _DERIVED.isdisjoint(totals) else ():
            emitted = bus.counts()
            for code, counted in _COUNTED_BY.items():
                for name in counted:
                    if name in totals:
                        totals[name] += emitted[code] - baseline[code]
        return totals

    def __getattr__(self, name: str) -> int:
        # Only fires for names not found via __slots__, i.e. the counters.
        if name in _COUNTER_SET:
            return self._totals((name,))[name]
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}")

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters (aggregated over shards and buses)."""
        return self._totals(_COUNTER_NAMES)

    def reset(self) -> None:
        """Zero every counter, atomically with respect to concurrent bumps and emits.

        A new epoch, not cleared dicts, and every bus's baseline re-taken
        (see the module docstring): a bump or emission racing the reset
        counts wholly in the old epoch or wholly in the new one.
        """
        with self._lock:
            self._epoch += 1
            self._retired = {}
            self._buses = tuple((bus, bus.counts()) for bus, _ in self._buses)

    @property
    def yield_rate(self) -> float:
        """Fraction of requests answered with YIELD."""
        totals = self._totals(("requests", "yield_decisions"))
        if totals["requests"] == 0:
            return 0.0
        return totals["yield_decisions"] / totals["requests"]
