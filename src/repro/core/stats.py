"""Runtime statistics counters.

The engine, monitor, and calibrator update these counters so experiments
and end users can observe what Dimmunix is doing (number of yields, GO
decisions, detected deadlocks, starvation breaks, false positives, ...).

Counters are sharded per thread: :meth:`EngineStats.bump` writes into a
dictionary owned by the calling thread, so the hot path (three bumps per
request/acquire/release triple; ``go_decisions`` is derived at read time
rather than bumped per grant) never takes a lock and never contends
with other threads — which matters both under the GIL (the old global
lock showed up in hot-path profiles) and on free-threaded builds (where
a shared lock serializes every core).  Reads aggregate the shards:
``stats.requests`` and :meth:`snapshot` sum over all per-thread
dictionaries, which is O(threads) but off the hot path.

:meth:`EngineStats.reset` is *epoch-based*.  Clearing the shard dicts in
place would race lock-free bumpers — a writer that read ``shard.get(name)``
before the clear and stored after it resurrects the pre-reset total, and
one that stored just before the clear loses its increment ambiguously.
Instead, reset bumps a generation number; each writer lazily replaces its
counts dict the next time it bumps, and readers ignore shards whose
generation is stale.  An in-flight bump therefore lands wholly in the old
epoch (and is discarded with it) or wholly in the new one — never half-
counted, never resurrected.  The publication order writers must follow is
*counts dict before epoch* (see ``docs/architecture.md``, "The memory
model"): a reader that sees the new epoch then always sees the fresh
dict, so no post-reset increment can be missed.
"""

from __future__ import annotations

import threading
from typing import Dict

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


class _StatShard:
    """One thread's counter storage.

    ``counts`` is written only by the owning thread; ``epoch`` records the
    reset generation those counts belong to.  The owner replaces both on
    its first bump after a reset, writing ``counts`` *before* ``epoch``
    so readers filtering by epoch never see a stale dict behind a fresh
    epoch number.
    """

    __slots__ = ("counts", "epoch")

    def __init__(self, epoch: int):
        self.counts: Dict[str, int] = {}
        self.epoch = epoch


class EngineStats:
    """Counters maintained by the avoidance engine and monitor.

    Each counter is readable as a plain attribute (``stats.requests``);
    the value is aggregated across all thread shards at read time, so it
    is exact once the bumping threads are quiescent (joined), and at
    worst a few increments stale while they are still running.
    """

    __slots__ = ("_lock", "_local", "_shards", "_epoch")

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: All per-thread shards ever created; appended under _lock,
        #: iterated lock-free by readers (list append is atomic).
        self._shards = []
        #: Reset generation.  Writers compare their shard's epoch to this
        #: and readers skip shards from older generations.  Only ever
        #: incremented, under _lock.
        self._epoch = 0

    def _new_shard(self) -> _StatShard:
        shard = _StatShard(self._epoch)
        with self._lock:
            self._shards.append(shard)
        self._local.shard = shard
        return shard

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

    def value_of(self, name: str) -> int:
        """The aggregated value of one counter across all thread shards."""
        if name not in _COUNTER_SET:
            raise KeyError(name)
        if name == "go_decisions":
            # Derived, not bumped: every request ends in a grant or a
            # YIELD, so the engine skips a per-grant shard write on the
            # hot path and the value is reconstructed here.  The max()
            # only matters mid-flight, when the two underlying counters
            # are read a few increments apart.
            return max(0, self.value_of("requests")
                       - self.value_of("yield_decisions"))
        epoch = self._epoch
        total = 0
        for shard in self._shards:
            if shard.epoch == epoch:
                total += shard.counts.get(name, 0)
        return total

    def __getattr__(self, name: str) -> int:
        # Only fires for names not found via __slots__, i.e. the counters.
        if name in _COUNTER_SET:
            return self.value_of(name)
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}")

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters (aggregated over shards)."""
        totals = {name: 0 for name in _COUNTER_NAMES}
        epoch = self._epoch
        with self._lock:
            shards = list(self._shards)
        for shard in shards:
            if shard.epoch != epoch:
                continue
            for name, value in list(shard.counts.items()):
                totals[name] += value
        # go_decisions is derived (see value_of): grants do not bump it.
        totals["go_decisions"] = max(
            0, totals["requests"] - totals["yield_decisions"])
        return totals

    def reset(self) -> None:
        """Zero every counter, atomically with respect to concurrent bumps.

        Starts a new epoch rather than clearing shard dicts in place (a
        clear would race lock-free writers; see the module docstring).
        A bump racing the reset lands entirely in the old epoch — and is
        discarded with it — or entirely in the new one; it is never
        half-counted and old totals can never resurface.
        """
        with self._lock:
            self._epoch += 1

    @property
    def yield_rate(self) -> float:
        """Fraction of requests answered with YIELD."""
        requests = self.value_of("requests")
        if requests == 0:
            return 0.0
        return self.value_of("yield_decisions") / requests
