"""Schedule policies and serializable schedule traces.

The scheduler used to resolve every scheduling choice with an inlined
``rng.choice``; that made each run sample exactly one interleaving per
seed.  This module turns the choice into a pluggable strategy:

* :class:`SchedulePolicy` — the interface the scheduler consults whenever
  more than one thread is runnable at the earliest virtual time.
* :class:`RandomPolicy` — the historical seeded-random behaviour (the
  default, so existing seeds keep producing the same runs).
* :class:`FirstReadyPolicy` — deterministic lowest-slot choice, the
  canonical "default path" used by the exploration engine.
* :class:`ReplayPolicy` — re-drives a recorded :class:`ScheduleTrace`
  step-for-step (strict) or as a best-effort prefix (tolerant, used by
  trace shrinking).

Every run records the decision taken at each choice point in
``SimResult.schedule`` as the *slot* (registration index) of the chosen
thread.  Slots — not raw thread ids — make traces portable: thread and
lock ids come from process-global counters, while slots depend only on
the order in which the scenario registers its threads.  A
:class:`ScheduleTrace` wraps that slot list with metadata and a stable
JSON encoding, so a deadlock found by the explorer can be checked in as a
fixture and replayed byte-identically in CI.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Sequence

from ..core.errors import ReplayDivergenceError, SimulationError

TRACE_FORMAT_VERSION = 1


class SchedulePolicy:
    """Strategy consulted by the scheduler at every scheduling choice point.

    ``choose`` is only called when two or more threads are runnable at the
    earliest virtual time; the candidate list is sorted by slot, so a
    policy seeing the same candidates in the same state always sees them
    in the same order.  ``observe`` is called for *every* step about to
    execute (choice point or not), which lets stateful policies track the
    previously running thread or maintain independence bookkeeping.
    """

    name = "abstract"

    def choose(self, candidates: List, scheduler):
        """Return the thread (one of ``candidates``) to run next."""
        raise NotImplementedError

    def observe(self, scheduler, thread, action) -> None:
        """Hook invoked with every action about to execute (default: no-op)."""

    def observe_grant(self, scheduler, thread, lock, mode: str) -> None:
        """Hook invoked when a blocked waiter is granted a resource.

        A FIFO hand-over completes the waiter's acquisition *inside the
        releaser's step* — no step of the waiter's own ever shows the
        grant.  Policies that track happens-before (DPOR race analysis)
        need this edge: the grant is ordered after the release that freed
        the capacity.  Default: no-op.
        """

    def observe_yield(self, scheduler, thread, lock) -> None:
        """Hook invoked when the avoidance engine denies an acquisition.

        A yield couples the denied thread to the holders of *every* lock
        in the matched signature — state no per-lock footprint can see.
        Policies doing dependence analysis treat yields as globally
        dependent.  Default: no-op.
        """


class RandomPolicy(SchedulePolicy):
    """Seeded uniform-random choice — the scheduler's historical behaviour."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def choose(self, candidates: List, scheduler):
        """Pick uniformly at random; same seed + same run ⇒ same picks."""
        return self.rng.choice(candidates)


class FirstReadyPolicy(SchedulePolicy):
    """Deterministically pick the runnable thread with the lowest slot."""

    name = "first-ready"

    def choose(self, candidates: List, scheduler):
        """Pick the first candidate (the list is sorted by slot)."""
        return candidates[0]


class ScheduleTrace:
    """A serializable record of the choices taken during one run.

    ``choices[i]`` is the slot of the thread picked at the *i*-th choice
    point.  ``meta`` carries free-form context (scenario name, backend,
    outcome) that replay does not interpret but humans and fixtures do.
    """

    def __init__(self, choices: Sequence[int],
                 meta: Optional[Dict[str, Any]] = None):
        self.choices: List[int] = list(choices)
        self.meta: Dict[str, Any] = dict(meta or {})

    def __len__(self) -> int:
        """Number of recorded choice points."""
        return len(self.choices)

    def __eq__(self, other) -> bool:
        """Traces are equal when their choices match; ``meta`` is ignored."""
        return (isinstance(other, ScheduleTrace)
                and self.choices == other.choices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScheduleTrace {self.choices!r}>"

    # -- serialization -------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The version-1 payload (see ``docs/trace-format.md``)."""
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "choices": list(self.choices),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScheduleTrace":
        """Validate and load a payload; rejects unknown format versions."""
        if not isinstance(payload, dict) or "choices" not in payload:
            raise SimulationError("schedule trace payload lacks a 'choices' list")
        version = payload.get("format_version", TRACE_FORMAT_VERSION)
        if version != TRACE_FORMAT_VERSION:
            raise SimulationError(
                f"unsupported schedule trace format version {version}")
        choices = payload["choices"]
        if (not isinstance(choices, list)
                or any(not isinstance(c, int) for c in choices)):
            raise SimulationError("'choices' must be a list of integers")
        return cls(choices, meta=payload.get("meta") or {})

    def dumps(self) -> str:
        """Stable JSON encoding: equal traces serialize to equal bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> str:
        """Write the stable encoding to ``path``; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
        return path

    @classmethod
    def load(cls, path: str) -> "ScheduleTrace":
        """Load and validate a trace previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class ReplayPolicy(SchedulePolicy):
    """Re-drive a recorded trace, choice point by choice point.

    In strict mode any divergence — a recorded slot that is not runnable,
    or a choice point beyond the end of the trace — raises
    :class:`~repro.core.errors.ReplayDivergenceError`.  In tolerant mode
    the policy falls back to the previously running thread (if runnable)
    or the lowest slot, which is what greedy trace shrinking relies on:
    deleting a choice shifts the tail, and the fallback completes the run
    so the shrunken schedule can be re-recorded from what actually ran.
    """

    name = "replay"

    def __init__(self, trace: ScheduleTrace, strict: bool = True):
        self.trace = trace
        self.strict = strict
        self.position = 0
        self._prev_slot: Optional[int] = None

    def choose(self, candidates: List, scheduler):
        """Return the recorded thread, or the tolerant fallback (see class)."""
        by_slot = {scheduler.slot_of(c.thread_id): c for c in candidates}
        position = self.position
        self.position += 1
        if position < len(self.trace.choices):
            slot = self.trace.choices[position]
            chosen = by_slot.get(slot)
            if chosen is not None:
                return chosen
            if self.strict:
                raise ReplayDivergenceError(
                    f"replay diverged at choice point {position}: recorded slot "
                    f"{slot} is not runnable (candidates: {sorted(by_slot)})",
                    position=position)
        elif self.strict:
            raise ReplayDivergenceError(
                f"replay ran out of recorded choices at choice point {position}",
                position=position)
        if self._prev_slot in by_slot:
            return by_slot[self._prev_slot]
        return by_slot[min(by_slot)]

    def observe(self, scheduler, thread, action) -> None:
        """Track the previously running thread for the tolerant fallback."""
        self._prev_slot = scheduler.slot_of(thread.thread_id)
