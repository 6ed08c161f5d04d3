"""Systematic schedule exploration: the simulator as a model checker.

One seeded run samples a single interleaving; the paper's immunity claim
("once a pattern is in the history, *no* future interleaving re-manifests
it") quantifies over *all* interleavings.  This module makes that claim
testable by exploring the scheduler's choice tree:

* :class:`Explorer` — bounded exhaustive search over scheduling choices,
  plus a swarm/random-walk mode for programs too large to enumerate.
  Each run re-drives a forced prefix of choices through a fresh scheduler
  built by a *scenario factory*, then takes default choices — stateless
  model checking in the style of VeriSoft/CHESS.  There is one search
  loop (:meth:`Explorer._search`): it runs a *wave* of
  :class:`FrontierNode` objects, folds each finished run (a
  :class:`RunRecord`) into the :class:`ExplorationResult`, and asks the
  strategy's *admission rule* for the next wave.  ``"dfs"`` admits every
  untaken sibling of every free choice point (unreduced enumeration, the
  ground truth); ``"dpor"`` admits the race reversals of
  :mod:`repro.sim.dpor`, whose explored set is a fixpoint because
  admission sees whole waves.
* Record/replay — every run yields a serializable
  :class:`~repro.sim.schedule.ScheduleTrace`; :meth:`Explorer.replay`
  re-drives one step-for-step (byte-identical when re-recorded).
* :meth:`Explorer.shrink` — greedy trace minimization for small, readable
  deadlock counterexamples suitable for fixture check-in.
* :class:`ImmunityChecker` — the paper's claim as an executable check:
  the scenario deadlocks under :class:`~repro.sim.backends.NullBackend`
  in at least one bounded interleaving, and under Dimmunix with the
  seeded history in none.

Reductions and soundness.  Local steps (``Compute``/``Log``/thread exit)
commute with everything, so they are executed eagerly without branching.
Sleep sets — per-lock footprints as the
independence relation — exist only inside source-DPOR, which seeds
each branch with its explored siblings (:mod:`repro.sim.dpor`).  A
preemption bound, when set,
restricts the search to schedules with at most that many preemptive
context switches (CHESS-style iterative context bounding) and is reported
as such — the search is then complete only w.r.t. the bound.
"""

from __future__ import annotations

import time
from itertools import islice
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from ..core.errors import ReplayDivergenceError, SimulationError
from .actions import Acquire, TryAcquire, action_footprint
from .aio import build_aio_philosophers, build_aio_two_lock_inversion
from .backends import NullBackend, SchedulerBackend
from .dpor import (ACQUIRE, BLOCK, RELEASE, TRY, YIELD, BacktrackBook,
                   RunObservation, admit_wave)
from .locks import SimRWLock, SimSemaphore
from .programs import (lock_order_program, philosopher_program,
                       rwlock_upgrade_program, sem_pool_program)
from .result import SimResult
from .schedule import (RandomPolicy, ReplayPolicy, SchedulePolicy,
                       ScheduleTrace, lock_footprint)
from .scheduler import SimScheduler

#: A scenario factory: builds a fresh, fully configured scheduler
#: (threads, locks, backend) for one exploration run.
ScenarioFactory = Callable[[], SimScheduler]


class _CutRun(Exception):
    """Internal control flow: abandon the current run.

    ``reason`` is ``"sleep"`` when every branchable candidate is in the
    sleep set (the continuation is covered by a sibling branch) or
    ``"depth"`` when the per-run choice-point bound was hit.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class FrontierNode:
    """One frontier entry: a forced choice prefix plus sleep insertions.

    Re-driving its ``choices`` through a fresh scenario instance reaches
    the exact scheduler state the node denotes; the run then continues
    with default choices.  The sleep entries travel with the prefix
    (always empty under ``"dfs"``).
    """

    choices: Tuple[int, ...]
    #: choice-point position -> sleep entries ((slot, lock footprint), ...)
    #: inserted when the replay reaches that position.
    sleep_at: Dict[int, Tuple[Tuple[int, Optional[int]], ...]]


class Branch(NamedTuple):
    """A free choice point of one run: what the ``"dfs"`` rule admits from.

    The prefix that re-drives the run up to this point is the run's
    ``schedule[:position]``.
    """

    position: int
    #: Untaken alternatives (slot, lock footprint), ascending slot order.
    alternatives: Tuple[Tuple[int, Optional[int]], ...]
    prev_slot: Optional[int]
    prev_runnable: bool
    preemptions: int


@dataclass
class RunRecord:
    """One finished run — all the search loop ever sees of it."""

    steps: int
    #: ``None``, or why the run was abandoned (see :class:`_CutRun`).
    cut: Optional[str]
    completed: bool
    #: Slot taken at every choice point, i.e. the trace that replays the run.
    schedule: List[int]
    backend: str
    #: Sorted (slot, lock slot) wait pairs of the stall; ``None`` = no deadlock.
    footprint: Optional[Tuple[Tuple[int, int], ...]] = None
    #: What the strategy's admission rule reads: free choice points for
    #: ``"dfs"``, the visible events for ``"dpor"``.
    branches: List[Branch] = field(default_factory=list)
    observation: Optional[RunObservation] = None
    result: Optional[SimResult] = field(default=None, compare=False)


class _DfsPolicy(SchedulePolicy):
    """Replays a forced prefix, then takes default choices recording branches."""

    name = "dfs"

    def __init__(self, node: FrontierNode, max_depth: Optional[int],
                 observation: Optional[RunObservation] = None):
        self.forced = node.choices
        self.sleep_in = node.sleep_at
        self.max_depth = max_depth
        self.observation = observation
        self.sleep: Dict[int, Optional[int]] = {}
        self.taken: List[int] = []
        if observation is not None:
            observation.taken = self.taken  # shared: grows with the run
        self.branches: List[Branch] = []
        self.position = 0
        self.prev_slot: Optional[int] = None
        self.preemptions = 0
        #: Choice position of the step about to execute (handed from
        #: ``choose`` to the immediately following ``observe``).
        self._step_position: Optional[int] = None

    def _note_choice(self, position: int, chosen: int, by_slot, slots) -> None:
        """Record a choice point for DPOR race analysis (collect mode)."""
        self._step_position = position
        if self.observation is None:
            return
        pool = tuple((s, by_slot[s][1]) for s in slots)
        if all(lock is not None for _s, lock in pool):
            # Only states with an all-visible candidate pool are seedable:
            # with invisible moves pending, the policy's normal form runs
            # them first, so no visible branch exists *at this state*.
            self.observation.choices_at[position] = (chosen, pool)

    def choose(self, candidates, scheduler):
        position = self.position
        self.position += 1
        if self.max_depth is not None and position >= self.max_depth:
            raise _CutRun("depth")
        for slot, lock in self.sleep_in.get(position, ()):
            self.sleep[slot] = lock
        by_slot = {}
        for thread in candidates:
            slot = scheduler.slot_of(thread.thread_id)
            lock = lock_footprint(thread.peek_action())
            # Footprints are lock *slots*, not lock ids: sleep entries
            # travel between runs, and each run has fresh lock ids.
            if lock is not None:
                lock = scheduler.lock_slot_of(lock)
            by_slot[slot] = (thread, lock)
        slots = sorted(by_slot)

        if position < len(self.forced):
            slot = self.forced[position]
            entry = by_slot.get(slot)
            if entry is None:
                raise ReplayDivergenceError(
                    f"DFS prefix diverged at choice point {position}: slot "
                    f"{slot} is not runnable (candidates: {slots})",
                    position=position)
            self._note_choice(position, slot, by_slot, slots)
            return self._take(slot, entry[0], slots,
                              visible=entry[1] is not None)

        invisible = [s for s in slots if by_slot[s][1] is None]
        if invisible:
            # Local moves commute with everything: run one eagerly, never
            # branch over their order (and never charge the
            # reduction-imposed switch as a preemption).
            slot = self.prev_slot if self.prev_slot in invisible else invisible[0]
            self._step_position = position
            return self._take(slot, by_slot[slot][0], slots, visible=False)
        branchable = [s for s in slots if s not in self.sleep]
        if not branchable:
            raise _CutRun("sleep")
        chosen = self.prev_slot if self.prev_slot in branchable else branchable[0]
        self._note_choice(position, chosen, by_slot, slots)
        if self.observation is None and len(branchable) > 1:
            self.branches.append(Branch(
                position=position,
                alternatives=tuple((s, by_slot[s][1])
                                   for s in branchable if s != chosen),
                prev_slot=self.prev_slot,
                prev_runnable=self.prev_slot in by_slot,
                preemptions=self.preemptions))
        return self._take(chosen, by_slot[chosen][0], slots,
                          visible=by_slot[chosen][1] is not None)

    def _take(self, slot: int, thread, candidate_slots: List[int],
              visible: bool):
        # A preemption is a switch away from the thread that performed
        # the last *visible* (lock) operation while it could still run.
        # Invisible moves are glue: they neither count as preemptions nor
        # change whose turn it conceptually is.
        if (visible and self.prev_slot is not None and self.prev_slot != slot
                and self.prev_slot in candidate_slots):
            self.preemptions += 1
        self.taken.append(slot)
        return thread

    def observe(self, scheduler, thread, action) -> None:
        slot = scheduler.slot_of(thread.thread_id)
        position = self._step_position
        self._step_position = None
        footprint = action_footprint(action)
        lock = None
        if footprint is not None:
            lock_id, mode = footprint
            lock = scheduler.lock_slot_of(lock_id)
            self.prev_slot = slot
            if self.observation is not None:
                if isinstance(action, TryAcquire):
                    kind = TRY
                elif isinstance(action, Acquire):
                    # Distinguish a grant from a parking attempt: blocked
                    # attempts commute with releases, so race analysis
                    # must know which one is about to execute.
                    kind = (ACQUIRE
                            if action.lock.can_grant(thread.thread_id, mode)
                            else BLOCK)
                else:
                    kind = RELEASE
                self.observation.events.append(
                    (slot, lock, position, kind, mode))
        if not self.sleep:
            return
        # A sleep entry dissolves when a dependent step executes: any step
        # touching the same lock, or the sleeping thread itself moving.
        self.sleep.pop(slot, None)
        if lock is not None:
            for sleeping in [s for s, asleep_on in self.sleep.items()
                             if asleep_on == lock]:
                del self.sleep[sleeping]

    def observe_grant(self, scheduler, thread, lock, mode: str) -> None:
        """Record a FIFO hand-over as an acquisition event (collect mode).

        The grant happens inside the releaser's step, so it carries no
        choice position (``None`` — nothing to reverse there), but race
        analysis needs the event for its happens-before clocks: without
        it the waiter's later steps look concurrent with the release that
        unblocked them, and every release/release pair on a contended
        lock seeds a spurious reversal.
        """
        if self.observation is not None:
            slot = scheduler.slot_of(thread.thread_id)
            self.observation.events.append(
                (slot, scheduler.lock_slot_of(lock.lock_id), None, ACQUIRE,
                 mode))

    def observe_yield(self, scheduler, thread, lock) -> None:
        """Reclassify the step just observed as an avoidance yield.

        ``observe`` runs before the scheduler consults the backend, so it
        records the attempt as ACQUIRE/BLOCK/TRY; when the avoidance
        engine then denies it, the event must become a YIELD.  Yields are
        globally dependent: the deny is a function of the holders of
        every lock in the matched signature, which no per-lock footprint
        captures, so race analysis must order it against all other steps.
        """
        if self.observation is None or not self.observation.events:
            return
        slot = scheduler.slot_of(thread.thread_id)
        lock_slot = scheduler.lock_slot_of(lock.lock_id)
        last = self.observation.events[-1]
        if last[0] == slot and last[1] == lock_slot:
            self.observation.events[-1] = (slot, lock_slot, last[2], YIELD,
                                           last[4])


def _record(scheduler: SimScheduler, result: SimResult,
            cut: Optional[str] = None,
            policy: Optional[_DfsPolicy] = None) -> RunRecord:
    """The plain-data record of a run that just ended on ``scheduler``.

    ``result`` is the scheduler's result; with ``cut`` set the run was
    abandoned mid-way and only its steps and schedule count.
    """
    record = RunRecord(steps=result.steps, cut=cut,
                       completed=cut is None and result.completed,
                       schedule=result.schedule,
                       backend=scheduler.backend.name)
    if cut is None:
        record.result = result
        if result.deadlocked and result.stall is not None:
            record.footprint = tuple(sorted(
                (scheduler.slot_of(thread_id), scheduler.lock_slot_of(lock_id))
                for thread_id, lock_id in result.stall.waiting.items()))
    if policy is not None:
        record.branches = policy.branches
        record.observation = policy.observation
    return record


@dataclass
class DeadlockFinding:
    """One deadlocking interleaving discovered by the explorer."""

    trace: ScheduleTrace
    result: SimResult
    #: Sorted (slot, lock slot) wait pairs of the stall — the
    #: deduplication key and the deadlock's *signature* for differential
    #: equivalence checks (stable across runs).
    footprint: Tuple[Tuple[int, int], ...]


@dataclass
class ExplorationResult:
    """Aggregate outcome of one exploration.

    ``mode`` is ``"dfs"`` for a systematic search (either strategy) and
    ``"random"`` for a random walk.
    """

    mode: str
    #: Reduction strategy that produced this result ("dfs" = unreduced,
    #: "dpor", "random").
    strategy: str = "dfs"
    runs: int = 0
    steps: int = 0
    completed: int = 0
    deadlocks: List[DeadlockFinding] = field(default_factory=list)
    #: Distinct stall footprints among ``deadlocks``.
    unique_deadlocks: int = 0
    #: Runs abandoned because every branchable move was in the sleep set.
    pruned_sleep: int = 0
    #: Runs truncated by the per-run choice-point depth bound.
    cut_depth: int = 0
    #: Branches not pushed because they exceeded the preemption bound.
    skipped_preemption: int = 0
    #: True when the bounded choice tree was fully enumerated (no depth
    #: cuts, no run-budget exhaustion; preemption skips are reported, not
    #: counted against exhaustiveness of the *bounded* space).
    exhausted: bool = False
    elapsed: float = 0.0
    _footprints: set = field(default_factory=set, repr=False, compare=False)

    def fold(self, record: RunRecord, scenario: str) -> None:
        """Account for one finished run — the only place a run becomes
        counters and a :class:`DeadlockFinding`."""
        self.runs += 1
        self.steps += record.steps
        if record.cut == "depth":
            self.cut_depth += 1
            self.exhausted = False
        elif record.cut == "sleep":
            self.pruned_sleep += 1
        if record.footprint is not None:
            trace = ScheduleTrace(record.schedule, meta={
                "scenario": scenario,
                "backend": record.backend,
                "outcome": "deadlock",
            })
            self.deadlocks.append(
                DeadlockFinding(trace, record.result, record.footprint))
            if record.footprint not in self._footprints:
                self._footprints.add(record.footprint)
                self.unique_deadlocks += 1
        elif record.completed:
            self.completed += 1

    @property
    def deadlock_count(self) -> int:
        """Number of deadlocking runs found (not deduplicated)."""
        return len(self.deadlocks)

    @property
    def states_per_second(self) -> float:
        """Scheduler steps (explored states) per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return self.steps / self.elapsed

    def summary(self) -> Dict:
        """Flat dictionary of all counters (for printing and reports)."""
        return {
            "mode": self.mode,
            "strategy": self.strategy,
            "runs": self.runs,
            "steps": self.steps,
            "completed": self.completed,
            "deadlocks": self.deadlock_count,
            "unique_deadlocks": self.unique_deadlocks,
            "pruned_sleep": self.pruned_sleep,
            "cut_depth": self.cut_depth,
            "skipped_preemption": self.skipped_preemption,
            "exhausted": self.exhausted,
            "elapsed": round(self.elapsed, 6),
            "states_per_second": round(self.states_per_second, 1),
        }


#: Recognized exploration strategies (see :meth:`Explorer.resolve_strategy`).
STRATEGIES = ("dfs", "dpor")

#: The search loop's argument: an admission rule turns the records of one
#: whole wave (and the result so far, for its skip counters) into the
#: next wave.
AdmissionRule = Callable[[List[RunRecord], ExplorationResult],
                         Iterable[FrontierNode]]


class Explorer:
    """Bounded systematic exploration of a scenario's schedule tree.

    ``scenario`` is a zero-argument factory returning a fresh, fully
    configured :class:`SimScheduler`; each run gets its own scheduler (and
    backend — use :meth:`SchedulerBackend.fork` for stateful backends).

    ``strategy`` selects the reduction:

    * ``"dfs"`` — unreduced enumeration (every alternative at every
      free choice point), visited wave by wave: the ground truth the
      reduction is checked against;
    * ``"dpor"`` — source-DPOR race reversal (:mod:`repro.sim.dpor`),
      the default: applied to *engine-backed* exploration too, with the
      equivalence of its deadlock coverage re-proven per scenario by the
      differential suite (``tests/explore/``);
    * ``None``/``"auto"`` — ``"dpor"``, unless a ``preemption_bound`` is
      set, which forces ``"dfs"``: reductions prune an ordering because
      an equivalent branch covers it, but preemption counts are not
      invariant across equivalent orderings, so with a bound the covering
      branch may be skipped while the pruned one was within it (CHESS
      likewise bounds without reduction).

    Other bounds: ``max_runs`` caps the number of
    executions, ``max_depth`` the choice points per run,
    ``preemption_bound`` the preemptive context switches per schedule
    (``None`` = unbounded; switches counted at visible lock operations
    only).
    """

    def __init__(self, scenario: ScenarioFactory, *, name: str = "scenario",
                 max_runs: int = 10_000, max_depth: Optional[int] = None,
                 preemption_bound: Optional[int] = None,
                 strategy: Optional[str] = None):
        self.scenario = scenario
        self.name = name
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.preemption_bound = preemption_bound
        if strategy is not None and strategy != "auto" \
                and strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown exploration strategy {strategy!r} "
                f"(expected one of {STRATEGIES} or 'auto')")
        self.strategy = strategy

    # -- run plumbing ----------------------------------------------------------------------

    def _build(self, policy: SchedulePolicy) -> SimScheduler:
        scheduler = self.scenario()
        scheduler.policy = policy
        return scheduler

    def resolve_strategy(self) -> str:
        """The concrete strategy this explorer will run (never "auto")."""
        if self.preemption_bound is not None:
            # No reduction composes with preemption bounding (see class
            # docstring); bounded search always enumerates unreduced.
            return "dfs"
        if self.strategy is None or self.strategy == "auto":
            return "dpor"
        return self.strategy

    def _run_node(self, node: FrontierNode) -> RunRecord:
        """Execute one frontier node to its end (or its cut)."""
        collect = self.resolve_strategy() == "dpor"
        policy = _DfsPolicy(node, self.max_depth,
                            RunObservation() if collect else None)
        scheduler = self._build(policy)
        try:
            return _record(scheduler, scheduler.run(), policy=policy)
        except _CutRun as cut_run:
            return _record(scheduler, scheduler.result, cut=cut_run.reason,
                           policy=policy)

    # -- the search loop -------------------------------------------------------------------

    def explore(self, stop_on_first_deadlock: bool = False) -> ExplorationResult:
        """Systematic enumeration of the bounded schedule tree."""
        return self._search(self._admission(), stop_on_first_deadlock)

    def _search(self, admit: AdmissionRule,
                stop_on_first_deadlock: bool = False) -> ExplorationResult:
        """The search loop: run a wave, fold its records, admit the next.

        The nodes of a wave run one at a time, in node order (so a search
        that stops mid-wave never executes the rest); ``admit`` turns the
        records of the *whole* wave into the next wave's nodes.  A wave
        never holds more nodes than the run budget still allows.
        """
        res = ExplorationResult(mode="dfs", strategy=self.resolve_strategy(),
                                exhausted=True)
        started = time.perf_counter()

        def within_budget(admitted: Iterable[FrontierNode]) -> List[FrontierNode]:
            admitted = iter(admitted)
            wave = list(islice(admitted, max(0, self.max_runs - res.runs)))
            if next(admitted, None) is not None:
                res.exhausted = False
            return wave

        wave = within_budget([FrontierNode(choices=(), sleep_at={})])
        try:
            while wave:
                records: List[RunRecord] = []
                for record in map(self._run_node, wave):
                    res.fold(record, self.name)
                    if stop_on_first_deadlock and res.deadlocks:
                        res.exhausted = False
                        return res
                    records.append(record)
                wave = within_budget(admit(records, res))
            return res
        finally:
            res.elapsed = time.perf_counter() - started

    def _admission(self) -> AdmissionRule:
        """The resolved strategy's admission rule (fresh state per search)."""
        if self.resolve_strategy() == "dfs":
            return self._admit_siblings
        book = BacktrackBook()
        return lambda records, _res: (
            FrontierNode(choices=choices, sleep_at=sleep_at)
            for choices, sleep_at in admit_wave(
                book, [record.observation for record in records]))

    def _admit_siblings(self, records: List[RunRecord],
                        res: ExplorationResult) -> Iterable[FrontierNode]:
        """``"dfs"``: every untaken sibling of every free choice point.

        A generator, so the loop's budget check stops it from building
        nodes the search will never run.
        """
        for record in records:
            for branch in record.branches:
                prefix = tuple(record.schedule[:branch.position])
                for alt_slot, alt_lock in branch.alternatives:
                    if self.preemption_bound is not None:
                        # Mirror _DfsPolicy._take: only a visible (lock)
                        # move away from a still-runnable previous thread
                        # counts against the bound.
                        preemptive = (alt_lock is not None
                                      and branch.prev_runnable
                                      and branch.prev_slot is not None
                                      and alt_slot != branch.prev_slot)
                        if branch.preemptions + preemptive \
                                > self.preemption_bound:
                            res.skipped_preemption += 1
                            continue
                    yield FrontierNode(choices=prefix + (alt_slot,),
                                       sleep_at={})

    # -- swarm / random walk ------------------------------------------------------------------

    def random_walk(self, runs: int = 100, seed: int = 0,
                    stop_on_first_deadlock: bool = False) -> ExplorationResult:
        """Sample ``runs`` random schedules (for trees too large to enumerate)."""
        res = ExplorationResult(mode="random")
        started = time.perf_counter()
        for index in range(runs):
            scheduler = self._build(RandomPolicy(seed=seed * 1_000_003 + index))
            res.fold(_record(scheduler, scheduler.run()), self.name)
            if stop_on_first_deadlock and res.deadlocks:
                break
        res.elapsed = time.perf_counter() - started
        return res

    # -- record / replay -------------------------------------------------------------------------

    def replay(self, trace: ScheduleTrace, strict: bool = True) -> SimResult:
        """Re-drive a recorded schedule through a fresh scenario instance."""
        scheduler = self._build(ReplayPolicy(trace, strict=strict))
        return scheduler.run()

    # -- greedy trace shrinking ------------------------------------------------------------------

    def shrink(self, trace: ScheduleTrace,
               preserve: Optional[Callable[[SimResult], bool]] = None,
               max_passes: int = 8) -> ScheduleTrace:
        """Minimize a counterexample schedule while ``preserve`` still holds.

        Greedy passes of prefix truncation and single-choice deletion,
        each validated by a tolerant replay; the surviving schedule is
        re-recorded from the actual run, so the result always replays
        strictly (and byte-identically).  ``preserve`` defaults to "the
        run still deadlocks".
        """
        if preserve is None:
            preserve = lambda result: result.deadlocked  # noqa: E731

        def attempt(choices: List[int]) -> Tuple[SimResult, List[int]]:
            result = self.replay(ScheduleTrace(choices), strict=False)
            return result, list(result.schedule)

        best_result, best = attempt(list(trace.choices))
        if not preserve(best_result):
            raise ValueError("trace does not satisfy the predicate to preserve")
        for _pass in range(max_passes):
            improved = False
            for cut in range(len(best)):
                result, recorded = attempt(best[:cut])
                if preserve(result) and len(recorded) < len(best):
                    best = recorded
                    improved = True
                    break
            if improved:
                continue
            index = 0
            while index < len(best):
                result, recorded = attempt(best[:index] + best[index + 1:])
                if preserve(result) and len(recorded) < len(best):
                    best = recorded
                    improved = True
                else:
                    index += 1
            if not improved:
                break
        meta = dict(trace.meta)
        meta["shrunk_from"] = len(trace.choices)
        return ScheduleTrace(best, meta=meta)


# ---------------------------------------------------------------------------
# Immunity checking
# ---------------------------------------------------------------------------

@dataclass
class ImmunityReport:
    """Outcome of an :class:`ImmunityChecker` run."""

    scenario: str
    vulnerable: ExplorationResult
    minimal_trace: Optional[ScheduleTrace]
    learned_signatures: int
    immune: Optional[ExplorationResult]

    @property
    def vacuous(self) -> bool:
        """True when no bounded interleaving deadlocked even without avoidance."""
        return self.vulnerable.deadlock_count == 0

    @property
    def holds(self) -> bool:
        """The paper's claim: vulnerable baseline, zero deadlocks with history.

        The immune phase is a universal claim, so it only counts when its
        bounded tree was fully enumerated (``immune.exhausted``) — a
        truncated search with zero deadlocks proves nothing.  The
        vulnerable phase is existential and needs no exhaustiveness.
        """
        return (not self.vacuous and self.immune is not None
                and self.immune.exhausted
                and self.immune.deadlock_count == 0)

    def as_dict(self) -> Dict:
        """Flat dictionary of the report (for printing and the harness)."""
        return {
            "scenario": self.scenario,
            "vulnerable_runs": self.vulnerable.runs,
            "vulnerable_deadlocks": self.vulnerable.deadlock_count,
            "unique_deadlocks": self.vulnerable.unique_deadlocks,
            "minimal_trace_len": (len(self.minimal_trace)
                                  if self.minimal_trace is not None else None),
            "signatures": self.learned_signatures,
            "immune_runs": self.immune.runs if self.immune else None,
            "immune_deadlocks": (self.immune.deadlock_count
                                 if self.immune else None),
            "immune_exhausted": (self.immune.exhausted
                                 if self.immune else None),
            "immune": self.holds,
        }


class ImmunityChecker:
    """Executable statement of the paper's immunity claim for one scenario.

    ``scenario`` is a callable taking a backend and returning a fresh,
    fully configured scheduler.  :meth:`check` then asserts, over all
    interleavings within the configured bounds:

    1. **vulnerable** — under :class:`NullBackend` the scenario deadlocks
       in at least one interleaving (otherwise the claim is vacuous);
    2. **learn** — the minimal deadlocking schedule is replayed under a
       fresh Dimmunix backend with an empty history (an empty history
       makes every request GO, so the schedule re-drives exactly) to
       archive the deadlock's signature;
    3. **immune** — with that history seeded, *no* bounded interleaving
       deadlocks; each run receives its own forked backend so learned
       state never leaks between interleavings.
    """

    def __init__(self, scenario: Callable[[SchedulerBackend], SimScheduler],
                 *, name: str = "scenario", max_runs: int = 5_000,
                 max_depth: Optional[int] = None,
                 preemption_bound: Optional[int] = None,
                 backend_prototype: Optional[SchedulerBackend] = None,
                 shrink: bool = True,
                 strategy: Optional[str] = None):
        self.scenario = scenario
        self.name = name
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.preemption_bound = preemption_bound
        self.backend_prototype = backend_prototype
        self.do_shrink = shrink
        self.strategy = strategy

    def _explorer(self, factory: ScenarioFactory) -> Explorer:
        return Explorer(factory, name=self.name, max_runs=self.max_runs,
                        max_depth=self.max_depth,
                        preemption_bound=self.preemption_bound,
                        strategy=self.strategy)

    def _fresh_prototype(self, history=None) -> SchedulerBackend:
        from ..core.config import DimmunixConfig
        from .backends import DimmunixBackend

        if self.backend_prototype is not None:
            prototype = self.backend_prototype.fork()
            if history is not None:
                merge = getattr(prototype, "history", None)
                if merge is not None:
                    merge.merge(history.signatures())
            return prototype
        return DimmunixBackend(config=DimmunixConfig.for_testing(),
                               history=history)

    def check(self) -> ImmunityReport:
        """Run the three phases (vulnerable → learn → immune) and report.

        Every exploration run receives its own scheduler and — in the
        immune phase — its own *forked* backend
        (:meth:`SchedulerBackend.fork`), so learned signatures and
        mutated engine state never leak between interleavings; the
        seeded history is the only state shared across runs, by
        construction.
        """
        vulnerable_explorer = self._explorer(lambda: self.scenario(NullBackend()))
        vulnerable = vulnerable_explorer.explore()
        if not vulnerable.deadlocks:
            return ImmunityReport(scenario=self.name, vulnerable=vulnerable,
                                  minimal_trace=None, learned_signatures=0,
                                  immune=None)

        trace = vulnerable.deadlocks[0].trace
        minimal = (vulnerable_explorer.shrink(trace) if self.do_shrink
                   else trace)

        # Learn: archive the signature by re-driving the minimal schedule
        # under an engine-backed backend with an empty history.
        learner = self._fresh_prototype()
        learn_scheduler = self.scenario(learner)
        learn_scheduler.policy = ReplayPolicy(minimal, strict=True)
        try:
            learn_result = learn_scheduler.run()
            learned = learn_result.deadlocked
        except ReplayDivergenceError:
            learned = False
        if not learned:
            # The backend perturbed the schedule; find a deadlock under it
            # directly instead of replaying the NullBackend counterexample.
            fallback = self._explorer(
                lambda: self.scenario(self._fresh_prototype()))
            found = fallback.explore(stop_on_first_deadlock=True)
            if not found.deadlocks:
                return ImmunityReport(scenario=self.name, vulnerable=vulnerable,
                                      minimal_trace=minimal,
                                      learned_signatures=0, immune=None)
            learner = self._fresh_prototype()
            learn_scheduler = self.scenario(learner)
            learn_scheduler.policy = ReplayPolicy(found.deadlocks[0].trace,
                                                  strict=True)
            try:
                learned = learn_scheduler.run().deadlocked
            except ReplayDivergenceError:
                learned = False

        # Engine-backed learners carry their immunity in a History; other
        # backends (gate/ghost locks) learned inside the backend itself
        # during the deadlocking replay, so the learner becomes the
        # prototype and fork() carries the protection into each run.
        history = getattr(learner, "history", None)
        if not learned or (history is not None and len(history) == 0):
            # Learning failed: report it as such (immune=None) rather than
            # exploring against an unseeded backend and misreporting the
            # claim itself as broken.
            return ImmunityReport(scenario=self.name, vulnerable=vulnerable,
                                  minimal_trace=minimal,
                                  learned_signatures=0, immune=None)
        if history is not None:
            immune_prototype = self._fresh_prototype(history=history)
        else:
            immune_prototype = learner
        immune_explorer = self._explorer(lambda: self.scenario(
            immune_prototype.fork()))
        immune = immune_explorer.explore()
        return ImmunityReport(scenario=self.name, vulnerable=vulnerable,
                              minimal_trace=minimal,
                              learned_signatures=(len(history)
                                                  if history is not None
                                                  else 0),
                              immune=immune)


# ---------------------------------------------------------------------------
# Canonical scenarios (shared by tests, harness, benchmarks, fixtures)
# ---------------------------------------------------------------------------

def build_two_lock_inversion(backend: SchedulerBackend,
                             hold_time: float = 0.0) -> SimScheduler:
    """The paper's section 4 example: update(A, B) racing update(B, A).

    With zero hold time the bounded schedule space contains both
    completing and deadlocking interleavings (a positive hold time forces
    the two critical sections to overlap in virtual time, which makes the
    deadlock inevitable under ``NullBackend``).
    """
    scheduler = SimScheduler(backend=backend)
    lock_a = scheduler.new_lock("A")
    lock_b = scheduler.new_lock("B")
    scheduler.add_thread(lock_order_program(lock_a, lock_b, "s1",
                                            hold_time=hold_time), name="fwd")
    scheduler.add_thread(lock_order_program(lock_b, lock_a, "s2",
                                            hold_time=hold_time), name="rev")
    return scheduler


def build_philosophers(backend: SchedulerBackend, seats: int = 3,
                       meals: int = 1,
                       eat_time: float = 0.001) -> SimScheduler:
    """Dining philosophers, all grabbing the left fork first."""
    scheduler = SimScheduler(backend=backend)
    forks = [scheduler.new_lock(f"fork-{i}") for i in range(seats)]
    for seat in range(seats):
        scheduler.add_thread(philosopher_program(
            forks[seat], forks[(seat + 1) % seats], seat,
            think_time=0.0, eat_time=eat_time, meals=meals),
            name=f"philosopher-{seat}")
    return scheduler


def build_sem_exhaustion_cycle(backend: SchedulerBackend, permits: int = 2,
                               workers: int = 2) -> SimScheduler:
    """Permit exhaustion: ``workers`` workers each draining ``permits``
    permits, one at a time, from a ``permits``-permit semaphore.

    Every worker can grab one permit and block on its second — a deadlock
    cycle through the pool's *holders*, invisible to a single-owner
    resource model.
    """
    scheduler = SimScheduler(backend=backend)
    pool = scheduler.register_lock(SimSemaphore(permits, name="pool"))
    for worker in range(workers):
        scheduler.add_thread(
            sem_pool_program(pool, f"w{worker}", permits=permits),
            name=f"worker-{worker}")
    return scheduler


def build_rwlock_upgrade_inversion(backend: SchedulerBackend,
                                   upgraders: int = 2) -> SimScheduler:
    """Two readers that both upgrade to a write hold while still reading.

    Each upgrader's write acquisition waits on the other reader — the
    rwlock upgrade inversion.
    """
    scheduler = SimScheduler(backend=backend)
    rwlock = scheduler.register_lock(SimRWLock(name="rw"))
    for index in range(upgraders):
        scheduler.add_thread(rwlock_upgrade_program(rwlock, f"t{index}"),
                             name=f"upgrader-{index}")
    return scheduler


#: Scenario registry used by replay fixtures and the harness matrix.
#: Includes threaded (generator-program), asyncio (coroutine-program),
#: and multi-holder-resource scenarios — the explorer treats them
#: identically, since coroutines drive the scheduler through the same
#: ``send`` protocol and capacity-aware resources through the same
#: backend protocol.
SCENARIOS: Dict[str, Callable[[SchedulerBackend], SimScheduler]] = {
    "two-lock-inversion": build_two_lock_inversion,
    "philosophers-3": lambda backend: build_philosophers(backend, seats=3),
    # Zero eat time removes the virtual-time serialization between the
    # two forks, yielding the full 1239-run unreduced tree — the
    # reduction benchmarks' and differential suite's stress scenario.
    "philosophers-3-eat0":
        lambda backend: build_philosophers(backend, seats=3, eat_time=0.0),
    "aio-two-lock-inversion": build_aio_two_lock_inversion,
    "aio-philosophers-3":
        lambda backend: build_aio_philosophers(backend, seats=3),
    "sem-exhaustion-cycle": build_sem_exhaustion_cycle,
    "rwlock-upgrade-inversion": build_rwlock_upgrade_inversion,
}
