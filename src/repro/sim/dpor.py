"""Source-DPOR race reversal for the schedule-exploration engine.

Sleep sets (PR 2) prune an ordering only when a *sibling branch already
pushed onto the frontier* covers it — the search still pushes every
alternative at every free choice point and prunes later.  Dynamic
partial-order reduction inverts that: explore *one* schedule, detect the
**races** it executed (pairs of dependent steps by different threads that
were co-enabled, i.e. adjacent in the happens-before order), and seed the
frontier with exactly the *reversals* of those races.  Orderings that
differ only in the interleaving of independent steps are never generated
at all, which is why DPOR prunes strictly more than sleep sets on the
same dependence relation.

The implementation here is the classic Flanagan/Godefroid race-reversal
loop in *source style*: a per-prefix "done" book (:class:`BacktrackBook`)
plays the role of source sets — a reversal is admitted only when no
explored or already-admitted branch from that prefix starts with the same
thread — and every admitted branch carries the previously explored
branches as a sleep set, so redundant recombinations are cut early.
Exploration proceeds in deterministic **waves** (run every frontier node,
*then* admit all discovered reversals in run/event order), which makes
the explored set a pure fixpoint of the seeding relation: a reversal is
checked against the branches of *every* run in its wave, not only the
runs before it, so what is admitted depends on the set of runs in the
wave and the same scenario explores the same runs in the same order
every time.

Dependence relation.  Two visible steps are *dependent* iff they touch
the same resource slot and they are not both SHARED-mode acquisitions
(two rwlock readers commute; everything else on one resource — exclusive
acquires, permit takes, releases — does not).  This is exact for the
pure resource semantics of :class:`~repro.sim.backends.NullBackend`.
For engine-backed backends an avoidance decision on one lock can depend
on holders of *other* locks, so per-resource dependence is a heuristic
there — which is precisely why ``tests/explore/test_differential.py``
re-proves, for every registered scenario and both backend families, that
DPOR's deadlock-signature set equals the unreduced full-DFS set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.signature import SHARED

#: Visible-operation kinds recorded per event (see :class:`RunObservation`).
ACQUIRE = "acquire"   # successful acquisition (direct or FIFO hand-over)
BLOCK = "block"       # acquire attempt that parks on the waiter queue
TRY = "try"
RELEASE = "release"
YIELD = "yield"       # attempt denied by the avoidance engine (parked)


@dataclass(frozen=True)
class Seed:
    """One race reversal: force ``slot`` at choice ``position`` of ``prefix``.

    ``lock`` is the resource slot the seeded thread's step touches at that
    state — carried so later siblings admitted from the same prefix can
    put this branch to sleep with its footprint.
    """

    prefix: Tuple[int, ...]
    position: int
    slot: int
    lock: Optional[int]


@dataclass
class RunObservation:
    """What one exploration run exposes to race analysis.

    * ``events`` — the visible (resource-touching) steps in execution
      order: ``(slot, lock_slot, position, kind, mode)`` where
      ``position`` is the choice point that scheduled the step (``None``
      when only one thread was runnable — no branch exists there).
    * ``choices_at`` — for every *seedable* choice position (all
      candidates visible): ``(chosen_slot, ((slot, lock_slot), ...))``
      over the full candidate pool, ascending slot order.
    * ``taken`` — the slot taken at every choice position, so
      ``tuple(taken[:p])`` is the exact forced prefix that re-drives the
      run up to position ``p``.
    """

    events: List[Tuple[int, Optional[int], Optional[int], str, str]] = \
        field(default_factory=list)
    choices_at: Dict[int, Tuple[int, Tuple[Tuple[int, Optional[int]], ...]]] = \
        field(default_factory=dict)
    taken: List[int] = field(default_factory=list)


def dependent(kind_a: str, mode_a: str, kind_b: str, mode_b: str) -> bool:
    """Dependence of two same-resource visible steps (see module docstring).

    Beyond the SHARED-readers rule, two commutation facts of the FIFO
    hand-over semantics shrink the relation considerably:

    * a *blocked* acquire attempt commutes with a release — attempt-then-
      release (park, then hand-over grant) and release-then-attempt
      (direct grant) reach the identical state, so their order is never
      worth reversing;
    * two releases commute — freed capacity is granted strictly FIFO from
      the waiter queue, so the grant assignment is independent of which
      release ran first.

    A *successful* acquire does not commute with a release (on capacity
    resources it can barge ahead of a queued waiter the release would
    have served), and blocked attempts do not commute with each other
    (their order is the FIFO queue order).

    A ``YIELD`` — an attempt the avoidance engine parked — commutes with
    nothing (see :func:`pair_dependent`): the engine's decision reads the
    holders of *other* locks, so a yield is dependent even on
    different-resource steps.
    """
    if YIELD in (kind_a, kind_b):
        return True
    if RELEASE in (kind_a, kind_b):
        other = kind_a if kind_b == RELEASE else kind_b
        return other not in (RELEASE, BLOCK)
    acquiring_a = kind_a in (ACQUIRE, TRY)
    acquiring_b = kind_b in (ACQUIRE, TRY)
    if acquiring_a and acquiring_b and mode_a == SHARED and mode_b == SHARED:
        return False
    return True


def pair_dependent(event_a: Tuple[int, Optional[int], Optional[int], str, str],
                   event_b: Tuple[int, Optional[int], Optional[int], str, str],
                   ) -> bool:
    """Dependence of two events, including the cross-resource cases.

    Different-resource steps are independent under pure lock semantics —
    *except* when either is a ``YIELD``: an avoidance decision on one
    lock is a function of the holders of every lock in the matched
    signature, so a yield must be ordered against every other visible
    step for race reversal to restore the interleavings the engine's
    state-coupling can distinguish.
    """
    _slot_a, lock_a, _pos_a, kind_a, mode_a = event_a
    _slot_b, lock_b, _pos_b, kind_b, mode_b = event_b
    if YIELD in (kind_a, kind_b):
        return True
    if lock_a is None or lock_a != lock_b:
        return False
    return dependent(kind_a, mode_a, kind_b, mode_b)


def find_races(observation: RunObservation) -> List[Seed]:
    """Race reversals of one run, in event order (deterministic).

    For each visible event *j*, find the last earlier dependent event *i*
    on the same resource.  The pair is a **race** when *i* was performed
    by a different thread and is *concurrent* with *j* — not already
    ordered before it through other dependence edges.  Concurrency is
    decided with vector clocks over the run's dependence edges (program
    order plus same-resource dependence); without this check every pair
    of same-lock touches would seed a reversal, including ones that are
    transitively ordered through other locks and whose reversal only
    re-explores covered ground.  For a race, seed the reversal at *i*'s
    choice point — thread of *j* if it was a candidate there, otherwise
    every candidate (the classic DPOR fallback when the racing thread
    was not yet enabled).  Events scheduled without a choice point carry
    no reversal: only one thread was runnable, so the race is not
    reversible at that state (and classic DPOR's backtrack addition
    degenerates to the empty set too).
    """
    seeds: List[Seed] = []
    events = observation.events
    taken = observation.taken
    clocks: List[Dict[int, int]] = []  # per-event vector clock
    thread_clock: Dict[int, Dict[int, int]] = {}
    counters: Dict[int, int] = {}
    for j, event_j in enumerate(events):
        slot_j = event_j[0]
        pre = dict(thread_clock.get(slot_j, ()))  # program-order past of j
        for i in range(j - 1, -1, -1):
            event_i = events[i]
            if not pair_dependent(event_i, event_j):
                continue
            slot_i, _lock_i, pos_i, _kind_i, _mode_i = event_i
            if slot_i == slot_j:
                break  # program order: no race, and earlier deps are covered
            if all(tick <= pre.get(s, 0) for s, tick in clocks[i].items()):
                break  # i already happens-before j via other edges: no race
            if pos_i is None:
                break  # single-candidate state: nothing to reverse
            entry = observation.choices_at.get(pos_i)
            if entry is None:
                break  # invisible candidates pending: not a seedable state
            chosen, candidates = entry
            prefix = tuple(taken[:pos_i])
            slots = [s for s, _lock in candidates]
            if slot_j in slots:
                if slot_j != chosen:
                    lock = dict(candidates)[slot_j]
                    seeds.append(Seed(prefix, pos_i, slot_j, lock))
            else:
                seeds.extend(Seed(prefix, pos_i, s, lock)
                             for s, lock in candidates if s != chosen)
            break  # only the *last* dependent event forms the race with j
        # Advance the clocks: j's clock joins its thread's past with every
        # earlier dependent event (the dependence edges of the run).
        clock = pre
        for i in range(j):
            if not pair_dependent(events[i], event_j):
                continue
            for s, tick in clocks[i].items():
                if tick > clock.get(s, 0):
                    clock[s] = tick
        counters[slot_j] = counters.get(slot_j, 0) + 1
        clock[slot_j] = counters[slot_j]
        clocks.append(clock)
        thread_clock[slot_j] = clock
    return seeds


class BacktrackBook:
    """Per-prefix record of explored branches — DPOR's source/done sets.

    ``mark_taken`` records that some run continued ``prefix`` with
    ``slot`` (the branch has been initiated; its interior is covered by
    that run's own race analysis).  :func:`admit_wave` filters each
    wave's seed stream against the book, marks every admitted seed, and
    attaches the previously explored branches as sleep sets.
    """

    def __init__(self) -> None:
        self._done: Dict[Tuple[int, ...], Dict[int, Optional[int]]] = {}

    def mark_taken(self, prefix: Tuple[int, ...], slot: int,
                   lock: Optional[int]) -> None:
        """Record an explored branch (idempotent)."""
        self._done.setdefault(prefix, {}).setdefault(slot, lock)

    def mark_run(self, observation: RunObservation) -> None:
        """Record every branch a finished run took at its choice points."""
        taken = observation.taken
        for position, (chosen, candidates) in observation.choices_at.items():
            lock = dict(candidates).get(chosen)
            self.mark_taken(tuple(taken[:position]), chosen, lock)

    def explored_at(self, prefix: Tuple[int, ...]) -> Dict[int, Optional[int]]:
        """Branches explored from ``prefix`` so far (slot -> footprint)."""
        return dict(self._done.get(prefix, {}))


#: Sleep-insertion map of a frontier node: position -> ((slot, lock), ...).
SleepAt = Dict[int, Tuple[Tuple[int, Optional[int]], ...]]


def admit_wave(book: BacktrackBook,
               observations: List[Optional[RunObservation]],
               ) -> List[Tuple[Tuple[int, ...], SleepAt]]:
    """One wave step: mark every run, then admit its races in order.

    The two-pass shape (mark *all* runs before admitting *any* seed) is
    what makes the wave a barrier: a reversal whose branch some run of
    the same wave already took is never admitted, wherever in the wave
    that run sits.

    Each admitted reversal becomes a frontier payload ``(choices,
    sleep_at)``.  The sleep insertions carry, for *every* seedable choice
    point along the forced prefix, the branches already explored (or
    already admitted) from that state — the inherited sleep set of classic
    DPOR.  Without it each seeded subtree would re-explore the orderings
    its left siblings cover, and DPOR would degenerate to worse than plain
    sleep-set DFS.
    """
    for obs in observations:
        if obs is not None:
            book.mark_run(obs)
    admitted: List[Tuple[Tuple[int, ...], SleepAt]] = []
    for obs in observations:
        if obs is None:
            continue
        for seed in find_races(obs):
            done = book._done.setdefault(seed.prefix, {})
            if seed.slot in done:
                continue
            sleep_at: SleepAt = {}
            for position in sorted(obs.choices_at):
                if position > seed.position:
                    break
                if position == seed.position:
                    entries = tuple(sorted(done.items()))
                else:
                    done_q = book.explored_at(tuple(obs.taken[:position]))
                    done_q.pop(obs.taken[position], None)
                    entries = tuple(sorted(done_q.items()))
                if entries:
                    sleep_at[position] = entries
            done[seed.slot] = seed.lock
            admitted.append((seed.prefix + (seed.slot,), sleep_at))
    return admitted
