"""Deadlock-cycle and starvation (yield-cycle) detection on the RAG.

The monitor treats both conditions with the same machinery (paper 5.2):

* A *deadlock cycle* is a cycle made of hold and allow edges — threads
  blocked waiting for resources held by other threads in the cycle.  With
  single-holder mutexes every blocked thread has exactly one successor
  (the owner) and the wait-for projection is a functional graph; with
  capacity-aware resources a blocked requester waits on *all* the holders
  that block it (every permit holder for an exhausted semaphore, every
  reader for a blocked writer), so the detector walks a multi-successor
  graph with a colored DFS and reports each distinct cycle once.
* An *induced starvation* exists when threads parked by avoidance
  decisions (yield edges) can no longer make progress because every
  escape route leads back into the waiting group.  We compute this with a
  can-progress fixpoint that is equivalent to the paper's yield-cycle
  definition: a thread can progress iff it is not waiting, or at least
  one holder blocking the resource it waits for can progress, or at least
  one of its yield causes can progress.

Both detectors return :class:`DetectedCycle` records carrying the stack
(and acquisition-mode) multiset from which the monitor builds a
:class:`~repro.core.signature.Signature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callstack import CallStack
from .rag import ResourceAllocationGraph, ThreadState
from .signature import DEADLOCK, EXCLUSIVE, STARVATION, Signature


@dataclass
class DetectedCycle:
    """A deadlock or starvation condition found in the RAG."""

    kind: str
    #: Thread ids involved in the cycle / starved group.
    threads: Tuple[int, ...]
    #: Lock ids involved.
    locks: Tuple[int, ...]
    #: The call stacks labelling the hold (and yield) edges of the cycle.
    stacks: Tuple[CallStack, ...] = field(default_factory=tuple)
    #: Acquisition modes of the hold edges, parallel to ``stacks``
    #: (empty means all-exclusive, the single-holder legacy shape).
    modes: Tuple[str, ...] = ()

    def to_signature(self, matching_depth: int, created_at: float = 0.0) -> Signature:
        """Build the persistent signature of this cycle."""
        return Signature(self.stacks, kind=self.kind,
                         matching_depth=matching_depth, created_at=created_at,
                         modes=self.modes or None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DetectedCycle({self.kind}, threads={self.threads}, "
                f"locks={self.locks})")


# ---------------------------------------------------------------------------
# Waits-for edges
# ---------------------------------------------------------------------------

def _blocked_successors(rag: ResourceAllocationGraph, state: ThreadState
                        ) -> List[Tuple[int, int, CallStack, str]]:
    """The ``(holder, lock, holder_stack, holder_mode)`` edges a *blocked*
    thread waits on (deduplicated per holder, sorted for determinism).

    Only allow edges count: a thread whose request was answered with YIELD
    is parked by Dimmunix, not blocked on the resource, and is handled by
    the starvation detector instead.
    """
    if state.allow is None:
        return []
    lock_id = state.allow[0]
    resource = rag.lock(lock_id)
    edges: List[Tuple[int, int, CallStack, str]] = []
    seen: Set[int] = set()
    for holder, stack, mode in resource.blocking_holders(state.thread_id,
                                                         state.allow_mode):
        if holder in seen or stack is None:
            continue
        seen.add(holder)
        edges.append((holder, lock_id, stack, mode))
    edges.sort(key=lambda edge: edge[0])
    return edges


def _blocking_holder_ids(rag: ResourceAllocationGraph,
                         state: ThreadState) -> List[int]:
    """Holder ids blocking the thread's waiting edge (allow *or* request)."""
    lock_id = state.waiting_lock
    if lock_id is None:
        return []
    resource = rag.lock(lock_id)
    holders: List[int] = []
    for holder, _stack, _mode in resource.blocking_holders(
            state.thread_id, state.waiting_mode):
        if holder not in holders:
            holders.append(holder)
    return holders


# ---------------------------------------------------------------------------
# Deadlock cycles
# ---------------------------------------------------------------------------

def find_deadlock_cycles(rag: ResourceAllocationGraph,
                         roots: Optional[Sequence[int]] = None) -> List[DetectedCycle]:
    """Find deadlock cycles reachable from ``roots`` (default: all threads).

    Uses the classic three-color DFS over the waits-for graph.  For
    single-holder mutexes every node has at most one successor and this
    reduces to walking successor chains; permit resources fan out to all
    blocking holders, and every distinct cycle (by rotation-invariant
    thread key) is reported once.
    """
    if roots is None:
        roots = sorted(rag.thread_ids())
    color: Dict[int, int] = {}  # 0/absent = white, 1 = grey, 2 = black
    cycles: List[DetectedCycle] = []
    seen_cycles: Set[Tuple[int, ...]] = set()
    successors: Dict[int, List[Tuple[int, int, CallStack, str]]] = {}

    def succ(thread_id: int) -> List[Tuple[int, int, CallStack, str]]:
        cached = successors.get(thread_id)
        if cached is None:
            cached = _blocked_successors(rag, rag.thread(thread_id))
            successors[thread_id] = cached
        return cached

    for root in roots:
        if color.get(root, 0) != 0:
            continue
        color[root] = 1
        path: List[int] = [root]
        #: path_edges[i] labels the hop path[i] -> path[i+1].
        path_edges: List[Tuple[int, CallStack, str]] = []
        frames: List[Tuple[int, int]] = [(root, 0)]
        while frames:
            node, index = frames[-1]
            out = succ(node)
            if index >= len(out):
                frames.pop()
                color[node] = 2
                path.pop()
                if path_edges:
                    path_edges.pop()
                continue
            frames[-1] = (node, index + 1)
            nxt, lock_id, stack, mode = out[index]
            nxt_color = color.get(nxt, 0)
            if nxt_color == 1:
                start = path.index(nxt)
                cycle_threads = tuple(path[start:])
                cycle_edges = path_edges[start:] + [(lock_id, stack, mode)]
                key = _canonical(cycle_threads)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(DetectedCycle(
                        kind=DEADLOCK,
                        threads=cycle_threads,
                        locks=tuple(lock for lock, _s, _m in cycle_edges),
                        stacks=tuple(stack for _l, stack, _m in cycle_edges),
                        modes=tuple(mode for _l, _s, mode in cycle_edges),
                    ))
            elif nxt_color == 0:
                color[nxt] = 1
                path.append(nxt)
                path_edges.append((lock_id, stack, mode))
                frames.append((nxt, 0))
            # black: a finished subtree, nothing new behind it.
    return cycles


def _canonical(threads: Tuple[int, ...]) -> Tuple[int, ...]:
    """Rotation-invariant key identifying a cycle."""
    if not threads:
        return threads
    smallest = min(range(len(threads)), key=lambda i: threads[i])
    return threads[smallest:] + threads[:smallest]


# ---------------------------------------------------------------------------
# Starvation (yield cycles)
# ---------------------------------------------------------------------------

def find_starvation(rag: ResourceAllocationGraph) -> List[DetectedCycle]:
    """Find groups of threads starved by avoidance-induced yielding.

    Returns one :class:`DetectedCycle` per connected starved group that
    contains at least one yielding thread.  Groups that form an actual
    deadlock cycle (no yield edges involved) are left to
    :func:`find_deadlock_cycles`.
    """
    states = {state.thread_id: state for state in rag.threads()}
    blockers = {tid: _blocking_holder_ids(rag, state)
                for tid, state in states.items()}
    can_progress: Set[int] = set()

    # Base case: threads that are neither blocked nor yielding.
    for tid, state in states.items():
        if not state.is_yielding and state.waiting_lock is None:
            can_progress.add(tid)

    changed = True
    while changed:
        changed = False
        for tid, state in states.items():
            if tid in can_progress:
                continue
            if state.is_yielding:
                # A parked thread is woken (and its signature instance
                # dissolves) as soon as any of its causes releases a lock,
                # which requires that cause to make progress — or to have
                # ended holding nothing, which the RAG then forgot.
                if any(cause_thread in can_progress or cause_thread not in states
                       for cause_thread, _lock, _stack in state.yields):
                    can_progress.add(tid)
                    changed = True
            elif state.waiting_lock is not None:
                holders = blockers[tid]
                if not holders or any(holder in can_progress
                                      for holder in holders):
                    can_progress.add(tid)
                    changed = True
            else:  # pragma: no cover - covered by the base case
                can_progress.add(tid)
                changed = True

    starved = {tid for tid in states if tid not in can_progress}
    if not starved:
        return []

    groups = _starved_groups(states, blockers, starved)
    results: List[DetectedCycle] = []
    for group in groups:
        if not any(states[tid].is_yielding for tid in group):
            # Pure deadlock: reported by find_deadlock_cycles instead.
            continue
        stacks: List[CallStack] = []
        modes: List[str] = []
        locks: Set[int] = set()
        for tid in group:
            state = states[tid]
            for _cause_thread, cause_lock, cause_stack in state.yields:
                stacks.append(cause_stack)
                modes.append(EXCLUSIVE)
                locks.add(cause_lock)
            if state.allow is not None:
                lock_id = state.allow[0]
                for holder, _hold_lock, stack, mode in _blocked_successors(
                        rag, state):
                    if holder in group and stack is not None:
                        stacks.append(stack)
                        modes.append(mode)
                        locks.add(lock_id)
        if not stacks:
            continue
        results.append(DetectedCycle(
            kind=STARVATION,
            threads=tuple(sorted(group)),
            locks=tuple(sorted(locks)),
            stacks=tuple(stacks),
            modes=tuple(modes),
        ))
    return results


def _starved_groups(states: Dict[int, ThreadState],
                    blockers: Dict[int, List[int]],
                    starved: Set[int]) -> List[Set[int]]:
    """Partition the starved threads into weakly connected groups."""
    adjacency: Dict[int, Set[int]] = {tid: set() for tid in starved}
    for tid in starved:
        state = states[tid]
        neighbours: Set[int] = set()
        for cause_thread, _lock, _stack in state.yields:
            if cause_thread in starved:
                neighbours.add(cause_thread)
        for holder in blockers[tid]:
            if holder in starved:
                neighbours.add(holder)
        for other in neighbours:
            adjacency[tid].add(other)
            adjacency[other].add(tid)

    groups: List[Set[int]] = []
    unvisited = set(starved)
    while unvisited:
        seed = unvisited.pop()
        group = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in group:
                    group.add(neighbour)
                    frontier.append(neighbour)
        unvisited -= group
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# Convenience wrapper
# ---------------------------------------------------------------------------

def detect_all(rag: ResourceAllocationGraph,
               roots: Optional[Sequence[int]] = None) -> List[DetectedCycle]:
    """Run both detectors, deadlock cycles first (matching monitor behaviour)."""
    found = find_deadlock_cycles(rag, roots)
    found.extend(find_starvation(rag))
    return found


def pick_starvation_victim(rag: ResourceAllocationGraph,
                           cycle: DetectedCycle) -> Optional[int]:
    """Pick the thread whose yield should be cancelled to break starvation.

    The paper breaks starvation by releasing the starved *yielding* thread
    that holds the most locks, letting it pursue its most recently
    requested lock.
    """
    best: Optional[int] = None
    best_holds = -1
    for tid in cycle.threads:
        state = rag.thread(tid)
        if not state.is_yielding:
            continue
        holds = state.hold_count
        if holds > best_holds:
            best = tid
            best_holds = holds
    return best
