"""Parallel schedule exploration across OS worker processes.

The DFS frontier is already a work queue: every
:class:`~repro.sim.explore.FrontierNode` is a subtree root, and sibling
pushes during a subtree run always extend that subtree's own prefix, so
disjoint node lists explore disjoint run sets.  This module distributes
those subtrees over worker processes and merges the partial results back
into an :class:`~repro.sim.explore.ExplorationResult` whose
:meth:`~repro.sim.explore.ExplorationResult.canonical` form is
*byte-identical* to the serial one — worker count is an implementation
detail, not an observable.

Coordination follows the ``share`` package's channel idiom (PR 5): a
*task board* is an append-only list of tasks plus an append-only map of
results, with two transports —

* :class:`MemoryTaskBoard` — in-process, deterministic; workers drain it
  inline.  Used by tests to exercise the split/claim/merge protocol
  without process scheduling noise (the analogue of
  :class:`repro.share.memory.MemoryHub`).
* :class:`FileTaskBoard` — a spool directory; tasks are claimed by
  atomic rename, results land via write-to-temp-then-rename.  Safe for
  unrelated OS processes sharing only a filesystem, which is what CI
  gets (the analogue of :mod:`repro.share.filechannel`).

Scenarios cross the process boundary as plain data: a name from the
:data:`~repro.sim.explore.SCENARIOS` registry plus a backend spec
(:func:`~repro.sim.backends.backend_spec`).  Each run inside a worker
still gets its own forked backend, exactly as in serial exploration.

Two parallel modes mirror the two serial strategy families:

* **subtree mode** (``dfs``) — the parent expands the DFS
  until the frontier holds enough subtree roots, publishes each root as
  one task, and workers pull roots and explore them to completion.
  Results are merged in the roots' processing order, which is exactly
  the order the serial DFS would have explored them.
* **wave mode** (``dpor``) — source-DPOR admits backtrack points only
  at wave barriers (:func:`repro.sim.dpor.admit_wave`), so the parent
  distributes each wave's nodes as tasks, reassembles the runs'
  observations in node order, and performs the admission itself.  The
  admitted set is a pure function of the wave's observations, so the
  exploration is the same one the serial loop performs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import SimulationError
from .backends import backend_from_spec, backend_spec
from .dpor import BacktrackBook, RunObservation, admit_wave
from .explore import (STRATEGIES, DeadlockFinding, ExplorationResult,
                      Explorer, FrontierNode, SCENARIOS)
from .schedule import ScheduleTrace

#: Minimum frontier width (beyond the worker count) before the subtree
#: split happens.  Kept small deliberately: ``expand`` pauses the first
#: time the stack is at least this wide, and a DFS stack's width can
#: stay *bounded* (pushes ≈ pops), so demanding a large multiple of the
#: worker count risks the expansion running the whole tree serially
#: before ever pausing.  The stack typically jumps well past this after
#: the first run, and dynamic pulling balances uneven subtree sizes.
SPLIT_MARGIN = 1

_POLL_INTERVAL = 0.002


# ---------------------------------------------------------------------------
# Result serialization (worker -> parent)
# ---------------------------------------------------------------------------

def result_to_payload(result: ExplorationResult) -> Dict[str, Any]:
    """The plain-data fields of a partial result that travel to the parent.

    Timing (``elapsed``) deliberately does not travel: the merged
    result's clock is the parent's wall clock for the whole parallel
    operation.  Deadlock findings travel as trace choices + footprint —
    the full :class:`~repro.sim.result.SimResult` stays in the worker
    (replaying the trace reconstructs it).
    """
    return {
        "runs": result.runs,
        "steps": result.steps,
        "completed": result.completed,
        "pruned_sleep": result.pruned_sleep,
        "cut_depth": result.cut_depth,
        "skipped_preemption": result.skipped_preemption,
        "exhausted": result.exhausted,
        "deadlocks": [
            {"choices": list(finding.trace.choices),
             "meta": dict(finding.trace.meta),
             "footprint": [list(pair) for pair in finding.footprint]}
            for finding in result.deadlocks],
    }


def _findings_from_payload(records: List[Dict]) -> List[DeadlockFinding]:
    return [
        DeadlockFinding(
            trace=ScheduleTrace(record["choices"], meta=record.get("meta")),
            result=None,
            footprint=tuple(tuple(pair) for pair in record["footprint"]))
        for record in records
    ]


def merge_results(parts: List[Dict[str, Any]], *, mode: str, strategy: str,
                  max_runs: int) -> ExplorationResult:
    """Fold partial-result payloads (in processing order) into one result.

    Counters sum; deadlock findings concatenate in order, and the unique
    count is recomputed by scanning that merged order — the same
    first-seen scan the serial loop performs.  The merged tree is
    exhausted only if every part was and the combined run count stayed
    within budget (the serial loop would have stopped otherwise).
    """
    merged = ExplorationResult(mode=mode, strategy=strategy)
    for part in parts:
        merged.runs += part["runs"]
        merged.steps += part["steps"]
        merged.completed += part["completed"]
        merged.pruned_sleep += part["pruned_sleep"]
        merged.cut_depth += part["cut_depth"]
        merged.skipped_preemption += part["skipped_preemption"]
        merged.deadlocks.extend(_findings_from_payload(part["deadlocks"]))
    seen: set = set()
    for finding in merged.deadlocks:
        if finding.footprint not in seen:
            seen.add(finding.footprint)
            merged.unique_deadlocks += 1
    merged.exhausted = (all(part["exhausted"] for part in parts)
                        and merged.runs <= max_runs)
    return merged


def _observation_from_payload(payload: Dict[str, Any]) -> RunObservation:
    return RunObservation(
        events=[(event[0], event[1], event[2], event[3], event[4])
                for event in payload["events"]],
        choices_at={
            int(position): (entry[0],
                            tuple((slot, lock) for slot, lock in entry[1]))
            for position, entry in payload["choices_at"].items()},
        taken=list(payload["taken"]))


# ---------------------------------------------------------------------------
# Task boards (the coordination transports)
# ---------------------------------------------------------------------------

class TaskBoard:
    """Append-only task list + result map shared by a parent and workers.

    Tasks are ``(task_id, payload)`` pairs; each is claimed by exactly
    one worker.  ``close()`` announces that no further tasks will ever be
    published, which is how workers distinguish "queue momentarily
    empty" (keep polling — wave mode publishes in rounds) from "done".
    """

    def publish(self, task_id: int, payload: Dict) -> None:
        raise NotImplementedError

    def claim(self) -> Optional[Tuple[int, Dict]]:
        raise NotImplementedError

    def finish(self, task_id: int, payload: Dict) -> None:
        raise NotImplementedError

    def results(self) -> Dict[int, Dict]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def closed(self) -> bool:
        raise NotImplementedError


class MemoryTaskBoard(TaskBoard):
    """In-process board; the deterministic transport (tests, inline mode)."""

    def __init__(self):
        self._tasks: List[Tuple[int, Dict]] = []
        self._results: Dict[int, Dict] = {}
        self._closed = False
        self._lock = threading.Lock()

    def publish(self, task_id: int, payload: Dict) -> None:
        with self._lock:
            self._tasks.append((task_id, payload))

    def claim(self) -> Optional[Tuple[int, Dict]]:
        with self._lock:
            if not self._tasks:
                return None
            return self._tasks.pop(0)

    def finish(self, task_id: int, payload: Dict) -> None:
        with self._lock:
            self._results[task_id] = payload

    def results(self) -> Dict[int, Dict]:
        with self._lock:
            return dict(self._results)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def closed(self) -> bool:
        with self._lock:
            return self._closed


class FileTaskBoard(TaskBoard):
    """Spool-directory board; safe across unrelated OS processes.

    Layout under ``root``::

        spec.json          worker configuration (scenario, backend, bounds)
        tasks/<id>.json    published, unclaimed tasks
        claimed/<id>.json  rename target — the atomic claim
        results/<id>.json  finished results (written via temp + rename)
        closed             marker: no further tasks will be published

    ``os.rename`` within one filesystem is atomic, so exactly one worker
    wins each claim and readers never observe half-written results.
    """

    def __init__(self, root: str):
        self.root = root
        self._tasks = os.path.join(root, "tasks")
        self._claimed = os.path.join(root, "claimed")
        self._results = os.path.join(root, "results")
        self._closed_marker = os.path.join(root, "closed")
        for directory in (self._tasks, self._claimed, self._results):
            os.makedirs(directory, exist_ok=True)

    @staticmethod
    def _write_json(directory: str, name: str, payload: Dict) -> None:
        final = os.path.join(directory, name)
        handle, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(payload, stream, sort_keys=True)
            os.rename(temp, final)
        except BaseException:
            if os.path.exists(temp):
                os.unlink(temp)
            raise

    def write_spec(self, spec: Dict) -> None:
        """Publish the worker configuration (before any worker starts)."""
        self._write_json(self.root, "spec.json", spec)

    def read_spec(self) -> Dict:
        with open(os.path.join(self.root, "spec.json"),
                  encoding="utf-8") as stream:
            return json.load(stream)

    def publish(self, task_id: int, payload: Dict) -> None:
        self._write_json(self._tasks, f"{task_id:08d}.json", payload)

    def claim(self) -> Optional[Tuple[int, Dict]]:
        for name in sorted(os.listdir(self._tasks)):
            if not name.endswith(".json"):
                continue
            source = os.path.join(self._tasks, name)
            target = os.path.join(self._claimed, name)
            try:
                os.rename(source, target)
            except OSError:
                continue  # another worker won this claim
            with open(target, encoding="utf-8") as stream:
                return int(name[:-len(".json")]), json.load(stream)
        return None

    def finish(self, task_id: int, payload: Dict) -> None:
        self._write_json(self._results, f"{task_id:08d}.json", payload)

    def results(self) -> Dict[int, Dict]:
        collected: Dict[int, Dict] = {}
        for name in sorted(os.listdir(self._results)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self._results, name),
                      encoding="utf-8") as stream:
                collected[int(name[:-len(".json")])] = json.load(stream)
        return collected

    def close(self) -> None:
        self._write_json(self.root, "closed", {})

    def closed(self) -> bool:
        return os.path.exists(self._closed_marker)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_explorer(spec: Dict) -> Explorer:
    scenario = spec["scenario"]
    if scenario not in SCENARIOS:
        raise SimulationError(f"unknown scenario {scenario!r}")
    prototype = backend_from_spec(spec.get("backend"))
    factory = lambda: SCENARIOS[scenario](prototype.fork())  # noqa: E731
    return Explorer(factory, name=scenario,
                    max_runs=spec.get("max_runs", 10_000),
                    max_depth=spec.get("max_depth"),
                    visible_only=spec.get("visible_only", True),
                    strategy=spec.get("strategy"))


def _run_subtree_task(explorer: Explorer, spec: Dict, task: Dict) -> Dict:
    node = FrontierNode.from_dict(task["node"])
    partial = explorer.explore_frontier([node], strategy=spec["strategy"])
    return result_to_payload(partial)


def _run_collect_task(explorer: Explorer, spec: Dict, task: Dict) -> Dict:
    """Run one frontier node with event collection (DPOR wave mode)."""
    node = FrontierNode.from_dict(task["node"])
    scheduler, result, cut, policy = explorer._run_node(
        node, sleep_enabled=True, collect=True)
    observation = policy.observation
    payload: Dict[str, Any] = {
        "cut": cut,
        "steps": (scheduler.result.steps if result is None
                  else result.steps),
        "completed": bool(result is not None and result.completed),
        "deadlocked": bool(result is not None and result.deadlocked
                           and result.stall is not None),
        "schedule": list(result.schedule) if result is not None else [],
        "backend_name": scheduler.backend.name,
        "footprint": None,
        "observation": {
            "events": [list(event) for event in observation.events],
            "choices_at": {
                str(position): [entry[0],
                                [list(pair) for pair in entry[1]]]
                for position, entry in observation.choices_at.items()},
            "taken": list(observation.taken),
        },
    }
    if payload["deadlocked"]:
        payload["footprint"] = [
            [scheduler.slot_of(thread_id), scheduler.lock_slot_of(lock_id)]
            for thread_id, lock_id in result.stall.waiting.items()]
    return payload


def run_worker(board: TaskBoard, spec: Dict,
               poll_interval: float = _POLL_INTERVAL,
               drain: bool = False) -> int:
    """Pull tasks from ``board`` until it is closed; returns tasks done.

    The loop services both modes — each task record carries its own
    ``mode`` — so one worker pool can serve a DPOR exploration whose
    waves arrive in rounds.  With ``drain=True`` the loop instead stops
    at the first empty poll (the inline memory-transport execution,
    where nobody refills the board while the worker holds the thread).
    """
    explorer = _worker_explorer(spec)
    done = 0
    while True:
        item = board.claim()
        if item is None:
            if drain or board.closed():
                return done
            time.sleep(poll_interval)
            continue
        task_id, task = item
        if task.get("mode") == "collect":
            payload = _run_collect_task(explorer, spec, task)
        else:
            payload = _run_subtree_task(explorer, spec, task)
        board.finish(task_id, payload)
        done += 1


def _file_worker_main(root: str) -> None:
    """Entry point of one OS worker process (and the CLI's work loop)."""
    board = FileTaskBoard(root)
    run_worker(board, board.read_spec())


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class ParallelExplorer:
    """Distribute one scenario's exploration over worker processes.

    ``scenario`` is a name from :data:`~repro.sim.explore.SCENARIOS` —
    not a factory, because workers must rebuild it in another process.
    ``backend`` is a backend prototype (forked per run, as in serial
    exploration), a spec dictionary, or ``None`` for no avoidance.

    ``transport`` selects the coordination: ``"file"`` (default) spawns
    ``workers`` OS processes around a :class:`FileTaskBoard` spool;
    ``"memory"`` runs the same protocol inline on a
    :class:`MemoryTaskBoard` — no parallelism, but the identical
    split/claim/merge path, which is what the equivalence tests pin.

    The contract: for a fully enumerated tree (no budget or depth
    truncation), :meth:`explore`'s result has the same
    :meth:`~repro.sim.explore.ExplorationResult.canonical` form as
    ``Explorer(...).explore()`` with the same strategy and bounds,
    for every worker count.
    """

    def __init__(self, scenario: str, *, backend=None, workers: int = 4,
                 strategy: Optional[str] = None, max_runs: int = 10_000,
                 max_depth: Optional[int] = None, visible_only: bool = True,
                 transport: str = "file", spool_dir: Optional[str] = None):
        if scenario not in SCENARIOS:
            raise SimulationError(
                f"unknown scenario {scenario!r} (parallel exploration ships "
                f"scenarios by registry name; known: {sorted(SCENARIOS)})")
        if strategy is not None and strategy != "auto" \
                and strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown exploration strategy {strategy!r} "
                f"(expected one of {STRATEGIES} or 'auto')")
        if transport not in ("file", "memory"):
            raise SimulationError(
                f"unknown transport {transport!r} (expected 'file' or 'memory')")
        if workers < 1:
            raise SimulationError("workers must be >= 1")
        self.scenario = scenario
        if backend is None or isinstance(backend, dict):
            self.backend_spec = backend
        else:
            self.backend_spec = backend_spec(backend)
        self.workers = workers
        self.strategy = strategy
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.visible_only = visible_only
        self.transport = transport
        self.spool_dir = spool_dir

    # -- shared plumbing -------------------------------------------------------------------

    def resolve_strategy(self) -> str:
        """The concrete strategy (same resolution as the serial explorer)."""
        if self.strategy is None or self.strategy == "auto":
            return "dpor"
        return self.strategy

    def _spec(self, strategy: str) -> Dict:
        return {
            "scenario": self.scenario,
            "backend": self.backend_spec,
            "strategy": strategy,
            "max_runs": self.max_runs,
            "max_depth": self.max_depth,
            "visible_only": self.visible_only,
        }

    def _local_explorer(self, strategy: str) -> Explorer:
        return _worker_explorer(self._spec(strategy))

    def _label(self, strategy: str) -> str:
        return f"{strategy}+parallel-{self.workers}"

    def _with_board(self, spec: Dict, drive):
        """Run ``drive(board, pump)`` with transport-appropriate workers.

        ``pump(expected)`` blocks until ``expected`` results exist and
        returns them; with the memory transport it first drains the board
        inline (the deterministic execution of the same protocol).
        """
        if self.transport == "memory":
            board = MemoryTaskBoard()

            def pump(expected: int) -> Dict[int, Dict]:
                run_worker(board, spec, drain=True)
                results = board.results()
                if len(results) < expected:
                    raise SimulationError(
                        "task board lost results: expected "
                        f"{expected}, found {len(results)}")
                return results

            try:
                return drive(board, pump)
            finally:
                board.close()

        root = self.spool_dir or tempfile.mkdtemp(prefix="parexplore-")
        board = FileTaskBoard(root)
        board.write_spec(spec)
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        processes = [
            context.Process(target=_file_worker_main, args=(root,),
                            daemon=True)
            for _ in range(self.workers)]
        for process in processes:
            process.start()

        def pump(expected: int) -> Dict[int, Dict]:
            while True:
                results = board.results()
                if len(results) >= expected:
                    return results
                if all(process.exitcode is not None
                       for process in processes) and not board.closed():
                    raise SimulationError(
                        "all exploration workers exited before finishing "
                        f"({len(results)}/{expected} results)")
                time.sleep(_POLL_INTERVAL)

        try:
            return drive(board, pump)
        finally:
            board.close()
            for process in processes:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()

    # -- exploration ----------------------------------------------------------------------

    def explore(self) -> ExplorationResult:
        """Explore the scenario's bounded tree across the worker pool."""
        strategy = self.resolve_strategy()
        started = time.perf_counter()
        if strategy == "dpor":
            result = self._explore_waves(strategy)
        else:
            result = self._explore_subtrees(strategy)
        result.strategy = self._label(strategy)
        result.elapsed = time.perf_counter() - started
        return result

    def _explore_subtrees(self, strategy: str) -> ExplorationResult:
        serial = self._local_explorer(strategy)
        prefix, frontier = serial.expand(self.workers + SPLIT_MARGIN,
                                         strategy=strategy)
        if not frontier:
            return prefix  # the tree was smaller than one split's worth

        spec = self._spec(strategy)
        prefix_payload = result_to_payload(prefix)
        # ``expand`` reports exhausted=False because its frontier was
        # non-empty *at the split*; modulo that frontier (which the
        # workers are about to drain) the prefix is exhausted unless it
        # was itself truncated.
        prefix_payload["exhausted"] = (prefix.cut_depth == 0
                                       and prefix.runs < self.max_runs)

        def drive(board: TaskBoard, pump) -> ExplorationResult:
            for index, node in enumerate(frontier):
                board.publish(index, {"mode": "subtree",
                                      "node": node.to_dict()})
            board.close()
            results = pump(len(frontier))
            ordered = [results[index] for index in range(len(frontier))]
            return merge_results(
                [prefix_payload] + ordered,
                mode=prefix.mode, strategy=strategy, max_runs=self.max_runs)

        merged = self._with_board(spec, drive)
        # The prefix findings carried full SimResults; restore them so a
        # parallel run is no less informative than the prefix alone.
        for index, finding in enumerate(prefix.deadlocks):
            merged.deadlocks[index] = finding
        return merged

    def _explore_waves(self, strategy: str) -> ExplorationResult:
        spec = dict(self._spec(strategy))
        # Workers run single nodes with collection; reduction happens in
        # the parent's admission, not in the worker's policy dispatch.
        spec["strategy"] = None

        def drive(board: TaskBoard, pump) -> ExplorationResult:
            res = ExplorationResult(mode="dfs", strategy=strategy)
            seen: set = set()
            book = BacktrackBook()
            wave: List[FrontierNode] = [FrontierNode(choices=(), sleep_at={})]
            next_task = 0
            exhausted = True
            stopped = False
            while wave and not stopped:
                first = next_task
                for node in wave:
                    board.publish(next_task, {"mode": "collect",
                                              "node": node.to_dict()})
                    next_task += 1
                results = pump(next_task)
                observations: List[RunObservation] = []
                for task_id in range(first, next_task):
                    if res.runs >= self.max_runs:
                        exhausted = False
                        stopped = True
                        break
                    payload = results[task_id]
                    res.runs += 1
                    res.steps += payload["steps"]
                    if payload["cut"] is not None:
                        if payload["cut"] == "depth":
                            res.cut_depth += 1
                            exhausted = False
                        else:
                            res.pruned_sleep += 1
                    if payload["deadlocked"]:
                        footprint = tuple(sorted(
                            tuple(pair) for pair in payload["footprint"]))
                        trace = ScheduleTrace(payload["schedule"], meta={
                            "scenario": self.scenario,
                            "backend": payload["backend_name"],
                            "outcome": "deadlock",
                        })
                        res.deadlocks.append(
                            DeadlockFinding(trace, None, footprint))
                        if footprint not in seen:
                            seen.add(footprint)
                            res.unique_deadlocks += 1
                    elif payload["completed"]:
                        res.completed += 1
                    observations.append(
                        _observation_from_payload(payload["observation"]))
                if stopped:
                    break
                wave = [FrontierNode(choices=choices, sleep_at=dict(sleep_at))
                        for choices, sleep_at
                        in admit_wave(book, observations)]
            res.exhausted = exhausted and not wave
            return res

        return self._with_board(spec, drive)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI worker entry: ``python -m repro.sim.parexplore SPOOL_DIR``.

    CI jobs that want full process isolation (no fork from the test
    runner) start workers through this entry point against a shared
    spool directory.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="exploration worker: pull subtree tasks from a spool "
                    "directory until the board is closed")
    parser.add_argument("root", help="spool directory (see FileTaskBoard)")
    options = parser.parse_args(argv)
    _file_worker_main(options.root)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
