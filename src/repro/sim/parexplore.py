"""Parallel schedule exploration across OS worker processes.

The search loop lives in :class:`~repro.sim.explore.Explorer` and takes
the *wave runner* as an argument: something that turns a wave of
:class:`~repro.sim.explore.FrontierNode` objects into one
:class:`~repro.sim.explore.RunRecord` per node, in node order.  This
module supplies a runner that publishes contiguous slices of the wave as
tasks, lets worker processes execute them, and yields the returned
records back in node order.  Admission, accounting and the run budget
stay in the one loop, so for either strategy the
:meth:`~repro.sim.explore.ExplorationResult.canonical` form is
*byte-identical* to the serial one — worker count is an implementation
detail, not an observable.

Coordination follows the ``share`` package's channel idiom (PR 5): a
*task board* is an append-only list of tasks plus an append-only map of
results, with two transports —

* :class:`MemoryTaskBoard` — in-process, deterministic; workers drain it
  inline.  Used by tests to exercise the slice/claim/reassemble protocol
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
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from itertools import count
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.errors import SimulationError
from .backends import backend_from_spec, backend_spec
from .explore import (ExplorationResult, Explorer, FrontierNode, RunRecord,
                      SCENARIOS)

_POLL_INTERVAL = 0.002

#: A wave is cut into at most this many slices per worker: enough that an
#: uneven slice does not idle the pool, few enough that the task traffic
#: of a wave grows with the worker count and not with the wave.
_SLICES_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Task boards (the coordination transports)
# ---------------------------------------------------------------------------

class TaskBoard:
    """Append-only task list + result map shared by a parent and workers.

    Tasks are ``(task_id, payload)`` pairs; each is claimed by exactly
    one worker.  ``close()`` announces that no further tasks will ever be
    published, which is how workers distinguish "queue momentarily
    empty" (keep polling — tasks are published wave by wave) from "done".
    """

    def publish(self, task_id: int, payload: Dict) -> None:
        raise NotImplementedError

    def claim(self) -> Optional[Tuple[int, Dict]]:
        raise NotImplementedError

    def finish(self, task_id: int, payload: Dict) -> None:
        raise NotImplementedError

    def result(self, task_id: int) -> Optional[Dict]:
        """The finished result of one task, or ``None`` while it is pending."""
        raise NotImplementedError

    def results(self) -> Dict[int, Dict]:
        """Every finished result so far (a whole-board read)."""
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

    def result(self, task_id: int) -> Optional[Dict]:
        with self._lock:
            return self._results.get(task_id)

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

    def result(self, task_id: int) -> Optional[Dict]:
        try:
            with open(os.path.join(self._results, f"{task_id:08d}.json"),
                      encoding="utf-8") as stream:
                return json.load(stream)
        except FileNotFoundError:
            return None

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
        raise SimulationError(
            f"unknown scenario {scenario!r} (parallel exploration ships "
            f"scenarios by registry name; known: {sorted(SCENARIOS)})")
    prototype = backend_from_spec(spec.get("backend"))
    factory = lambda: SCENARIOS[scenario](prototype.fork())  # noqa: E731
    return Explorer(factory, name=scenario,
                    max_runs=spec.get("max_runs", 10_000),
                    max_depth=spec.get("max_depth"),
                    visible_only=spec.get("visible_only", True),
                    strategy=spec.get("strategy"))


def _run_slice(explorer: Explorer, task: Dict) -> Dict:
    """Run a slice of a wave; a failing node ends it with an error record."""
    records = []
    for payload in task["nodes"]:
        node = FrontierNode.from_dict(payload)
        try:
            records.append(explorer._run_node(node).to_dict())
        except Exception as exc:  # the parent re-raises it, naming the node
            return {"error": {"type": type(exc).__name__, "message": str(exc),
                              "choices": list(node.choices)}}
    return {"records": records}


def run_worker(board: TaskBoard, spec: Dict,
               poll_interval: float = _POLL_INTERVAL,
               drain: bool = False) -> int:
    """Pull tasks from ``board`` until it is closed; returns tasks done.

    With ``drain=True`` the loop instead stops at the first empty poll
    (the inline memory-transport execution, where nobody refills the
    board while the worker holds the thread).
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
        board.finish(task_id, _run_slice(explorer, task))
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
    slice/claim/reassemble path, which is what the equivalence tests pin.

    The contract: :meth:`explore`'s result has the same
    :meth:`~repro.sim.explore.ExplorationResult.canonical` form as
    ``Explorer(...).explore()`` with the same strategy and bounds,
    for every worker count.
    """

    def __init__(self, scenario: str, *, backend=None, workers: int = 4,
                 strategy: Optional[str] = None, max_runs: int = 10_000,
                 max_depth: Optional[int] = None, visible_only: bool = True,
                 transport: str = "file", spool_dir: Optional[str] = None):
        if transport not in ("file", "memory"):
            raise SimulationError(
                f"unknown transport {transport!r} (expected 'file' or 'memory')")
        if workers < 1:
            raise SimulationError("workers must be >= 1")
        if backend is not None and not isinstance(backend, dict):
            backend = backend_spec(backend)
        self.workers = workers
        self.transport = transport
        self.spool_dir = spool_dir
        #: What a worker needs to rebuild the explorer in its own process.
        self.spec = {"scenario": scenario, "backend": backend,
                     "strategy": strategy, "max_runs": max_runs,
                     "max_depth": max_depth, "visible_only": visible_only}
        #: The parent's own copy: it owns the search loop and validates
        #: scenario and strategy exactly as a serial explorer would.
        self.explorer = _worker_explorer(self.spec)

    @contextmanager
    def _board(self) -> Iterator[Tuple[TaskBoard, Callable[[int], Dict]]]:
        """Open a board with its workers; yields ``(board, wait)``.

        ``wait(task_id)`` blocks until that task's result exists and
        returns it, reading it once; with the memory transport it first
        drains the board inline (the deterministic execution of the same
        protocol).
        """
        if self.transport == "memory":
            board: TaskBoard = MemoryTaskBoard()

            def wait(task_id: int) -> Dict:
                payload = board.result(task_id)
                if payload is None:
                    run_worker(board, self.spec, drain=True)
                    payload = board.result(task_id)
                if payload is None:
                    raise SimulationError(
                        f"task board lost the result of task {task_id}")
                return payload

            try:
                yield board, wait
            finally:
                board.close()
            return

        root = self.spool_dir or tempfile.mkdtemp(prefix="parexplore-")
        board = FileTaskBoard(root)
        board.write_spec(self.spec)
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        processes = [
            context.Process(target=_file_worker_main, args=(root,),
                            daemon=True)
            for _ in range(self.workers)]
        for process in processes:
            process.start()

        def wait(task_id: int) -> Dict:
            while True:
                payload = board.result(task_id)
                if payload is not None:
                    return payload
                codes = [process.exitcode for process in processes]
                if any(codes) or None not in codes:
                    raise SimulationError(
                        f"exploration workers exited (exit codes {codes}) "
                        f"with task {task_id} outstanding")
                time.sleep(_POLL_INTERVAL)

        try:
            yield board, wait
        finally:
            board.close()
            for process in processes:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
            if self.spool_dir is None:
                shutil.rmtree(root, ignore_errors=True)

    def explore(self) -> ExplorationResult:
        """Explore the scenario's bounded tree across the worker pool."""
        started = time.perf_counter()
        task_ids = count()
        with self._board() as (board, wait):

            def run_wave(wave: List[FrontierNode]) -> Iterator[RunRecord]:
                size = -(-len(wave) // (_SLICES_PER_WORKER * self.workers))
                published = []
                for start in range(0, len(wave), size):
                    published.append(next(task_ids))
                    board.publish(published[-1], {"nodes": [
                        node.to_dict() for node in wave[start:start + size]]})
                for task_id in published:
                    yield from _slice_records(wait(task_id))

            result = self.explorer._search(self.explorer._admission(),
                                           run_wave)
        result.strategy = f"{result.strategy}+parallel-{self.workers}"
        result.elapsed = time.perf_counter() - started
        return result


def _slice_records(payload: Dict) -> List[RunRecord]:
    """A slice's result as records; raises what the worker reported."""
    error = payload.get("error")
    if error is not None:
        raise SimulationError(
            f"exploration worker failed on node {error['choices']}: "
            f"{error['type']}: {error['message']}")
    return [RunRecord.from_dict(record) for record in payload["records"]]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI worker entry: ``python -m repro.sim.parexplore SPOOL_DIR``.

    CI jobs that want full process isolation (no fork from the test
    runner) start workers through this entry point against a shared
    spool directory.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="exploration worker: pull wave-slice tasks from a spool "
                    "directory until the board is closed")
    parser.add_argument("root", help="spool directory (see FileTaskBoard)")
    options = parser.parse_args(argv)
    _file_worker_main(options.root)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
