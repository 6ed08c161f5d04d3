"""A miniature background task queue (Limewire / HsqlDB analogue).

Limewire 4.17.9 bug #1449 is a deadlock between HsqlDB's ``TaskQueue``
cancel path and its ``shutdown()``: cancelling a task locks the task and
then the queue (to remove the task from the schedule), while shutdown
locks the queue and then each task (to interrupt it).  The paper reports
two deadlock patterns of depth 10 for this bug — the second pattern comes
from the periodic *run* path, which also nests task-then-queue when a
completed task unschedules itself.

The queue otherwise works: tasks can be scheduled, run, and complete.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from .base import MiniApp


class Task:
    """One scheduled task."""

    _ids = itertools.count(1)

    def __init__(self, queue: "TaskQueue", action: Optional[Callable[[], None]] = None,
                 periodic: bool = False):
        self.task_id = next(Task._ids)
        self.queue = queue
        self.action = action
        self.periodic = periodic
        self.lock = queue.make_rlock(f"task-{self.task_id}")
        self.cancelled = False
        self.runs = 0

    def cancel(self) -> bool:
        """Cancel the task: locks the task, then the queue (pattern 1)."""
        with self.queue.holding(self.lock, "Task.cancel"):
            self.cancelled = True
            with self.queue.holding(self.queue.lock, "Task.cancel"):
                return self.queue._unschedule(self)

    def run_once(self) -> bool:
        """Execute the task; a non-periodic task unschedules itself afterwards
        while still holding its own lock (pattern 2)."""
        with self.queue.holding(self.lock, "Task.run_once"):
            if self.cancelled:
                return False
            if self.action is not None:
                self.action()
            self.runs += 1
            if not self.periodic:
                with self.queue.holding(self.queue.lock, "Task.run_once"):
                    self.queue._unschedule(self)
            return True


class TaskQueue(MiniApp):
    """The scheduler: a queue lock plus per-task locks."""

    def __init__(self, runtime=None, acquire_timeout: Optional[float] = None):
        super().__init__(runtime=runtime, acquire_timeout=acquire_timeout)
        self.lock = self.make_rlock("taskqueue")
        self.tasks: Dict[int, Task] = {}
        self.shut_down = False

    # -- scheduling -----------------------------------------------------------------------

    def schedule(self, action: Optional[Callable[[], None]] = None,
                 periodic: bool = False) -> Task:
        """Create and register a task (queue lock only)."""
        task = Task(self, action=action, periodic=periodic)
        with self.holding(self.lock, "TaskQueue.schedule"):
            if self.shut_down:
                raise RuntimeError("task queue already shut down")
            self.tasks[task.task_id] = task
        return task

    def pending(self) -> List[Task]:
        """Tasks still scheduled."""
        with self.holding(self.lock, "TaskQueue.pending"):
            return list(self.tasks.values())

    def _unschedule(self, task: Task) -> bool:
        # Caller must hold the queue lock.
        return self.tasks.pop(task.task_id, None) is not None

    # -- the deadlock-prone shutdown -----------------------------------------------------------

    def shutdown(self) -> int:
        """Stop the queue: locks the queue, then every task to interrupt it —
        the opposite nesting of :meth:`Task.cancel` / :meth:`Task.run_once`."""
        with self.holding(self.lock, "TaskQueue.shutdown"):
            stopped = 0
            for task in list(self.tasks.values()):
                with self.holding(task.lock, "TaskQueue.shutdown"):
                    task.cancelled = True
                    stopped += 1
            self.tasks.clear()
            self.shut_down = True
            return stopped
