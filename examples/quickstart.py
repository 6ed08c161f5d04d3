"""Quickstart: make a deadlock-prone program immune in two runs.

This example reproduces the paper's section 4 scenario with real threads
and plain ``threading.Lock`` objects, through the README's front door,
``repro.immunize()`` / ``handle.stop()``:

* Run 1 — the program deadlocks (two threads lock A and B in opposite
  order); Dimmunix detects the cycle, archives its signature in a history
  file, and the program recovers via a bounded lock timeout (standing in
  for the restart a user would perform).
* Run 2 — the same program, started again with the same history file, no
  longer deadlocks: the thread that would re-create the pattern is made to
  yield until the danger passes.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading

import repro


def buggy_program() -> dict:
    """Two threads calling update(A, B) and update(B, A) concurrently."""
    lock_a, lock_b = threading.Lock(), threading.Lock()
    shared = {"A": 0, "B": 0}
    outcome = {"deadlocked": False, "completed": 0}
    ready = [threading.Event(), threading.Event()]

    def update(first, second, my_index):
        # Acquire the first lock, wait for the other thread to do the same
        # (this is what the paper's timing-loop exploits arrange), then go
        # for the second lock with a bounded wait so a deadlocked run can
        # recover.
        if not first.acquire(timeout=2.0):
            outcome["deadlocked"] = True
            return
        try:
            ready[my_index].set()
            ready[1 - my_index].wait(0.3)
            if not second.acquire(timeout=2.0):
                outcome["deadlocked"] = True
                return
            try:
                shared["A"] += 1
                shared["B"] += 1
                outcome["completed"] += 1
            finally:
                second.release()
        finally:
            first.release()

    threads = [
        threading.Thread(target=update, args=(lock_a, lock_b, 0), name="worker-1"),
        threading.Thread(target=update, args=(lock_b, lock_a, 1), name="worker-2"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcome


def run_once(history_path: str, run_number: int) -> dict:
    handle = repro.immunize(history_path=history_path)
    try:
        outcome = buggy_program()
    finally:
        handle.stop()

    report = handle.report()
    print(f"--- run {run_number} ---")
    print(f"  deadlocked        : {outcome['deadlocked']}")
    print(f"  threads completed : {outcome['completed']} / 2")
    print(f"  yields (avoidance): {report['stats']['yield_decisions']}")
    print(f"  signatures known  : {report['history_size']}")
    for signature in handle.dimmunix.signatures():
        print(f"  signature {signature.fingerprint}: {signature.kind}, "
              f"{signature.size} threads")
    return outcome


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        history_path = os.path.join(workdir, "quickstart.history")
        print("Dimmunix quickstart: the same program, run twice.\n")
        first = run_once(history_path, run_number=1)
        print()
        second = run_once(history_path, run_number=2)
        assert first["deadlocked"], "run 1 should deadlock and learn"
        assert not second["deadlocked"], "run 2 should be immune"
        assert second["completed"] == 2, "both threads should complete in run 2"
        print("\nRun 1 deadlocked and produced a signature; run 2 was immune.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
