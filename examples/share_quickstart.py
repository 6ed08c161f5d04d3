"""Share quickstart: one deadlock immunizes a whole fleet of processes.

The paper's section 6 deployment story, runnable on a laptop:

* Worker A — a real OS process with an *empty* history — runs a
  deadlock-prone program and deadlocks.  Its monitor archives the
  signature and publishes it into a shared signature pool before the
  process exits.
* Workers B and C — fresh processes that never saw the deadlock —
  join the same pool, install A's signature on sync, run the *same*
  program, and complete without deadlocking.  First run, already immune.

The pool here is the serverless shared-file transport (an append-only
signature log with advisory locking); swap ``file`` for ``unix`` or
``tcp`` to run the same story through the history daemon.  The
orchestration is ``share_demo.py``, beside this file.  Run it with::

    PYTHONPATH=src python examples/share_quickstart.py
"""

from __future__ import annotations

import tempfile

from share_demo import run_demo


def main() -> None:
    print("Dimmunix history sharing: one deadlock, a fleet immunized.\n")
    with tempfile.TemporaryDirectory(prefix="dimmunix-share-") as workdir:
        summary = run_demo("file", workers=3, workdir=workdir)
    results = {result["worker"]: result for result in summary["results"]}
    assert results["A"]["deadlocked"], "worker A should experience the deadlock"
    assert all(not results[w]["deadlocked"] for w in ("B", "C")), \
        "workers B and C should be immune on their first run"
    print("\nWorker A deadlocked once; every later process was born immune.")


if __name__ == "__main__":
    main()
