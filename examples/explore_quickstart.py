"""Explore-quickstart: the simulator as a model checker, end to end.

Walks the full exploration workflow on the paper's section 4 deadlock:

1. enumerate every interleaving of update(A, B) vs update(B, A)
   under ``NullBackend`` and find the deadlocking schedules;
2. shrink the first counterexample to a minimal schedule trace;
3. save the trace to JSON, reload it, and replay it byte-identically;
4. run the :class:`ImmunityChecker`: seed a Dimmunix history from the
   minimal counterexample and verify that *zero* interleavings
   deadlock once the signature is known.

Run::

    PYTHONPATH=src python examples/explore_quickstart.py [--quick]

``--quick`` tightens the bounds (used by the CI smoke job).
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.sim import (Explorer, ImmunityChecker, NullBackend, ScheduleTrace,
                       build_two_lock_inversion)


def main(quick: bool = False) -> int:
    max_runs = 200 if quick else 5_000

    print("== 1. Exhaustive exploration under NullBackend ==")
    explorer = Explorer(lambda: build_two_lock_inversion(NullBackend()),
                        name="two-lock-inversion", max_runs=max_runs)
    found = explorer.explore()
    print(f"   explored {found.runs} interleavings "
          f"({found.steps} states, exhausted={found.exhausted}): "
          f"{found.deadlock_count} deadlocking, {found.completed} completing")
    assert found.deadlock_count >= 1, "expected at least one deadlock"

    print("== 2. Greedy shrinking of the first counterexample ==")
    original = found.deadlocks[0].trace
    minimal = explorer.shrink(original)
    print(f"   {len(original)} choices -> {len(minimal)}: {minimal.choices}")

    print("== 3. Record/replay round trip ==")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "deadlock.trace.json")
        minimal.save(path)
        reloaded = ScheduleTrace.load(path)
        replayed = explorer.replay(reloaded)
        assert replayed.deadlocked, "replay must reproduce the deadlock"
        assert list(replayed.schedule) == reloaded.choices, "schedule drifted"
        assert reloaded.dumps() == minimal.dumps(), "serialization not stable"
    print(f"   replayed {len(reloaded)} choices byte-identically; "
          f"deadlock reproduced at t={replayed.virtual_time:.6f}")

    print("== 4. Immunity over the whole schedule space ==")
    checker = ImmunityChecker(build_two_lock_inversion,
                              name="two-lock-inversion", max_runs=max_runs)
    report = checker.check()
    for key, value in report.as_dict().items():
        print(f"   {key}: {value}")
    assert report.holds, "immunity claim failed"
    print("   PASS: vulnerable without history, zero deadlocking "
          "interleavings with it")
    return 0


if __name__ == "__main__":
    sys.exit(main(quick="--quick" in sys.argv[1:]))
