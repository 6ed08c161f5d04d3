"""Invitations to deadlock: synchronized collections (paper Table 2).

Two threads call ``v1.add_all(v2)`` and ``v2.add_all(v1)`` on synchronized
vectors — perfectly legal API usage that deadlocks inside the library.
The example explores every interleaving of that program (the library's
own code, run as thread programs on the simulator): unprotected some of
them deadlock; Dimmunix learns their signature, and with it none does.
It then installs the learned history in an engine on real threads to show
that the avoidance is fine grained: the same method running on an
unrelated pair of vectors is not serialized at all.

Run it with::

    python examples/jdk_collections.py
"""

from __future__ import annotations

import threading

from repro import Dimmunix, DimmunixConfig
from repro.apps import MiniApp, SyncVector
from repro.instrument import InstrumentationRuntime
from repro.sim import ImmunityChecker
from repro.workloads.exploits import exploit_by_name


def main() -> None:
    exploit = exploit_by_name("jdk-vector")
    report = ImmunityChecker(exploit.scenario, name=exploit.name).check()
    vulnerable, immune = report.vulnerable, report.immune
    print("addAll/addAll on the same pair, every interleaving:")
    print(f"  deadlocks in {vulnerable.deadlock_count} of {vulnerable.runs} interleavings"
          f" -> {report.learned_signatures} signature(s)"
          f" -> {immune.deadlock_count} of {immune.runs}")
    assert report.holds

    print("\nReal threads, learned history installed: unrelated vectors are NOT "
          "serialized (finer grain than gate locks)")
    engine = Dimmunix(DimmunixConfig(monitor_interval=0.02), history=report.history)
    engine.start()
    app = MiniApp(runtime=InstrumentationRuntime(engine))
    v3 = SyncVector(app, [1])
    v4 = SyncVector(app, [2])
    t = threading.Thread(target=lambda: v3.add_all(v4))
    t.start()
    v4_size = v4.add_all(SyncVector(app, [3]))
    t.join()
    print(f"  extra yields caused: {engine.stats.yield_decisions} "
          f"(v4 now has {v4_size} items)")
    engine.stop()


if __name__ == "__main__":
    main()
