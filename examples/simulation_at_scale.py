"""Deterministic simulation at scale: 512 dining philosophers.

The simulator runs the same avoidance engine as the real-thread
instrumentation but on virtual time, which makes large-scale and otherwise
flaky scenarios exactly reproducible.  This example:

1. lets 512 philosophers deadlock (a cycle involving many threads),
2. shows the archived signature,
3. re-runs the same scenario immune, counting how many yields were needed.

Run it with::

    python examples/simulation_at_scale.py
"""

from __future__ import annotations

from repro.core.config import DimmunixConfig
from repro.sim import DimmunixBackend, SimScheduler, philosopher_program


PHILOSOPHERS = 512


def build_table(backend, seed: int = 0, meals: int = 1) -> SimScheduler:
    scheduler = SimScheduler(backend=backend, seed=seed)
    forks = [scheduler.new_lock(f"fork-{i}") for i in range(PHILOSOPHERS)]
    for seat in range(PHILOSOPHERS):
        left = forks[seat]
        right = forks[(seat + 1) % PHILOSOPHERS]
        scheduler.add_thread(philosopher_program(left, right, seat,
                                                 think_time=0.0,
                                                 eat_time=0.001, meals=meals))
    return scheduler


def main() -> None:
    print(f"{PHILOSOPHERS} dining philosophers, everyone grabs the left fork first.\n")

    print("Run 1: no immunity — the classic cyclic deadlock")
    backend = DimmunixBackend(config=DimmunixConfig.for_testing(detection_only=True))
    result = build_table(backend).run()
    print(f"  deadlocked        : {result.deadlocked}")
    print(f"  meals completed   : {result.completed_threads}/{result.total_threads}")
    print(f"  signatures saved  : {len(backend.history)}")
    for signature in backend.history.signatures():
        print(f"  signature         : {signature.fingerprint} "
              f"({signature.size} call stacks, kind={signature.kind})")

    print("\nRun 2: immune (same history)")
    immune_backend = DimmunixBackend(config=DimmunixConfig.for_testing(),
                                     history=backend.history)
    result = build_table(immune_backend).run()
    stats = result.backend_stats
    print(f"  deadlocked        : {result.deadlocked}")
    print(f"  meals completed   : {result.completed_threads}/{result.total_threads}")
    print(f"  yields performed  : {stats.get('yield_decisions')}")
    print(f"  starvations broken: {stats.get('starvations_broken')}")
    print(f"  lock operations   : {result.lock_ops}")


if __name__ == "__main__":
    main()
