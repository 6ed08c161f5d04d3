"""A message broker that becomes immune to an ActiveMQ-style deadlock.

The mini broker reproduces ActiveMQ bug #575: ``Queue.drop_event()`` locks
the queue and then the subscription while ``PrefetchSubscription.add()``
(and its acknowledgement path, ``remove()``) locks them in the opposite
order.  The example:

1. runs a normal produce/dispatch/acknowledge workload (no deadlock),
2. explores every interleaving of the racing operations (the broker's own
   code, run as thread programs on the simulator): some deadlock, and
   Dimmunix learns a signature per deadlock pattern until none does,
3. serves the normal workload again on real threads with the learned
   history installed, with negligible impact.

Run it with::

    python examples/message_broker.py
"""

from __future__ import annotations

import threading
import time

from repro import Dimmunix, DimmunixConfig
from repro.apps import Broker
from repro.instrument import InstrumentationRuntime
from repro.sim import ImmunityChecker
from repro.workloads.exploits import exploit_by_name


def serve_workload(broker: Broker, workers: int = 4, cycles: int = 5) -> float:
    """Run the normal produce/dispatch/ack workload; returns ops/second."""
    done = []

    def worker(index: int) -> None:
        total = 0
        for _ in range(cycles):
            total += broker.produce_consume_cycle(f"tenant-{index}", messages=8)
        done.append(total)

    started = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return sum(done) / elapsed


def main() -> None:
    print("Phase 1: normal operation (no deadlock, nothing to avoid)")
    dimmunix = Dimmunix(DimmunixConfig(monitor_interval=0.02))
    dimmunix.start()
    broker = Broker(runtime=InstrumentationRuntime(dimmunix))
    print(f"  workload throughput: {serve_workload(broker):.0f} acks/s")
    dimmunix.stop()

    print("\nPhase 2: the ActiveMQ #575 race, every interleaving")
    exploit = exploit_by_name("activemq-575")
    report = ImmunityChecker(exploit.scenario, name=exploit.name).check()
    vulnerable, immune = report.vulnerable, report.immune
    print(f"  deadlocks in {vulnerable.deadlock_count} of {vulnerable.runs} interleavings"
          f" -> {report.learned_signatures} signature(s)"
          f" -> {immune.deadlock_count} of {immune.runs}")
    for signature in report.history.signatures():
        print(f"  archived signature : {signature.fingerprint} "
              f"({signature.size} threads)")
    assert report.holds

    print("\nPhase 3: same broker code on real threads, learned history installed")
    immune_engine = Dimmunix(DimmunixConfig(monitor_interval=0.02), history=report.history)
    immune_engine.start()
    broker = Broker(runtime=InstrumentationRuntime(immune_engine))
    throughput = serve_workload(broker)
    print(f"  workload throughput: {throughput:.0f} acks/s (still serving)")
    immune_engine.stop()


if __name__ == "__main__":
    main()
