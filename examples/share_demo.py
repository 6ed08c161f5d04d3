"""The cross-deployment immunity proof: N real processes, one deadlock.

This script is both the CI smoke workload and a runnable demo of the
paper's section 6 story.  The orchestrator

1. stands up a signature pool (a ``histctl serve`` daemon for the
   ``unix``/``tcp`` transports, a shared log file for ``file``),
2. runs **worker A** — a fresh process with an empty history executing a
   deadlock-prone two-lock program.  A deadlocks; its monitor detects
   the cycle, archives the signature, and the pool receives it before A
   exits,
3. waits until the pool holds the signature,
4. fans out **workers B..N** — fresh processes that never saw the
   deadlock.  Each attaches to the pool, installs A's signature on
   sync, runs the *same* program, and completes without deadlocking,
5. asserts that exactly one process (A) ever deadlocked and that every
   worker's history converged to the same pooled signature set.

Run it yourself (bare, it runs the ``run`` story over the daemon with
three workers)::

    PYTHONPATH=src python examples/share_demo.py
    PYTHONPATH=src python examples/share_demo.py run --transport file --workers 4

**Fleet mode** scales the same story to multiple simulated "hosts" — a
host being a group of workers behind one local pool endpoint — over the
gossip mesh::

    PYTHONPATH=src python examples/share_demo.py fleet \\
        --workers 50 --hosts 3 --timeline timeline.json

It stands up one long-lived seed node per host (``histctl serve
gossip://...``, fully meshed); every worker binds an ephemeral gossip
port peered with its host's seed.  Worker A deadlocks on host 0, the
signature crosses hosts, and every other worker — most on hosts that
never saw the deadlock — is immune on its first run.  The finale proves
fleet-wide *retraction*: a long-lived sentinel worker watches the pool
while the orchestrator issues ``histctl disable --share``, and the
sentinel observes its own live history disable the signature without
restarting.  ``--timeline`` writes a convergence-timeline JSON artifact
(who learned what, when).

Worker and sentinel processes are this script again, spawned through
its own path.  Exit code 0 means the immunity story held end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import Dimmunix, DimmunixConfig
from repro.instrument.locks import DimmunixLock
from repro.instrument.runtime import InstrumentationRuntime
from repro.share import open_channel
from repro.tools import histctl

#: How long a worker waits on each lock before declaring itself deadlocked
#: (stands in for the restart a production deployment would perform).
LOCK_TIMEOUT = 1.5
#: Overlap window forcing the two threads to interleave dangerously.
PROVOKE_DELAY = 0.3
#: This script, which worker and sentinel processes run again.
SCRIPT = os.path.abspath(__file__)


def _deadlock_prone_program(runtime: InstrumentationRuntime) -> Dict:
    """Two threads taking locks A and B in opposite order (paper section 4)."""
    lock_a = DimmunixLock(runtime=runtime, name="A")
    lock_b = DimmunixLock(runtime=runtime, name="B")
    outcome = {"deadlocked": False, "completed": 0}
    ready = [threading.Event(), threading.Event()]

    def update(first, second, my_index):
        if not first.acquire(timeout=LOCK_TIMEOUT):
            outcome["deadlocked"] = True
            return
        try:
            ready[my_index].set()
            ready[1 - my_index].wait(PROVOKE_DELAY)
            if not second.acquire(timeout=LOCK_TIMEOUT):
                outcome["deadlocked"] = True
                return
            try:
                outcome["completed"] += 1
            finally:
                second.release()
        finally:
            first.release()

    threads = [
        threading.Thread(target=update, args=(lock_a, lock_b, 0), name="w1"),
        threading.Thread(target=update, args=(lock_b, lock_a, 1), name="w2"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcome


def run_worker(share: str, worker_id: str,
               expect_immunity: bool = False,
               sync_timeout: float = 10.0) -> Dict:
    """One worker process: join the pool, run the buggy program, report."""
    config = DimmunixConfig(monitor_interval=0.02)
    dimmunix = Dimmunix(config=config, share=share)
    dimmunix.start()
    synced = len(dimmunix.history) > 0
    if expect_immunity and not synced:
        # The orchestrator only starts B..N once the pool holds A's
        # signature, so waiting here guards against slow transports, not
        # against a logically empty pool.
        deadline = time.monotonic() + sync_timeout
        while time.monotonic() < deadline:
            dimmunix.share_pool.pump()
            if len(dimmunix.history) > 0:
                synced = True
                break
            time.sleep(0.02)
    runtime = InstrumentationRuntime(dimmunix)
    outcome = _deadlock_prone_program(runtime)
    report = dimmunix.report()
    dimmunix.stop()
    return {
        "worker": worker_id,
        "deadlocked": outcome["deadlocked"],
        "completed": outcome["completed"],
        "synced_before_run": synced,
        "yields": report["stats"].get("yield_decisions", 0),
        "signatures": report["history_size"],
        "share": report.get("share", {}),
    }


def run_sentinel(share: str, worker_id: str = "sentinel",
                 appear_timeout: float = 20.0,
                 disable_timeout: float = 30.0) -> Dict:
    """A long-lived worker proving live fleet-wide disable propagation.

    Joins the pool, waits for an *enabled* signature, prints
    ``SENTINEL_READY`` (the orchestrator's cue to issue the disable),
    then keeps running until its own live history shows every signature
    disabled — without restarting, resyncing, or touching the engine.
    """
    config = DimmunixConfig(monitor_interval=0.02)
    dimmunix = Dimmunix(config=config, share=share)
    dimmunix.start()
    saw = False
    deadline = time.monotonic() + appear_timeout
    while time.monotonic() < deadline:
        dimmunix.share_pool.pump()
        if any(not sig.disabled for sig in dimmunix.history.signatures()):
            saw = True
            break
        time.sleep(0.02)
    disabled_live = False
    if saw:
        print("SENTINEL_READY", flush=True)
        deadline = time.monotonic() + disable_timeout
        while time.monotonic() < deadline:
            dimmunix.share_pool.pump()
            signatures = dimmunix.history.signatures()
            if signatures and all(sig.disabled for sig in signatures):
                disabled_live = True
                break
            time.sleep(0.02)
    report = dimmunix.report()
    dimmunix.stop()
    return {
        "worker": worker_id,
        "saw_signature": saw,
        "disabled_live": disabled_live,
        "controls_applied": report.get("share", {}).get(
            "controls_applied", 0),
    }


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _spawn(role: str, share: str, worker_id: str,
           *flags: str) -> subprocess.Popen:
    """This script again, as a ``worker`` or ``sentinel`` process."""
    return subprocess.Popen(
        [sys.executable, SCRIPT, role, "--share", share, "--id", worker_id,
         *flags], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _spawn_worker(share: str, worker_id: str,
                  expect_immunity: bool) -> subprocess.Popen:
    return _spawn("worker", share, worker_id,
                  *(["--expect-immunity"] if expect_immunity else []))


def _collect(process: subprocess.Popen, worker_id: str,
             timeout: float = 60.0) -> Dict:
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit(f"worker {worker_id} hung")
    if process.returncode != 0:
        raise SystemExit(f"worker {worker_id} failed "
                         f"(rc={process.returncode}):\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def _serve(spec: str) -> Tuple[subprocess.Popen, str]:
    """A ``histctl serve SPEC`` process, once reachable, and the spec it serves."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.histctl", "serve", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    served = process.stdout.readline().split()
    if served[:1] != ["serving"]:
        process.kill()
        raise SystemExit(f"histctl serve {spec} failed: "
                         f"{process.communicate()[1]}")
    return process, served[1]


def _stop(processes: List[subprocess.Popen]) -> None:
    for process in processes:
        process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()


def _free_tcp_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _wait_for_pool(share: str, minimum: int, timeout: float) -> str:
    """Block until the pool holds ``minimum`` signatures; returns one fingerprint."""
    channel = open_channel(share)
    try:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                records = channel.snapshot()[0]
            except Exception:
                records = []
            if len(records) >= minimum:
                return records[0]["fingerprint"]
            time.sleep(0.05)
        raise SystemExit(
            f"pool at {share} never reached {minimum} signature(s)")
    finally:
        channel.close()


def run_demo(transport: str, workers: int, workdir: str,
             verbose: bool = True) -> Dict:
    """Execute the full story; returns the summary dict (raises on failure)."""

    def say(message: str) -> None:
        if verbose:
            print(message, flush=True)

    daemons: List[subprocess.Popen] = []
    if transport == "file":
        share = "file://" + os.path.join(workdir, "pool.sig")
    elif transport in ("unix", "tcp"):
        daemon, share = _serve(
            "unix://" + os.path.join(workdir, "pool.sock")
            if transport == "unix" else "tcp://127.0.0.1:0")
        daemons.append(daemon)
        say(f"[demo] history daemon serving {share}")
    else:
        raise SystemExit(f"unknown transport {transport!r}")

    try:
        say(f"[demo] worker A: empty history, deadlock-prone program "
            f"({transport} pool)")
        result_a = _collect(_spawn_worker(share, "A", False), "A")
        say(f"[demo]   -> deadlocked={result_a['deadlocked']} "
            f"signatures={result_a['signatures']}")
        _wait_for_pool(share, minimum=1, timeout=10.0)
        say("[demo] pool converged")

        names = [chr(ord("B") + index) for index in range(workers - 1)]
        say(f"[demo] workers {', '.join(names)}: fresh processes, "
            f"first run each")
        spawned = [(name, _spawn_worker(share, name, True)) for name in names]
        results = [result_a] + [_collect(proc, name)
                                for name, proc in spawned]
    finally:
        _stop(daemons)

    deadlocked = [r["worker"] for r in results if r["deadlocked"]]
    immune = [r for r in results if not r["deadlocked"]]
    sizes = sorted({r["signatures"] for r in results})
    for result in results:
        say(f"[demo]   worker {result['worker']}: "
            f"deadlocked={result['deadlocked']} yields={result['yields']} "
            f"signatures={result['signatures']} "
            f"completed={result['completed']}/2")

    if deadlocked != ["A"]:
        raise SystemExit(
            f"expected exactly worker A to deadlock, got {deadlocked or 'none'}")
    if len(immune) != workers - 1:
        raise SystemExit("some immunized worker deadlocked")
    for result in immune:
        if result["signatures"] < 1:
            raise SystemExit(
                f"worker {result['worker']} never received the signature")
        if result["completed"] != 2:
            raise SystemExit(
                f"worker {result['worker']} did not complete both threads")
    say(f"[demo] OK: 1 deadlock ({workers - 1} immune first runs), "
        f"history sizes {sizes}")
    return {"transport": transport, "workers": workers, "results": results}


# ---------------------------------------------------------------------------
# Fleet mode: N workers x M simulated hosts on a gossip mesh
# ---------------------------------------------------------------------------


def run_fleet(workers: int, hosts: int,
              timeline_path: Optional[str] = None,
              batch_size: int = 10, verbose: bool = True) -> Dict:
    """The multi-host story; returns the summary dict (raises on failure).

    Worker A deadlocks on host 0; every host's seed converges; the
    remaining ``workers - 1`` processes run immune, spread round-robin
    across ``hosts``; finally a sentinel worker proves a fleet-wide
    ``histctl disable --share`` lands on a *running* worker.
    """

    def say(message: str) -> None:
        if verbose:
            print(message, flush=True)

    started = time.monotonic()
    events: List[Dict] = []

    def mark(event: str, **detail) -> None:
        record = {"t": round(time.monotonic() - started, 3), "event": event}
        record.update(detail)
        events.append(record)

    # One fully meshed seed per host; workers peer with their host's seed.
    ports = [_free_tcp_port() for _ in range(hosts)]
    seeds: List[subprocess.Popen] = []
    try:
        for port in ports:
            peers = ",".join(f"127.0.0.1:{peer}" for peer in ports
                             if peer != port)
            seeds.append(_serve(f"gossip://127.0.0.1:{port}?interval=0.1"
                                + (f"&peers={peers}" if peers else ""))[0])
    except BaseException:
        _stop(seeds)
        raise
    host_specs = [f"gossip://127.0.0.1:0?peers=127.0.0.1:{port}&interval=0.2"
                  for port in ports]
    say(f"[fleet] gossip seeds up on ports {', '.join(map(str, ports))}")
    mark("fabric_up", topology="gossip", hosts=hosts)

    try:
        say("[fleet] worker A on host 0: empty history, deadlock-prone "
            "program")
        result_a = _collect(_spawn_worker(host_specs[0], "A", False), "A",
                            timeout=90.0)
        if not result_a["deadlocked"]:
            raise SystemExit("worker A did not deadlock")
        mark("first_deadlock", worker="A", host=0)

        for index, spec in enumerate(host_specs):
            fingerprint = _wait_for_pool(spec, minimum=1, timeout=30.0)
            mark("host_converged", host=index)
            say(f"[fleet] host {index} pool holds the signature")

        names = [f"w{index:02d}" for index in range(workers - 1)]
        results = [result_a]
        batch_size = max(1, batch_size)
        for start in range(0, len(names), batch_size):
            batch = names[start:start + batch_size]
            spawned = []
            for offset, name in enumerate(batch):
                host = (start + offset) % hosts
                spawned.append((name, host,
                                _spawn_worker(host_specs[host], name, True)))
            for name, host, process in spawned:
                result = _collect(process, name, timeout=90.0)
                result["host"] = host
                mark("worker_done", worker=name, host=host,
                     deadlocked=result["deadlocked"],
                     synced=result["synced_before_run"])
                results.append(result)
            say(f"[fleet] batch {start // batch_size}: "
                f"{len(batch)} worker(s) done "
                f"({sum(1 for r in results if not r['deadlocked'])} immune "
                f"so far)")

        deadlocked = [r["worker"] for r in results if r["deadlocked"]]
        if deadlocked != ["A"]:
            raise SystemExit(f"expected exactly worker A to deadlock, "
                             f"got {deadlocked or 'none'}")
        for result in results[1:]:
            if result["signatures"] < 1:
                raise SystemExit(f"worker {result['worker']} never received "
                                 "the signature")
            if result["completed"] != 2:
                raise SystemExit(f"worker {result['worker']} did not "
                                 "complete both threads")
        say(f"[fleet] OK: 1 deadlock, {workers - 1} immune first runs "
            f"across {hosts} hosts")

        # Finale: fleet-wide retraction reaching a live worker.
        say("[fleet] sentinel: proving live disable propagation")
        sentinel = _spawn("sentinel", host_specs[-1], "sentinel")
        ready = sentinel.stdout.readline().strip()
        if ready != "SENTINEL_READY":
            sentinel.kill()
            _, stderr = sentinel.communicate()
            raise SystemExit(
                f"sentinel never saw the signature: {ready!r}\n{stderr}")
        mark("sentinel_ready")
        if histctl.main(["disable", "--share", host_specs[0],
                         fingerprint]) != 0:
            sentinel.kill()
            raise SystemExit("histctl disable --share failed")
        mark("disable_issued", fingerprint=fingerprint)
        sentinel_result = _collect(sentinel, "sentinel", timeout=60.0)
        if not sentinel_result["disabled_live"]:
            raise SystemExit(
                "sentinel did not observe the live disable")
        mark("sentinel_disabled_live")
        say("[fleet] OK: histctl disable --share reached a running worker")
    finally:
        _stop(seeds)

    summary = {"topology": "gossip", "workers": workers, "hosts": hosts,
               "duration": round(time.monotonic() - started, 3),
               "events": events, "results": results,
               "sentinel": sentinel_result}
    if timeline_path:
        with open(timeline_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        say(f"[fleet] convergence timeline written to {timeline_path}")
    return summary


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Cross-deployment immunity demo (paper section 6); "
                    "with no command, runs the 'run' story.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="orchestrate the N-process story")
    p_run.add_argument("--transport", choices=("unix", "tcp", "file"),
                       default="unix")
    p_run.add_argument("--workers", type=int, default=3,
                       help="total processes incl. the one that deadlocks")

    p_fleet = sub.add_parser(
        "fleet", help="multi-host convergence story over the gossip mesh")
    p_fleet.add_argument("--workers", type=int, default=12,
                         help="total worker processes incl. the deadlocker")
    p_fleet.add_argument("--hosts", type=int, default=3,
                         help="simulated hosts (gossip seeds)")
    p_fleet.add_argument("--batch", type=int, default=10,
                         help="worker processes spawned concurrently")
    p_fleet.add_argument("--timeline", metavar="FILE", default=None,
                         help="write the convergence-timeline JSON here")

    for role in ("worker", "sentinel"):
        p_role = sub.add_parser(role, help=f"internal: one {role} process")
        p_role.add_argument("--share", required=True)
        p_role.add_argument("--id", default=role)
        p_role.add_argument("--expect-immunity", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in ("worker", "sentinel"):
        result = (run_worker(args.share, args.id, args.expect_immunity)
                  if args.command == "worker"
                  else run_sentinel(args.share, args.id))
        print(json.dumps(result, sort_keys=True))
        return 0
    if args.command == "fleet":
        if args.workers < 2 or args.hosts < 1:
            print("need at least 2 workers and 1 host", file=sys.stderr)
            return 2
        run_fleet(args.workers, args.hosts, timeline_path=args.timeline,
                  batch_size=args.batch)
        return 0
    transport = getattr(args, "transport", "unix")
    workers = getattr(args, "workers", 3)
    if workers < 2:
        print("need at least 2 workers", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="dimmunix-demo-") as workdir:
        run_demo(transport, workers, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
