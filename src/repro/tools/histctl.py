"""``histctl`` — inspect and manage a Dimmunix signature history file.

The paper describes several operational workflows around the history:
users disabling a signature that causes false positives, vendors shipping
signature files to "patch" deployments without code changes, and merging
histories when distributing immunity.  This small CLI covers them::

    python -m repro.tools.histctl list app.history
    python -m repro.tools.histctl show app.history <fingerprint>
    python -m repro.tools.histctl disable app.history <fingerprint>
    python -m repro.tools.histctl enable app.history <fingerprint>
    python -m repro.tools.histctl remove app.history <fingerprint>
    python -m repro.tools.histctl export app.history signatures.json
    python -m repro.tools.histctl merge app.history vendor-signatures.json

With multi-process history sharing (:mod:`repro.share`) come live
subcommands that operate on a signature *pool* instead of a file::

    python -m repro.tools.histctl serve unix:///run/app/pool.sock --history pool.json
    python -m repro.tools.histctl serve tcp://0.0.0.0:7341
    python -m repro.tools.histctl serve "gossip://0.0.0.0:7400?peers=host2:7400"
    python -m repro.tools.histctl tail unix:///run/app/pool.sock --duration 30
    python -m repro.tools.histctl pool-status file:///shared/pool.sig
    python -m repro.tools.histctl disable --share tcp://pool:7341 <fingerprint>

``serve`` runs a long-lived pool endpoint in the foreground — the
history daemon for a ``unix://`` or ``tcp://`` spec, a gossip seed node
for a ``gossip://`` one — and prints the spec it serves once it is
reachable; ``tail`` prints signatures and controls as the pool learns
them (snapshot first, then live for ``--duration`` seconds);
``pool-status`` asks a daemon, gossip node, or shared log file for its
counters, including anti-entropy state.

``disable`` / ``enable`` / ``remove`` accept ``--share SPEC`` (with or
without a history file): the action travels the pool as a Lamport-
clocked control record and takes effect on every *running* worker — no
restarts — because each worker's pool applies controls live through the
history's observer hooks.

Read-only commands (``list``, ``show``) load the file *leniently*: a
record whose kind (or any other field) this build does not understand —
say, a history written by a newer release with additional resource
kinds — is rendered from its raw JSON instead of aborting the whole
listing.  Mutating commands still refuse to operate on files they cannot
fully parse, because a partial load followed by a save would silently
drop the unparsable records.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.errors import DimmunixError, SignatureError
from ..core.history import History
from ..core.signature import EXCLUSIVE, Signature


@dataclass
class RawRecord:
    """A history record this build could not turn into a :class:`Signature`.

    Rendered from the raw JSON so listings stay complete even for files
    written by newer releases (unknown kinds, future fields).
    """

    kind: str = "?"
    fingerprint: str = "?"
    stacks: List = field(default_factory=list)
    matching_depth: str = "?"
    disabled: str = "?"
    avoidance_count: str = "?"
    error: str = ""


def _load(path: str) -> History:
    return History(path=path)


def _load_lenient(path: str) -> Tuple[List[Signature], List[RawRecord]]:
    """Read a history file, keeping unparsable records as raw rows."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload.get("signatures", []) if isinstance(payload, dict) else []
    if not isinstance(records, list):
        records = []
    signatures: List[Signature] = []
    raw: List[RawRecord] = []
    for record in records:
        try:
            signatures.append(Signature.from_dict(record))
        except SignatureError as exc:
            if not isinstance(record, dict):
                record = {}
            raw.append(RawRecord(
                kind=str(record.get("kind", "?")),
                fingerprint=str(record.get("fingerprint", "?")),
                stacks=record.get("stacks") or [],
                matching_depth=str(record.get("matching_depth", "?")),
                disabled=str(record.get("disabled", "?")),
                avoidance_count=str(record.get("avoidance_count", "?")),
                error=str(exc)))
    return signatures, raw


def _modes_column(signature: Signature) -> str:
    """Compact acquisition-mode summary, e.g. ``excl`` or ``2sh+1ex``."""
    shared = sum(1 for mode in signature.modes if mode != EXCLUSIVE)
    if shared == 0:
        return "excl"
    exclusive = len(signature.modes) - shared
    if exclusive == 0:
        return f"{shared}sh"
    return f"{shared}sh+{exclusive}ex"


def _cmd_list(args: argparse.Namespace) -> int:
    signatures, raw = _load_lenient(args.history)
    if not signatures and not raw:
        print("(empty history)")
        return 0
    print(f"{'fingerprint':<18} {'kind':<20} {'threads':>7} {'depth':>5} "
          f"{'modes':>9} {'avoided':>8} {'disabled':>8}")
    for signature in sorted(signatures, key=lambda s: s.fingerprint):
        print(f"{signature.fingerprint:<18} {signature.kind:<20} "
              f"{signature.size:>7} {signature.matching_depth:>5} "
              f"{_modes_column(signature):>9} "
              f"{signature.avoidance_count:>8} {str(signature.disabled):>8}")
    for record in raw:
        print(f"{record.fingerprint:<18} {record.kind:<20} "
              f"{len(record.stacks):>7} {record.matching_depth:>5} "
              f"{'?':>9} {record.avoidance_count:>8} {record.disabled:>8}")
    if raw:
        print(f"({len(raw)} record(s) of unrecognized kind; shown from raw "
              "JSON — a newer histctl can render them fully)")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    signatures, raw = _load_lenient(args.history)
    for signature in signatures:
        if signature.fingerprint == args.fingerprint:
            print(signature.describe())
            return 0
    for record in raw:
        if record.fingerprint == args.fingerprint:
            print(f"{record.kind} signature {record.fingerprint} "
                  f"(depth={record.matching_depth}, "
                  f"threads={len(record.stacks)}) [unrecognized kind: "
                  f"{record.error}]")
            for index, stack in enumerate(record.stacks):
                print(f"  stack {index}:")
                for frame in (stack if isinstance(stack, list) else [stack]):
                    print(f"    {frame}")
            return 0
    print(f"no signature with fingerprint {args.fingerprint}", file=sys.stderr)
    return 1


def _share_control(spec: str, action: str, fingerprint: str) -> None:
    """Send one fleet-control record to a pool."""
    import os
    import socket
    import time

    from ..share import make_control, open_channel

    try:
        host = socket.gethostname()
    except OSError:
        host = "unknown-host"
    # Wall-clock seconds as the Lamport value: strictly above any
    # worker's publish counter, and monotone across histctl invocations,
    # so an operator's latest word wins the LWW merge.
    control = make_control(action, fingerprint, clock=int(time.time()),
                           origin=f"histctl@{host}:{os.getpid()}")
    channel = open_channel(spec, client_name="histctl-control")
    try:
        channel.send(controls=[control])
    finally:
        channel.close()
    print(f"sent {action} {fingerprint} to {spec}")


def _require_target(args: argparse.Namespace) -> bool:
    if args.history is None and not args.share:
        print("pass a history file, --share SPEC, or both", file=sys.stderr)
        return False
    return True


def _cmd_set_enabled(args: argparse.Namespace, enabled: bool) -> int:
    if not _require_target(args):
        return 2
    action = "enable" if enabled else "disable"
    if args.history is not None:
        history = _load(args.history)
        ok = (history.enable(args.fingerprint) if enabled
              else history.disable(args.fingerprint))
        if not ok:
            print(f"no signature with fingerprint {args.fingerprint}",
                  file=sys.stderr)
            return 1
        history.save()
        print(f"{action}d {args.fingerprint}")
    if args.share:
        _share_control(args.share, action, args.fingerprint)
    return 0


def _cmd_remove(args: argparse.Namespace) -> int:
    if not _require_target(args):
        return 2
    if args.history is not None:
        history = _load(args.history)
        if not history.remove(args.fingerprint):
            print(f"no signature with fingerprint {args.fingerprint}",
                  file=sys.stderr)
            return 1
        history.save()
        print(f"removed {args.fingerprint}")
    if args.share:
        _share_control(args.share, "remove", args.fingerprint)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    history = _load(args.history)
    count = history.export_signatures(args.output)
    print(f"exported {count} signature(s) to {args.output}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    history = _load(args.history)
    imported = History.import_signatures(args.source)
    added = history.merge(imported)
    history.save()
    print(f"merged {added} new signature(s) from {args.source} "
          f"({len(imported) - added} duplicates)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from ..share import GossipChannel, HistoryServer, parse_share_spec

    scheme, params = parse_share_spec(args.spec)
    if scheme == "gossip" and args.history is None:
        endpoint = GossipChannel(node_name="seed", **params)
        spec, stop = f"gossip://{endpoint.bind}", endpoint.close
    elif scheme in ("unix", "tcp"):
        endpoint = HistoryServer(unix_path=params.get("path"),
                                 host=params.get("host"),
                                 port=params.get("port", 0),
                                 history_path=args.history).start()
        spec, stop = endpoint.spec, endpoint.stop
    else:
        print("serve takes a unix://, tcp:// or gossip:// spec "
              "(--history: unix:// and tcp:// only)", file=sys.stderr)
        return 2
    print(f"serving {spec}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        stop()
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import time

    from ..share import open_channel
    from ..share.state import parse_signatures

    channel = open_channel(args.pool, client_name="histctl-tail")
    printed = 0
    try:
        origin, (records, controls) = "snapshot", channel.snapshot()
        deadline = (time.monotonic() + args.duration
                    if args.duration is not None else None)
        while True:
            for signature in sorted(parse_signatures(records),
                                    key=lambda s: s.fingerprint):
                print(f"{origin:<9} {signature.fingerprint:<18} "
                      f"{signature.kind:<12} {signature.size} thread(s) "
                      f"depth={signature.matching_depth}", flush=True)
                printed += 1
                if args.count is not None and printed >= args.count:
                    return 0
            for control in controls:
                print(f"{'control':<9} {control['fingerprint']:<18} "
                      f"{control['action']} clock={control['clock']} "
                      f"origin={control['origin']}", flush=True)
            if deadline is not None and time.monotonic() >= deadline:
                return 0
            time.sleep(args.interval)
            origin, (records, controls) = "live", channel.receive()
    except KeyboardInterrupt:
        pass
    finally:
        channel.close()
    return 0


def _cmd_pool_status(args: argparse.Namespace) -> int:
    from ..share import open_channel

    channel = open_channel(args.pool, client_name="histctl-status")
    try:
        status_call = getattr(channel, "status", None)
        if status_call is not None:
            status = status_call()
        else:
            # Transports without native counters (e.g. memory://) still
            # answer the essential question: how many signatures pooled.
            status = {"transport": channel.describe(),
                      "signatures": len(channel.snapshot()[0])}
    finally:
        channel.close()
    status.pop("op", None)
    width = max(len(key) for key in status)
    for key in sorted(status):
        value = status[key]
        if isinstance(value, (dict, list)):
            # Peer structure (peer_lag, peers) renders as
            # compact JSON so the output stays one line per counter.
            value = json.dumps(value, sort_keys=True)
        print(f"{key:<{width}}  {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histctl", description="Manage a Dimmunix signature history file.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list all signatures")
    p_list.add_argument("history")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="print one signature's stacks")
    p_show.add_argument("history")
    p_show.add_argument("fingerprint")
    p_show.set_defaults(func=_cmd_show)

    share_help = ("also send the action to a signature pool as a control "
                  "record (reaches running workers live); SPEC is any "
                  "share spec: tcp://, unix://, file://, gossip://")

    p_disable = sub.add_parser(
        "disable", help="disable a signature (file, fleet, or both)")
    p_disable.add_argument("history", nargs="?", default=None,
                           help="history file (optional with --share)")
    p_disable.add_argument("fingerprint")
    p_disable.add_argument("--share", metavar="SPEC", help=share_help)
    p_disable.set_defaults(func=lambda args: _cmd_set_enabled(args, False))

    p_enable = sub.add_parser(
        "enable", help="re-enable a signature (file, fleet, or both)")
    p_enable.add_argument("history", nargs="?", default=None,
                          help="history file (optional with --share)")
    p_enable.add_argument("fingerprint")
    p_enable.add_argument("--share", metavar="SPEC", help=share_help)
    p_enable.set_defaults(func=lambda args: _cmd_set_enabled(args, True))

    p_remove = sub.add_parser(
        "remove", help="delete a signature (file, fleet, or both)")
    p_remove.add_argument("history", nargs="?", default=None,
                          help="history file (optional with --share)")
    p_remove.add_argument("fingerprint")
    p_remove.add_argument("--share", metavar="SPEC", help=share_help)
    p_remove.set_defaults(func=_cmd_remove)

    p_export = sub.add_parser("export", help="export signatures for distribution")
    p_export.add_argument("history")
    p_export.add_argument("output")
    p_export.set_defaults(func=_cmd_export)

    p_merge = sub.add_parser("merge", help="merge a signature file into the history")
    p_merge.add_argument("history")
    p_merge.add_argument("source")
    p_merge.set_defaults(func=_cmd_merge)

    p_serve = sub.add_parser(
        "serve", help="run a long-lived pool endpoint (daemon or gossip seed)")
    p_serve.add_argument("spec", help="unix://PATH, tcp://HOST:PORT or "
                                      "gossip://HOST:PORT?peers=... "
                                      "(port 0 = ephemeral)")
    p_serve.add_argument("--history", metavar="FILE", default=None,
                         help="daemon only: persist the pooled history to FILE")
    p_serve.set_defaults(func=_cmd_serve)

    p_tail = sub.add_parser(
        "tail", help="print pooled signatures and controls as they arrive")
    p_tail.add_argument("pool",
                        help="share spec (unix://, tcp://, file://, gossip://)")
    p_tail.add_argument("--count", type=int, default=None,
                        help="stop after printing this many signatures")
    p_tail.add_argument("--duration", type=float, default=None,
                        help="stop after this many seconds (default: forever)")
    p_tail.add_argument("--interval", type=float, default=0.2,
                        help="poll period in seconds for non-push transports")
    p_tail.set_defaults(func=_cmd_tail)

    p_status = sub.add_parser(
        "pool-status",
        help="show signature-pool counters (incl. gossip state)")
    p_status.add_argument("pool",
                          help="share spec (unix://, tcp://, file://, "
                               "gossip://)")
    p_status.set_defaults(func=_cmd_pool_status)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DimmunixError, OSError, json.JSONDecodeError) as exc:
        # Mutating commands refuse partially-parsable files (a lossy
        # load-then-save would drop records); report cleanly, no traceback.
        print(f"histctl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
