"""The ``HistoryChannel`` protocol — one contract, interchangeable transports.

The paper's deployment story (section 6) is that immunity *compounds
across instances*: once any process of a service develops an immunity
signature, every other process should avoid that deadlock without ever
experiencing it.  ``repro.share`` realizes that with a small pluggable
contract:

* a :class:`SignatureSink` accepts locally learned signatures
  (``publish``),
* a :class:`SignatureSource` yields signatures learned elsewhere
  (``poll``/``snapshot``),
* a :class:`HistoryChannel` is both at once, plus a lifecycle and an
  optional *control plane* (``publish_control``/``poll_controls``) that
  carries fleet-wide signature management — disable / enable / remove —
  alongside the signatures themselves.

Transports are plugged in through a registry rather than hardcoded:
:func:`register_transport` binds a URL scheme to a spec parser and a
channel factory, and :func:`transports` lists what is available.  The
built-in set:

* the history daemon (:mod:`repro.share.server` / :mod:`repro.share.client`)
  over ``tcp://`` and ``unix://`` — daemons can additionally *federate*
  (subscribe to upstream daemons); the upstream connections are opened
  through this same registry, so ``federate=`` upstreams may use any
  registered transport,
* the serverless shared file (:mod:`repro.share.filechannel`) behind
  ``file://`` or a bare path,
* the daemonless gossip mesh (:mod:`repro.share.gossip`) behind
  ``gossip://``,
* an in-process hub (:mod:`repro.share.memory`) behind ``memory://``,
  used by the simulator and by deterministic tests.

All of them exchange plain
:meth:`~repro.core.signature.Signature.to_dict` records, i.e. the exact
v1/v2 format of ``docs/signature-format.md``, and every install goes
through :meth:`History.merge` semantics (duplicates bump counters, never
duplicate entries).

Channels deduplicate by fingerprint in both directions: a signature that
arrived from the pool is never published back into it, and a signature
published locally is never redelivered by ``poll``.  Control records
cross a channel only when they are newer, under the merge order of
:mod:`repro.share.state`, than the newest one the channel has carried
for their fingerprint — the same fingerprint may legitimately be
disabled, re-enabled, and disabled again.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import ShareError
from ..core.signature import Signature
from .state import Control, parse_control

class SignatureSink:
    """Accepts locally learned signatures for distribution."""

    def publish(self, signature: Signature) -> None:
        """Offer ``signature`` to the pool (idempotent per fingerprint)."""
        raise NotImplementedError


class SignatureSource:
    """Yields signatures learned by other processes."""

    def poll(self) -> List[Signature]:
        """Signatures that arrived since the previous ``poll`` call."""
        raise NotImplementedError

    def snapshot(self) -> List[Signature]:
        """The pool's full current signature set."""
        raise NotImplementedError


class HistoryChannel(SignatureSink, SignatureSource):
    """A bidirectional connection to a signature pool.

    Subclasses implement ``publish``/``poll``/``snapshot``/``close`` and
    use the inherited bookkeeping of what has already crossed the
    channel in either direction: :meth:`_fresh` for signatures,
    :meth:`_fresh_controls` for control records.  The bookkeeping is
    thread-safe — the monitor thread publishes while the pool pump polls.

    Transports that can carry the control plane additionally override
    ``publish_control``/``poll_controls`` and set ``supports_controls``;
    the base implementations make controls a silent no-op so a pool can
    drive any transport uniformly.
    """

    #: True on transports that carry control records end to end.
    supports_controls = False

    def __init__(self) -> None:
        self._seen: Set[str] = set()
        #: The newest control carried so far, per fingerprint.
        self._carried: Dict[str, Control] = {}
        self._seen_lock = threading.Lock()
        self._closed = False

    # -- bookkeeping -------------------------------------------------------------------

    def _fresh(self, signatures: List[Signature]) -> List[Signature]:
        """Keep (and mark) only signatures not seen on this channel before."""
        fresh = []
        with self._seen_lock:
            for signature in signatures:
                if signature.fingerprint not in self._seen:
                    self._seen.add(signature.fingerprint)
                    fresh.append(signature)
        return fresh

    def _fresh_controls(self, controls: List[Dict]) -> List[Dict]:
        """Keep (and mark) only controls newer than any carried before.

        An unreadable record passes: a carrier does not judge what it
        cannot read, the pool state at the far end rejects and counts it.
        """
        fresh = []
        with self._seen_lock:
            for raw in controls:
                control = parse_control(raw)
                if control is not None:
                    carried = self._carried.get(control.fingerprint)
                    if carried is not None and control <= carried:
                        continue
                    self._carried[control.fingerprint] = control
                fresh.append(raw)
        return fresh

    # -- control plane (optional) ------------------------------------------------------

    def publish_control(self, control: Dict) -> None:
        """Offer a control record to the pool (no-op on plain transports)."""

    def poll_controls(self) -> List[Dict]:
        """Control records that arrived since the previous call."""
        return []

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release transport resources; further calls become no-ops."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (or the transport died)."""
        return self._closed

    def describe(self) -> str:
        """Human-readable transport description (for status displays)."""
        return type(self).__name__


# ---------------------------------------------------------------------------
# The transport registry
# ---------------------------------------------------------------------------

#: A registered transport: how to parse its spec and build its channel.
#: ``parse(rest, spec)`` receives the part after ``scheme://`` plus the
#: full spec (for error messages) and returns the params dict;
#: ``factory(params, client_name)`` returns a live channel.
class Transport:
    __slots__ = ("scheme", "parse", "factory", "summary")

    def __init__(self, scheme: str,
                 parse: Callable[[str, str], Dict],
                 factory: Callable[[Dict, Optional[str]], "HistoryChannel"],
                 summary: str):
        self.scheme = scheme
        self.parse = parse
        self.factory = factory
        self.summary = summary


_transports: Dict[str, Transport] = {}
_transports_lock = threading.Lock()


def _default_parse(rest: str, spec: str) -> Dict:
    if not rest:
        raise ShareError(f"share spec {spec!r} needs an address after ://")
    return {"rest": rest}


def register_transport(scheme: str,
                       factory: Callable[[Dict, Optional[str]], HistoryChannel],
                       parse: Optional[Callable[[str, str], Dict]] = None,
                       summary: str = "") -> None:
    """Register (or replace) the transport behind ``scheme://`` specs.

    ``factory(params, client_name)`` must return a
    :class:`HistoryChannel`; ``parse(rest, spec)`` turns the part after
    ``scheme://`` into the params dict (default: ``{"rest": rest}``,
    refusing an empty rest).  Registration is how ``gossip://`` and every
    built-in scheme plug into :func:`open_channel` — third-party
    transports use exactly the same door.
    """
    if not scheme or "://" in scheme:
        raise ShareError(f"bad transport scheme {scheme!r}")
    with _transports_lock:
        _transports[scheme.lower()] = Transport(
            scheme.lower(), parse or _default_parse, factory, summary)


def unregister_transport(scheme: str) -> bool:
    """Remove a registered transport; returns True when it existed."""
    with _transports_lock:
        return _transports.pop(scheme.lower(), None) is not None


def transports() -> Dict[str, str]:
    """Mapping of registered scheme -> one-line summary."""
    with _transports_lock:
        return {scheme: transport.summary
                for scheme, transport in sorted(_transports.items())}


def _lookup(scheme: str) -> Transport:
    with _transports_lock:
        transport = _transports.get(scheme)
    if transport is None:
        known = ", ".join(sorted(_transports))
        raise ShareError(
            f"unknown share transport {scheme!r} (known: {known})")
    return transport


def split_spec_params(rest: str) -> Tuple[str, Dict[str, str]]:
    """Split ``ADDRESS?k=v&k2=v2`` into the address and its query params."""
    address, sep, query = rest.partition("?")
    params: Dict[str, str] = {}
    if sep:
        for item in query.split("&"):
            if not item:
                continue
            key, _, value = item.partition("=")
            params[key] = value
    return address, params


def parse_share_spec(spec: str) -> Tuple[str, Dict]:
    """Parse a share spec string into ``(scheme, params)``.

    Built-in forms::

        tcp://HOST:PORT            history daemon over TCP
        unix://PATH                history daemon over a Unix socket
        file://PATH                serverless shared signature log
        memory://NAME              in-process hub (tests, simulator)
        gossip://BIND?peers=...    daemonless anti-entropy mesh node

    A bare path (no ``scheme://``) is treated as ``file://`` — the
    zero-configuration deployment is "point every worker at one file".
    Schemes added through :func:`register_transport` parse here too.
    """
    if "://" not in spec:
        return "file", {"path": spec}
    scheme, _, rest = spec.partition("://")
    scheme = scheme.lower()
    transport = _lookup(scheme)
    return scheme, transport.parse(rest, spec)


def open_channel(spec, client_name: Optional[str] = None) -> HistoryChannel:
    """Open a :class:`HistoryChannel` from a spec string (or pass one through).

    ``spec`` may already be a channel instance, which is returned as-is —
    this lets ``immunize(share=...)`` accept both forms.
    """
    if isinstance(spec, HistoryChannel):
        return spec
    if not isinstance(spec, str):
        raise ShareError(f"share spec must be a string or HistoryChannel, "
                         f"got {type(spec).__name__}")
    scheme, params = parse_share_spec(spec)
    return _lookup(scheme).factory(params, client_name)


# ---------------------------------------------------------------------------
# Built-in transport registrations
# ---------------------------------------------------------------------------
# Factories import lazily so `import repro.share.channel` stays cheap and
# cycle-free; the registry only pays for the transports a process uses.


def _parse_tcp(rest: str, spec: str) -> Dict:
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ShareError(f"tcp share spec needs HOST:PORT, got {spec!r}")
    try:
        return {"host": host, "port": int(port)}
    except ValueError as exc:
        raise ShareError(f"bad port in share spec {spec!r}") from exc


def _parse_unix(rest: str, spec: str) -> Dict:
    if not rest:
        raise ShareError(f"unix share spec needs a socket path, got {spec!r}")
    return {"path": rest}


def _parse_file(rest: str, spec: str) -> Dict:
    if not rest:
        raise ShareError(f"file share spec needs a path, got {spec!r}")
    return {"path": rest}


def _parse_memory(rest: str, spec: str) -> Dict:
    if not rest:
        raise ShareError(f"memory share spec needs a hub name, got {spec!r}")
    return {"name": rest}


def _parse_gossip(rest: str, spec: str) -> Dict:
    from .gossip import parse_gossip_params
    return parse_gossip_params(rest, spec)


def _open_tcp(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .client import SocketChannel
    return SocketChannel(("tcp", params["host"], params["port"]),
                         client_name=client_name)


def _open_unix(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .client import SocketChannel
    return SocketChannel(("unix", params["path"]), client_name=client_name)


def _open_file(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .filechannel import FileChannel
    return FileChannel(params["path"])


def _open_memory(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .memory import memory_hub
    return memory_hub(params["name"]).channel()


def _open_gossip(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .gossip import GossipChannel
    return GossipChannel(node_name=client_name, **params)


register_transport("tcp", _open_tcp, _parse_tcp,
                   "history daemon over TCP (federable)")
register_transport("unix", _open_unix, _parse_unix,
                   "history daemon over a Unix socket (federable)")
register_transport("file", _open_file, _parse_file,
                   "serverless shared signature log")
register_transport("memory", _open_memory, _parse_memory,
                   "in-process hub (tests, simulator)")
register_transport("gossip", _open_gossip, _parse_gossip,
                   "daemonless anti-entropy mesh node")
