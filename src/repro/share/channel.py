"""The ``HistoryChannel`` contract: deltas of one value, both ways.

The paper's deployment story (section 6) is that immunity *compounds
across instances*: once any process of a service develops an immunity
signature, every other process should avoid that deadlock without ever
experiencing it.  Every ``repro.share`` transport replicates one value,
a :class:`~repro.core.replica.PoolState` (signature records plus one
standing control per fingerprint), so a channel only moves *deltas* of
it, as raw wire dicts:

* ``send(records, controls)`` offers what this process learned;
* ``receive()`` returns the ``(records, controls)`` that arrived since
  the previous call;
* ``snapshot(timeout)`` returns the pool's whole value: its visible
  records and its standing controls.

Records are :meth:`~repro.core.signature.Signature.to_dict` dicts (the
v1/v2 format of ``docs/signature-format.md``) and stay raw here: they are
parsed once, by :class:`~repro.share.pool.SignaturePool`.

A channel deduplicates both directions with its own ``PoolState``: a
record that crossed it once, either way, never crosses again, and a
control crosses only when it wins that state's merge — the same
fingerprint may legitimately be disabled, re-enabled and disabled again.
Malformed input is refused there and counted in :attr:`~HistoryChannel.rejected`.

The transports are a fixed scheme table (:func:`open_channel`):

* the history daemon (:mod:`repro.share.server` / :mod:`repro.share.client`)
  behind ``tcp://`` and ``unix://``,
* the serverless shared file (:mod:`repro.share.filechannel`) behind
  ``file://`` or a bare path,
* the daemonless gossip mesh (:mod:`repro.share.gossip`) behind
  ``gossip://``,
* an in-process hub (:mod:`repro.share.memory`) behind ``memory://``,
  used by the simulator and by deterministic tests.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.errors import ShareError
from ..core.replica import PoolState

#: ``(records, controls)``: raw signature records and raw control records.
Delta = Tuple[List[dict], List[dict]]


class HistoryChannel:
    """A bidirectional connection to a signature pool.

    Subclasses move bytes in ``_send``/``_receive``/``_snapshot`` and may
    extend ``close``/``describe``; the public methods add the
    deduplication and make a closed channel inert.  Thread-safe: the
    monitor thread sends while the pool pump receives.
    """

    def __init__(self) -> None:
        #: Everything that crossed this channel, in either direction.
        self._carried = PoolState()
        self._carried_lock = threading.Lock()
        #: Deltas the transport failed to write: carried, but still owed.
        self._owed: Delta = ([], [])
        self._closed = False

    def send(self, records=(), controls=()) -> None:
        """Offer records and controls to the pool; what already crossed is dropped.

        A delta the transport could not write stays owed and goes out
        with the next send, so ``SignaturePool.sync`` repairs it.
        """
        if self._closed:
            return
        records, controls = self._fresh(records, controls)
        if self._owed[0] or self._owed[1]:
            with self._carried_lock:
                owed, self._owed = self._owed, ([], [])
            records, controls = owed[0] + records, owed[1] + controls
        if (records or controls) and self._send(records, controls) is False:
            with self._carried_lock:
                self._owed[0].extend(records)
                self._owed[1].extend(controls)

    def receive(self) -> Delta:
        """The records and controls that arrived since the previous call."""
        if self._closed:
            return [], []
        return self._fresh(*self._receive())

    def snapshot(self, timeout: float = 5.0) -> Delta:
        """The pool's whole value: ``(visible records, standing controls)``."""
        if self._closed:
            return [], []
        whole = PoolState()
        whole.absorb(*self._snapshot(timeout))
        with self._carried_lock:
            self._carried.merge(whole)
            self._carried.rejected += whole.rejected
        return whole.snapshot()

    def close(self) -> None:
        """Release transport resources; further calls become no-ops."""
        self._closed = True

    def describe(self) -> str:
        """Human-readable transport description (for status displays)."""
        return type(self).__name__

    #: Not methods: names from before ``send``/``receive`` that the
    #: benchmark's tracer (``benchmarks/e2e``) still looks up on a channel.
    #: Until it wraps ``send``/``receive`` instead, a traced run records
    #: no share publish/poll spans; drop these with that change.
    publish = poll = None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def rejected(self) -> int:
        """Malformed records and controls this channel refused."""
        return self._carried.rejected

    def _fresh(self, records, controls) -> Delta:
        with self._carried_lock:
            fresh, won = self._carried.absorb(records, controls)
        return fresh, [control.to_dict() for control in won]

    # -- what a transport implements ---------------------------------------------------

    def _send(self, records: List[dict], controls: List[dict]) -> Optional[bool]:
        """Write one delta; False when the transport could not."""
        raise NotImplementedError

    def _receive(self) -> Delta:
        raise NotImplementedError

    def _snapshot(self, timeout: float) -> Delta:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Share specs
# ---------------------------------------------------------------------------
# Factories import lazily: every transport module imports this one.


def _parse_tcp(rest: str, spec: str) -> Dict:
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ShareError(f"tcp share spec needs HOST:PORT, got {spec!r}")
    try:
        return {"host": host, "port": int(port)}
    except ValueError as exc:
        raise ShareError(f"bad port in share spec {spec!r}") from exc


def _needs(key: str, what: str):
    def parse(rest: str, spec: str) -> Dict:
        if not rest:
            raise ShareError(f"share spec {spec!r} needs {what}")
        return {key: rest}
    return parse


def _parse_gossip(rest: str, spec: str) -> Dict:
    from .gossip import parse_gossip_params
    return parse_gossip_params(rest, spec)


def _open_socket(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .client import SocketChannel
    address = (("unix", params["path"]) if "path" in params
               else ("tcp", params["host"], params["port"]))
    return SocketChannel(address, client_name=client_name)


def _open_file(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .filechannel import FileChannel
    return FileChannel(params["path"])


def _open_memory(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .memory import memory_hub
    return memory_hub(params["name"]).channel()


def _open_gossip(params: Dict, client_name: Optional[str]) -> HistoryChannel:
    from .gossip import GossipChannel
    return GossipChannel(node_name=client_name, **params)


#: scheme -> (``parse(rest, spec)`` into params, ``open(params, client_name)``).
_SCHEMES = {
    "tcp": (_parse_tcp, _open_socket),
    "unix": (_needs("path", "a socket path"), _open_socket),
    "file": (_needs("path", "a path"), _open_file),
    "memory": (_needs("name", "a hub name"), _open_memory),
    "gossip": (_parse_gossip, _open_gossip),
}


def parse_share_spec(spec: str) -> Tuple[str, Dict]:
    """Parse a share spec string into ``(scheme, params)``.

    Forms::

        tcp://HOST:PORT            history daemon over TCP
        unix://PATH                history daemon over a Unix socket
        file://PATH                serverless shared signature log
        memory://NAME              in-process hub (tests, simulator)
        gossip://BIND?peers=...    daemonless anti-entropy mesh node

    A bare path (no ``scheme://``) is treated as ``file://`` — the
    zero-configuration deployment is "point every worker at one file".
    """
    if "://" not in spec:
        return "file", {"path": spec}
    scheme, _, rest = spec.partition("://")
    scheme = scheme.lower()
    if scheme not in _SCHEMES:
        raise ShareError(f"unknown share transport {scheme!r} "
                         f"(known: {', '.join(sorted(_SCHEMES))})")
    return scheme, _SCHEMES[scheme][0](rest, spec)


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
    return _SCHEMES[scheme][1](params, client_name)
