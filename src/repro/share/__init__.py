"""Cross-process history sharing: N workers immunize each other.

The paper's deployment story (section 6) at service scale: once *any*
process of a service develops an immunity signature, every other process
avoids that deadlock pattern without ever experiencing it.  This package
pools signatures live across real OS processes through one protocol and
a registry of interchangeable transports:

* :class:`HistoryChannel` — the contract (``publish`` / ``poll`` /
  ``snapshot`` / ``close`` plus the optional control plane
  ``publish_control`` / ``poll_controls``), and the
  :class:`SignatureSink` / :class:`SignatureSource` halves the engine
  layer plugs into;
* :func:`register_transport` / :func:`transports` — the scheme registry
  behind :func:`open_channel`; third-party transports plug in through
  the same door as the built-ins;
* :class:`HistoryServer` / :class:`SocketChannel` — a lightweight
  history daemon over a Unix or TCP socket (JSON-lines protocol);
  daemons *federate* by subscribing to upstream daemons, giving
  hub-per-host / spine topologies;
* :class:`GossipChannel` — a daemonless mesh node exchanging state via
  digest-first anti-entropy rounds (no single point of failure);
* :class:`FileChannel` — serverless pooling through an append-only
  shared signature log with advisory locking and compaction;
* :class:`MemoryHub` / :class:`MemoryChannel` — the deterministic
  in-process transport used by the simulator and tests;
* :class:`PoolState` — the replicated value every transport above
  carries (signature records plus standing controls) and the only
  place its merge rules are written;
* :class:`SignaturePool` — binds a channel to a local
  :class:`~repro.core.history.History` and the monitor's cadence, with
  publish coalescing, a bounded outbound queue, and the fleet-control
  plane (disable / enable / remove propagation).

Typical use is one argument on the runtime entry point::

    repro.immunize(history_path="app.history", share="unix:///run/app/pool.sock")
    repro.immunize(runtime="asyncio", share="gossip://0.0.0.0:7400?peers=seed:7400")

or, manually::

    dimmunix = Dimmunix(config, share="tcp://10.0.0.5:7341")

See ``docs/history-sharing.md`` for the protocol, topologies, and
trade-offs, and ``python -m repro.share.demo`` for the end-to-end
multi-process proof.
"""

from .channel import (HistoryChannel, SignatureSink, SignatureSource,
                      open_channel, parse_share_spec, register_transport,
                      transports, unregister_transport)
from .client import SocketChannel
from .filechannel import FileChannel
from .gossip import GossipChannel
from .memory import MemoryChannel, MemoryHub, memory_hub, reset_memory_hubs
from .pool import SignaturePool
from .server import HistoryServer
from .state import PoolState, make_control

__all__ = [
    "FileChannel",
    "GossipChannel",
    "HistoryChannel",
    "HistoryServer",
    "MemoryChannel",
    "MemoryHub",
    "PoolState",
    "SignaturePool",
    "SignatureSink",
    "SignatureSource",
    "SocketChannel",
    "make_control",
    "memory_hub",
    "open_channel",
    "parse_share_spec",
    "register_transport",
    "reset_memory_hubs",
    "transports",
    "unregister_transport",
]
