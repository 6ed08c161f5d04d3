"""Cross-process history sharing: N workers immunize each other.

The paper's deployment story (section 6) at service scale: once *any*
process of a service develops an immunity signature, every other process
avoids that deadlock pattern without ever experiencing it.  This package
pools signatures live across real OS processes.  Every piece carries one
value through one contract:

* :class:`PoolState` — the replicated value (signature records plus the
  standing control per fingerprint) and the only place its merge rules
  are written;
* :class:`HistoryChannel` — the contract: ``send(records, controls)``,
  ``receive() -> (records, controls)`` and
  ``snapshot(timeout) -> (records, controls)``, deltas of raw wire dicts
  that each channel deduplicates with its own :class:`PoolState`;
  :func:`open_channel` opens one from a spec through a fixed scheme table;
* :class:`HistoryServer` / :class:`SocketChannel` — a lightweight
  history daemon over a Unix or TCP socket (JSON-lines protocol);
* :class:`GossipChannel` — a daemonless mesh node exchanging state via
  digest-first anti-entropy rounds (no single point of failure), the
  multi-host topology;
* :class:`FileChannel` — serverless pooling through an append-only
  shared signature log with advisory locking and compaction;
* :class:`MemoryHub` / :class:`MemoryChannel` — the deterministic
  in-process transport used by the simulator and tests;
* :class:`SignaturePool` — binds a channel to a local
  :class:`~repro.core.history.History` and the monitor's cadence, parses
  the records it receives, and carries the fleet controls (disable /
  enable / remove) both ways.

Typical use is one argument on the runtime entry point::

    repro.immunize(history_path="app.history", share="unix:///run/app/pool.sock")
    repro.immunize(runtime="asyncio", share="gossip://0.0.0.0:7400?peers=seed:7400")

or, manually::

    dimmunix = Dimmunix(config, share="tcp://10.0.0.5:7341")

Long-lived pool endpoints run as ``histctl serve SPEC`` for a
``unix://``, ``tcp://`` or ``gossip://`` spec.  See
``docs/history-sharing.md`` for the protocol, topologies, and
trade-offs, and ``examples/share_demo.py`` for the end-to-end
multi-process proof.
"""

from .channel import HistoryChannel, open_channel, parse_share_spec
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
    "SocketChannel",
    "make_control",
    "memory_hub",
    "open_channel",
    "parse_share_spec",
    "reset_memory_hubs",
]
