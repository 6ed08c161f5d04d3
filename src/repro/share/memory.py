"""In-process signature hub — the deterministic sharing transport.

A :class:`MemoryHub` is the pool reduced to its essence: one
:class:`~repro.core.replica.PoolState` plus the order in which its
records and controls arrived, shared by N :class:`MemoryChannel`
endpoints in one process.  It exists for two consumers:

* **the simulator / deterministic tests** — several engine instances
  (e.g. two :class:`~repro.core.dimmunix.Dimmunix` objects standing in
  for two worker processes) attach channels from one hub and exchange
  immunity without sockets, files, or timing, so cross-deployment
  immunity is checkable in an ordinary unit test;
* **the spec form** ``memory://NAME`` — named hubs are process-global,
  letting two independently constructed runtimes find each other by
  name, mirroring how real workers find each other through a socket
  path.

Delivery order is the hub's arrival order, and every channel observes
the same order — determinism that the socket transport cannot promise.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.replica import PoolState
from .channel import Delta, HistoryChannel

#: How far a channel has read: (records, controls) delivered so far.
Cursor = Tuple[int, int]


class MemoryHub:
    """A shared pool state in process memory, with its arrival order."""

    def __init__(self, name: Optional[str] = None):
        self.name = name
        self._state = PoolState()
        #: What channels deliver, in order: the records that were new and
        #: visible on arrival, and the controls that won their merge.
        self._records: List[dict] = []
        self._controls: List[dict] = []
        self._lock = threading.Lock()

    def append(self, records, controls) -> None:
        """Merge a delta into the hub."""
        with self._lock:
            fresh, won = self._state.absorb(records, controls)
            self._records.extend(fresh)
            self._controls.extend(control.to_dict() for control in won)

    def since(self, cursor: Cursor) -> Tuple[Delta, Cursor]:
        """What arrived at or after ``cursor``, and the cursor after it."""
        with self._lock:
            return ((self._records[cursor[0]:], self._controls[cursor[1]:]),
                    (len(self._records), len(self._controls)))

    def snapshot(self) -> Tuple[Delta, Cursor]:
        """The hub's whole value, and the cursor it is current to."""
        with self._lock:
            return (self._state.snapshot(),
                    (len(self._records), len(self._controls)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def channel(self) -> "MemoryChannel":
        """A new endpoint attached to this hub."""
        return MemoryChannel(self)


class MemoryChannel(HistoryChannel):
    """One endpoint of a :class:`MemoryHub`."""

    def __init__(self, hub: MemoryHub):
        super().__init__()
        self._hub = hub
        self._cursor: Cursor = (0, 0)

    @property
    def hub(self) -> MemoryHub:
        """The hub this channel is attached to."""
        return self._hub

    def _send(self, records, controls) -> None:
        self._hub.append(records, controls)

    def _receive(self) -> Delta:
        delta, self._cursor = self._hub.since(self._cursor)
        return delta

    def _snapshot(self, timeout: float) -> Delta:
        # Advance to what was actually read — not to len(hub), which may
        # already include records appended after the read and would make
        # receive() skip them forever.
        whole, cursor = self._hub.snapshot()
        self._cursor = (max(self._cursor[0], cursor[0]),
                        max(self._cursor[1], cursor[1]))
        return whole

    def describe(self) -> str:
        return f"memory://{self._hub.name or '<anonymous>'}"


_hubs: Dict[str, MemoryHub] = {}
_hubs_lock = threading.Lock()


def memory_hub(name: str) -> MemoryHub:
    """The process-global hub registered under ``name`` (created on demand)."""
    with _hubs_lock:
        hub = _hubs.get(name)
        if hub is None:
            hub = _hubs[name] = MemoryHub(name)
        return hub


def reset_memory_hubs() -> None:
    """Drop all named hubs (test isolation)."""
    with _hubs_lock:
        _hubs.clear()
