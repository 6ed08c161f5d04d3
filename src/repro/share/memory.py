"""In-process signature hub — the deterministic sharing transport.

A :class:`MemoryHub` is the pool reduced to its essence: one
:class:`~repro.share.state.PoolState` plus the order in which its
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

from ..core.signature import Signature
from .channel import HistoryChannel
from .state import PoolState, parse_signatures


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

    def append(self, signature: Signature) -> bool:
        """Add a signature record to the hub; True when it was new."""
        record = signature.to_dict()
        with self._lock:
            if not self._state.admit(record):
                return False
            self._records.append(record)
            return True

    def append_control(self, control: dict) -> bool:
        """Merge a control record into the hub; True when it won."""
        with self._lock:
            _, won = self._state.absorb(controls=[control])
            self._controls.extend(winner.to_dict() for winner in won)
            return bool(won)

    def records_from(self, cursor: int) -> List[dict]:
        """All records delivered at or after ``cursor`` (a plain index)."""
        with self._lock:
            return self._records[cursor:]

    def controls_from(self, cursor: int) -> List[dict]:
        """All control records delivered at or after ``cursor``."""
        with self._lock:
            return self._controls[cursor:]

    def snapshot(self) -> Tuple[List[dict], int]:
        """(the visible records, the record cursor they are current to)."""
        with self._lock:
            return self._state.visible(), len(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def channel(self) -> "MemoryChannel":
        """A new endpoint attached to this hub."""
        return MemoryChannel(self)


class MemoryChannel(HistoryChannel):
    """One endpoint of a :class:`MemoryHub`."""

    supports_controls = True

    def __init__(self, hub: MemoryHub):
        super().__init__()
        self._hub = hub
        self._cursor = 0
        self._control_cursor = 0

    @property
    def hub(self) -> MemoryHub:
        """The hub this channel is attached to."""
        return self._hub

    def publish(self, signature: Signature) -> None:
        if not self._closed and self._fresh([signature]):
            self._hub.append(signature)

    def poll(self) -> List[Signature]:
        if self._closed:
            return []
        records = self._hub.records_from(self._cursor)
        self._cursor += len(records)
        return self._fresh(parse_signatures(records))

    def snapshot(self) -> List[Signature]:
        if self._closed:
            return []
        # Advance by what was actually read — not by len(hub), which may
        # already include records appended after the read and would make
        # poll() skip them forever.
        records, cursor = self._hub.snapshot()
        self._cursor = max(self._cursor, cursor)
        signatures = parse_signatures(records)
        self._fresh(signatures)
        return signatures

    def publish_control(self, control) -> None:
        if not self._closed and self._fresh_controls([control]):
            self._hub.append_control(control)

    def poll_controls(self):
        if self._closed:
            return []
        controls = self._hub.controls_from(self._control_cursor)
        self._control_cursor += len(controls)
        return self._fresh_controls(controls)

    def describe(self) -> str:
        name = self._hub.name or "<anonymous>"
        return f"memory://{name}"


_hubs: Dict[str, MemoryHub] = {}
_hubs_lock = threading.Lock()


def memory_hub(name: str) -> MemoryHub:
    """The process-global hub registered under ``name`` (created on demand)."""
    with _hubs_lock:
        hub = _hubs.get(name)
        if hub is None:
            hub = MemoryHub(name)
            _hubs[name] = hub
        return hub


def reset_memory_hubs() -> None:
    """Drop all named hubs (test isolation)."""
    with _hubs_lock:
        _hubs.clear()
