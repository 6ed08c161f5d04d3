"""A tiny concurrent registry of per-key slot objects.

The avoidance cache keeps per-thread state — its own and the engine's — in
slot objects that are created on a thread's first lock operation and then
accessed without locking (attribute reads/writes are atomic under the
GIL).  This helper holds the double-checked-locking creation and the
snapshot/removal plumbing.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class SlotRegistry(Generic[T]):
    """Lazily creates one slot per key; reads are lock-free."""

    def __init__(self, factory: Callable[[], T]):
        self._factory = factory
        self._slots: Dict[int, T] = {}
        self._lock = threading.Lock()

    def get(self, key: int) -> T:
        """The slot for ``key``, created on first use."""
        slot = self._slots.get(key)
        if slot is None:
            with self._lock:
                slot = self._slots.get(key)
                if slot is None:
                    slot = self._factory()
                    self._slots[key] = slot
        return slot

    def peek(self, key: int) -> Optional[T]:
        """The slot for ``key`` if it exists, without creating one."""
        return self._slots.get(key)

    def pop(self, key: int) -> Optional[T]:
        """Remove and return the slot for ``key`` (``None`` when absent)."""
        with self._lock:
            return self._slots.pop(key, None)

    def items(self) -> List[Tuple[int, T]]:
        """A point-in-time snapshot of (key, slot) pairs."""
        return list(self._slots.items())

    def clear(self) -> None:
        """Drop every slot."""
        with self._lock:
            self._slots.clear()

    def __len__(self) -> int:
        return len(self._slots)
