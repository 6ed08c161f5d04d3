"""A tiny concurrent registry of per-key slot objects.

The avoidance cache keeps per-thread state — its own and the engine's — in
slot objects that are created on a thread's first lock operation and then
accessed without locking (attribute reads/writes are atomic under the
GIL).  The registry is a ``dict``: a lookup is one C call, and only a miss
runs Python, creating the slot under the registry's lock.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class SlotRegistry(dict):
    """Lazily creates one slot per key; reads are lock-free."""

    __slots__ = ("_factory", "_lock")

    def __init__(self, factory: Callable[[], T]):
        super().__init__()
        self._factory = factory
        self._lock = threading.Lock()

    def __missing__(self, key: int) -> T:
        with self._lock:
            slot = dict.get(self, key)
            if slot is None:
                slot = self[key] = self._factory()
        return slot

    #: The slot for ``key``, created on first use.
    get = dict.__getitem__
    #: The slot for ``key`` if it exists, without creating one.
    peek = dict.get

    def pop(self, key: int) -> Optional[T]:
        """Remove and return the slot for ``key`` (``None`` when absent)."""
        with self._lock:
            return dict.pop(self, key, None)

    def items(self) -> List[Tuple[int, T]]:
        """A point-in-time snapshot of (key, slot) pairs."""
        return list(dict.items(self))
