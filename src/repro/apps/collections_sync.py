"""Synchronized collection classes — the Java JDK "invitations to deadlock".

Table 2 of the paper lists deadlocks that are reachable through perfectly
legal use of synchronized JDK classes: each instance locks itself and then
the other instance involved in the operation, so two threads operating on
the same pair of objects in opposite roles deadlock inside the library.

The classes here reproduce those locking structures:

* :class:`SyncVector` — ``v1.add_all(v2)`` vs ``v2.add_all(v1)``
* :class:`SyncHashtable` — ``h1.equals(h2)`` vs ``h2.equals(h1)`` when each
  table contains the other
* :class:`SyncStringBuffer` — ``s1.append(s2)`` vs ``s2.append(s1)``
* :class:`SyncPrintWriter` / :class:`CharArrayWriter` — ``w.write(...)``
  concurrently with ``CharArrayWriter.write_to(w)``
* :class:`BeanContext` — ``property_change()`` vs ``remove()``
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional

from .base import MiniApp


class _SyncBase:
    """Common plumbing: every instance owns a reentrant monitor lock."""

    _ids = itertools.count(1)

    def __init__(self, app: MiniApp, kind: str):
        self._app = app
        self._instance_id = next(_SyncBase._ids)
        self.lock = app.make_rlock(f"{kind}-{self._instance_id}")


class SyncVector(_SyncBase):
    """A synchronized growable array (``java.util.Vector``)."""

    def __init__(self, app: MiniApp, items: Optional[Iterable] = None):
        super().__init__(app, "vector")
        self._items: List = list(items or [])

    def add(self, item) -> int:
        """Append one element (self lock only)."""
        with self._app.holding(self.lock, "Vector.add"):
            self._items.append(item)
            return len(self._items)

    def size(self) -> int:
        """Number of elements."""
        with self._app.holding(self.lock, "Vector.size"):
            return len(self._items)

    def items(self) -> List:
        """A snapshot copy of the contents."""
        with self._app.holding(self.lock, "Vector.items"):
            return list(self._items)

    def add_all(self, other: "SyncVector") -> int:
        """Append all of ``other``: locks self, then other (Table 2, Vector row)."""
        with self._app.holding(self.lock, "Vector.add_all"):
            with self._app.holding(other.lock, "Vector.add_all"):
                self._items.extend(other._items)
                return len(self._items)


class SyncHashtable(_SyncBase):
    """A synchronized hash table (``java.util.Hashtable``)."""

    def __init__(self, app: MiniApp):
        super().__init__(app, "hashtable")
        self._data: Dict = {}

    def put(self, key, value) -> None:
        """Store a mapping (self lock only)."""
        with self._app.holding(self.lock, "Hashtable.put"):
            self._data[key] = value

    def get(self, key, default=None):
        """Read a mapping (self lock only)."""
        with self._app.holding(self.lock, "Hashtable.get"):
            return self._data.get(key, default)

    def equals(self, other: "SyncHashtable") -> bool:
        """Structural comparison: locks self, then the entries' containers.

        When ``h1`` is a member of ``h2`` and vice versa, comparing each
        against the other concurrently locks the two tables in opposite
        orders (Table 2, Hashtable row).
        """
        with self._app.holding(self.lock, "Hashtable.equals"):
            for value in self._data.values():
                if isinstance(value, SyncHashtable) and value is not self:
                    with self._app.holding(value.lock, "Hashtable.equals"):
                        if len(value._data) != len(self._data):
                            return False
            if not isinstance(other, SyncHashtable):
                return False
            with self._app.holding(other.lock, "Hashtable.equals"):
                return set(self._data) == set(other._data)


class SyncStringBuffer(_SyncBase):
    """A synchronized mutable string (``java.lang.StringBuffer``)."""

    def __init__(self, app: MiniApp, initial: str = ""):
        super().__init__(app, "stringbuffer")
        self._chunks: List[str] = [initial] if initial else []

    def to_string(self) -> str:
        """Concatenate the contents (self lock only)."""
        with self._app.holding(self.lock, "StringBuffer.to_string"):
            return "".join(self._chunks)

    def append_text(self, text: str) -> "SyncStringBuffer":
        """Append a plain string (self lock only)."""
        with self._app.holding(self.lock, "StringBuffer.append_text"):
            self._chunks.append(text)
            return self

    def append(self, other: "SyncStringBuffer") -> "SyncStringBuffer":
        """Append another buffer: locks self, then other (Table 2, StringBuffer row)."""
        with self._app.holding(self.lock, "StringBuffer.append"):
            with self._app.holding(other.lock, "StringBuffer.append"):
                self._chunks.extend(other._chunks)
                return self


class CharArrayWriter(_SyncBase):
    """A synchronized character buffer (``java.io.CharArrayWriter``)."""

    def __init__(self, app: MiniApp):
        super().__init__(app, "chararraywriter")
        self._buffer: List[str] = []

    def write(self, text: str) -> None:
        """Buffer characters (self lock only)."""
        with self._app.holding(self.lock, "CharArrayWriter.write"):
            self._buffer.append(text)

    def contents(self) -> str:
        """The buffered characters."""
        with self._app.holding(self.lock, "CharArrayWriter.contents"):
            return "".join(self._buffer)

    def write_to(self, writer: "SyncPrintWriter") -> int:
        """Flush into a print writer: locks self, then the writer (Table 2,
        PrintWriter row, one direction of the inversion)."""
        with self._app.holding(self.lock, "CharArrayWriter.write_to"):
            with self._app.holding(writer.lock, "CharArrayWriter.write_to"):
                text = "".join(self._buffer)
                writer._sink.append(text)
                return len(text)


class SyncPrintWriter(_SyncBase):
    """A synchronized print writer (``java.io.PrintWriter``)."""

    def __init__(self, app: MiniApp, backing: Optional[CharArrayWriter] = None):
        super().__init__(app, "printwriter")
        self._sink: List[str] = []
        self.backing = backing

    def write(self, text: str) -> None:
        """Write through to the backing buffer: locks self, then the backing
        CharArrayWriter (Table 2, PrintWriter row, the other direction)."""
        with self._app.holding(self.lock, "PrintWriter.write"):
            self._sink.append(text)
            if self.backing is not None:
                with self._app.holding(self.backing.lock, "PrintWriter.write"):
                    self.backing._buffer.append(text)

    def contents(self) -> str:
        """Everything written so far."""
        with self._app.holding(self.lock, "PrintWriter.contents"):
            return "".join(self._sink)


class BeanContext(_SyncBase):
    """``java.beans.beancontext.BeanContextSupport`` in miniature."""

    def __init__(self, app: MiniApp, name: str = "context"):
        super().__init__(app, "beancontext")
        self.name = name
        self.children: List["BeanContext"] = []
        self.properties: Dict[str, object] = {}

    def add_child(self, child: "BeanContext") -> None:
        """Register a child context (self lock only)."""
        with self._app.holding(self.lock, "BeanContext.add_child"):
            self.children.append(child)

    def property_change(self, key: str, value) -> None:
        """Propagate a property change: locks self, then every child
        (Table 2, BeanContextSupport row)."""
        with self._app.holding(self.lock, "BeanContext.property_change"):
            self.properties[key] = value
            for child in list(self.children):
                with self._app.holding(child.lock, "BeanContext.property_change"):
                    child.properties[key] = value

    def remove(self, parent: "BeanContext") -> bool:
        """Detach from a parent: locks self, then the parent — the opposite
        nesting of :meth:`property_change`."""
        with self._app.holding(self.lock, "BeanContext.remove"):
            with self._app.holding(parent.lock, "BeanContext.remove"):
                if self in parent.children:
                    parent.children.remove(self)
                    return True
                return False
