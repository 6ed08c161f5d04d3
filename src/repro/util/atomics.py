"""Build-aware atomic primitives for the lock-free hot path.

The engine needs one genuinely atomic operation: a monotone
fetch-and-increment for the lock and unit ids ``Dimmunix`` hands out.
Under the GIL ``next(itertools.count())`` is atomic — the increment
happens inside one C call that never releases the GIL.  On free-threaded
builds (PEP 703) ``itertools.count`` is *not* thread-safe: two threads
calling ``__next__`` concurrently can observe duplicate or skipped
values, and two locks sharing an id would share their engine state.

:func:`atomic_counter` picks the right implementation at import time
from the build flag, not the runtime GIL state: a free-threaded build
can re-enable the GIL dynamically (``PYTHON_GIL=1``, or importing an
incompatible extension), and an allocation scheme must not change
mid-process.  On GIL builds the fast ``itertools.count`` path is kept,
so the hot path pays nothing new; on free-threaded builds allocation
takes a small dedicated lock whose critical section is one integer add —
the price of correctness until CPython grows a public atomic int.
"""

from __future__ import annotations

import itertools
import sysconfig
import threading

#: True when this interpreter was *built* with ``--disable-gil``
#: (PEP 703), regardless of whether the GIL is currently enabled.
FREE_THREADED_BUILD = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


class _CountingCounter:
    """GIL-build implementation: ``next`` *is* ``itertools.count().__next__``,
    atomic, and no Python frame per number."""

    __slots__ = ("next",)

    def __init__(self, start: int):
        self.next = itertools.count(start).__next__


class _LockedCounter:
    """Free-threaded implementation: fetch-and-increment under a lock.

    The lock also acts as a full fence: everything the allocating thread
    wrote before calling :meth:`next` is visible to the next allocator.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, start: int):
        self._lock = threading.Lock()
        self._value = start

    def next(self) -> int:
        with self._lock:
            value = self._value
            self._value = value + 1
            return value


def atomic_counter(start: int = 1):
    """A monotone integer counter whose ``next()`` is atomic on every build.

    Successive calls return consecutive integers starting at ``start``;
    concurrent callers never observe a duplicate or a skip.  Use this —
    never a bare ``itertools.count`` — wherever allocation races matter.
    Hot paths may bind the ``next`` bound method once and call that.

    >>> counter = atomic_counter(5)
    >>> counter.next(), counter.next()
    (5, 6)
    """
    impl_class = _LockedCounter if FREE_THREADED_BUILD else _CountingCounter
    return impl_class(start)
