"""A miniature embedded database.

Reproduces the locking structure of two reported bugs:

* **MySQL 6.0.4 bug #37080** — ``INSERT`` and ``TRUNCATE`` running in two
  different threads deadlock because the insert path locks the table
  before the transaction log while the truncate path locks the log before
  the table.  :meth:`MiniDB.insert` and :meth:`MiniDB.truncate` reproduce
  that ordering mistake.
* **SQLite 3.3.0 bug #1672** — a deadlock inside SQLite's custom recursive
  lock implementation, which builds a recursive mutex out of a guard mutex
  and an inner mutex and acquires them in an inconsistent order.
  :class:`CustomRecursiveLock` reproduces that implementation, bug
  included.

The rest of the class is an ordinary (correct) key/value table store so
that realistic, non-deadlocking workloads can also be run against it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from .base import AppLockTimeout, MiniApp


class Table:
    """One table: a named list of rows protected by its own lock."""

    def __init__(self, app: "MiniDB", name: str):
        self.name = name
        self.rows: List[dict] = []
        self.lock = app.make_rlock(f"table-{name}")


class MiniDB(MiniApp):
    """A tiny multi-table store with a shared transaction log."""

    def __init__(self, runtime=None, acquire_timeout: Optional[float] = None):
        super().__init__(runtime=runtime, acquire_timeout=acquire_timeout)
        self._tables: Dict[str, Table] = {}
        self._catalog_lock = self.make_rlock("db-catalog")
        self._log_lock = self.make_rlock("db-txlog")
        self._log: List[str] = []

    # -- schema management ------------------------------------------------------------

    def create_table(self, name: str) -> Table:
        """Create (or return the existing) table ``name``."""
        with self.holding(self._catalog_lock, "create_table"):
            table = self._tables.get(name)
            if table is None:
                table = Table(self, name)
                self._tables[name] = table
            return table

    def table(self, name: str) -> Table:
        """Look up an existing table."""
        with self.holding(self._catalog_lock, "table"):
            return self._tables[name]

    def tables(self) -> List[str]:
        """Names of all tables."""
        with self.holding(self._catalog_lock, "tables"):
            return sorted(self._tables)

    # -- the MySQL #37080 pattern --------------------------------------------------------

    def insert(self, table_name: str, row: dict) -> int:
        """Insert ``row``; locks the *table first*, then the transaction log.

        Returns the new row count of the table.
        """
        table = self.table(table_name)
        with self.holding(table.lock, "insert"):
            table.rows.append(dict(row))
            with self.holding(self._log_lock, "insert"):
                self._log.append(f"INSERT {table_name} {len(table.rows)}")
            return len(table.rows)

    def truncate(self, table_name: str) -> int:
        """Remove all rows; locks the *transaction log first*, then the table.

        This is the ordering mistake of bug #37080: run concurrently with
        :meth:`insert` on the same table, the two threads deadlock.
        Returns the number of rows removed.
        """
        table = self.table(table_name)
        with self.holding(self._log_lock, "truncate"):
            self._log.append(f"TRUNCATE {table_name}")
            with self.holding(table.lock, "truncate"):
                removed = len(table.rows)
                table.rows.clear()
                return removed

    # -- ordinary (correct) operations ------------------------------------------------------

    def select(self, table_name: str, predicate=None) -> List[dict]:
        """Read rows, optionally filtered by ``predicate``."""
        table = self.table(table_name)
        with self.holding(table.lock, "select"):
            if predicate is None:
                return [dict(row) for row in table.rows]
            return [dict(row) for row in table.rows if predicate(row)]

    def row_count(self, table_name: str) -> int:
        """Number of rows currently in ``table_name``."""
        table = self.table(table_name)
        with self.holding(table.lock, "row_count"):
            return len(table.rows)

    def log_entries(self) -> List[str]:
        """A copy of the transaction log."""
        with self.holding(self._log_lock, "log_entries"):
            return list(self._log)


class CustomRecursiveLock:
    """SQLite 3.3.0's hand-rolled recursive lock, bug #1672 included.

    The implementation layers a *guard* mutex (protecting the owner/count
    bookkeeping) over an *inner* mutex (the actual exclusion).  The bug:
    ``acquire`` takes the inner mutex while still holding the guard, while
    ``release`` takes the guard while still holding the inner mutex — an
    inverted nesting that deadlocks when an acquiring thread races a
    releasing one.
    """

    def __init__(self, app: MiniApp, name: str = "sqlite-recursive",
                 acquire_timeout: float = 2.0):
        self._app = app
        self._guard = app.make_lock(f"{name}-guard")
        self._inner = app.make_lock(f"{name}-inner")
        self._owner: Optional[int] = None
        self._count = 0
        self._timeout = acquire_timeout
        self.name = name

    def acquire(self) -> None:
        """Acquire the recursive lock (guard first, inner second — buggy order)."""
        me = threading.get_ident()
        if not self._guard.acquire(timeout=self._timeout):
            raise AppLockTimeout(self._guard.name, "recursive-acquire")
        try:
            if self._owner == me:
                self._count += 1
                return
            # BUG (faithful to SQLite #1672): blocking on the inner mutex
            # while still holding the guard.
            if not self._inner.acquire(timeout=self._timeout):
                raise AppLockTimeout(self._inner.name, "recursive-acquire")
            self._owner = me
            self._count = 1
        finally:
            self._guard.release()

    def release(self) -> None:
        """Release the recursive lock (inner still held while taking the guard)."""
        me = threading.get_ident()
        if self._owner != me:
            raise RuntimeError(f"{self.name} released by non-owner")
        if not self._guard.acquire(timeout=self._timeout):
            raise AppLockTimeout(self._guard.name, "recursive-release")
        try:
            self._count -= 1
            if self._count == 0:
                self._owner = None
                self._inner.release()
        finally:
            self._guard.release()

    @property
    def held(self) -> bool:
        """True when some thread currently owns the recursive lock."""
        return self._owner is not None
