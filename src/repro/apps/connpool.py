"""A miniature JDBC-style connection/statement layer.

Reproduces the four MySQL Connector/J (JDBC driver) deadlocks listed in
Table 1 of the paper.  In the real driver both ``Connection`` and
``Statement`` objects are synchronized; some statement methods lock the
statement and then call into the connection (locking it too), while some
connection methods lock the connection and then iterate over its open
statements (locking them) — two opposite nesting orders.

* **bug #2147**  — ``PreparedStatement.getWarnings()`` vs ``Connection.close()``
* **bug #14972** — ``Connection.prepareStatement()`` vs ``Statement.close()``
* **bug #31136** — ``PreparedStatement.executeQuery()`` vs ``Connection.close()``
* **bug #17709** — ``Statement.executeQuery()`` vs ``Connection.prepareStatement()``

Each bug corresponds to a distinct *pair of call sites*, so each produces
its own Dimmunix signature even though the underlying locks are the same
two objects.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .base import MiniApp


class Statement:
    """A plain (non-prepared) statement bound to a connection."""

    _ids = itertools.count(1)

    def __init__(self, connection: "Connection"):
        self.statement_id = next(Statement._ids)
        self.connection = connection
        self.lock = connection.app.make_rlock(f"statement-{self.statement_id}")
        self.closed = False
        self.warnings: List[str] = []

    # -- statement-first, connection-second methods ------------------------------------------

    def execute_query(self, sql: str) -> List[dict]:
        """Run a query: locks the statement, then the connection (bugs #31136/#17709)."""
        app = self.connection.app
        with app.holding(self.lock, "Statement.execute_query"):
            with app.holding(self.connection.lock, "Statement.execute_query"):
                return self.connection._run_query(sql)

    def get_warnings(self) -> List[str]:
        """Fetch warnings: locks the statement, then the connection (bug #2147)."""
        app = self.connection.app
        with app.holding(self.lock, "Statement.get_warnings"):
            with app.holding(self.connection.lock, "Statement.get_warnings"):
                return list(self.warnings) + self.connection._driver_warnings()

    def close(self) -> None:
        """Close the statement: locks the statement, then the connection (bug #14972)."""
        app = self.connection.app
        with app.holding(self.lock, "Statement.close"):
            with app.holding(self.connection.lock, "Statement.close"):
                self.closed = True
                self.connection._forget_statement(self)


class PreparedStatement(Statement):
    """A prepared statement: same locking discipline, distinct call sites."""

    def __init__(self, connection: "Connection", sql: str):
        super().__init__(connection)
        self.sql = sql
        self.parameters: Dict[int, object] = {}

    def set_parameter(self, index: int, value: object) -> None:
        """Bind a query parameter (statement lock only)."""
        with self.connection.app.holding(self.lock, "PreparedStatement.set_parameter"):
            self.parameters[index] = value

    def execute_query(self, sql: Optional[str] = None) -> List[dict]:
        """Run the prepared query (statement lock, then connection lock)."""
        return super().execute_query(sql if sql is not None else self.sql)


class Connection(MiniApp):
    """A database connection owning a set of open statements."""

    _ids = itertools.count(1)

    def __init__(self, runtime=None, acquire_timeout: Optional[float] = None):
        super().__init__(runtime=runtime, acquire_timeout=acquire_timeout)
        self.connection_id = next(Connection._ids)
        self.lock = self.make_rlock(f"connection-{self.connection_id}")
        self.statements: List[Statement] = []
        self.closed = False
        self._data: Dict[str, List[dict]] = {"t": [{"id": 1}, {"id": 2}]}

    # The app object for statements is the connection itself.
    @property
    def app(self) -> "Connection":
        return self

    # -- connection-first, statement-second methods -----------------------------------------------

    def prepare_statement(self, sql: str) -> PreparedStatement:
        """Create a prepared statement: locks the connection, then the new
        statement and the already-open statements (bugs #14972/#17709)."""
        with self.holding(self.lock, "Connection.prepare_statement"):
            statement = PreparedStatement(self, sql)
            # The driver registers the statement while still holding the
            # connection monitor, locking each open statement to update its
            # bookkeeping — this is the connection->statement nesting.
            for existing in list(self.statements):
                with self.holding(existing.lock, "Connection.prepare_statement"):
                    existing.warnings = existing.warnings[-8:]
            self.statements.append(statement)
            return statement

    def create_statement(self) -> Statement:
        """Create a plain statement (connection lock only; not deadlock prone)."""
        with self.holding(self.lock, "Connection.create_statement"):
            statement = Statement(self)
            self.statements.append(statement)
            return statement

    def close(self) -> None:
        """Close the connection: locks the connection, then every statement
        (bugs #2147/#31136)."""
        with self.holding(self.lock, "Connection.close"):
            for statement in list(self.statements):
                with self.holding(statement.lock, "Connection.close"):
                    statement.closed = True
            self.statements.clear()
            self.closed = True

    # -- internals used by statements (caller already holds the connection lock) -------------------

    def _run_query(self, sql: str) -> List[dict]:
        table = sql.split()[-1] if sql else "t"
        return [dict(row) for row in self._data.get(table, self._data["t"])]

    def _driver_warnings(self) -> List[str]:
        return ["connection warning"] if self.closed else []

    def _forget_statement(self, statement: Statement) -> None:
        if statement in self.statements:
            self.statements.remove(statement)
