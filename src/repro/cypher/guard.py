"""Per-query execution guards: time budgets and row limits.

A :class:`QueryGuard` is created per request by the admission controller
(:mod:`repro.server.admission`) and handed to
:meth:`repro.cypher.engine.CypherEngine.run`.  The engine and pattern
matcher call :meth:`QueryGuard.tick` from their inner loops, so a query
that blows its time budget aborts cooperatively mid-match instead of
holding a worker thread (and, for read queries, a read lock) forever.

Checking the clock on every tick would dominate tight matching loops, so
the deadline is only consulted each time the ticks pass a multiple of
``TICK_STRIDE``.
"""

from __future__ import annotations

import time

from repro.cypher.errors import QueryTimeoutError, RowLimitError

TICK_STRIDE = 256


class QueryGuard:
    """Cooperative execution limits for one query."""

    __slots__ = ("timeout", "max_rows", "_deadline", "_ticks")

    def __init__(self, timeout: float | None = None, max_rows: int | None = None):
        self.timeout = timeout
        self.max_rows = max_rows
        self._deadline = (time.monotonic() + timeout) if timeout else None
        self._ticks = 0

    def tick(self, count: int = 1) -> None:
        """Charges ``count`` units of work (a hop: a source row's pairs);
        raises on a blown deadline."""
        if self._deadline is None:
            return
        self._ticks += count
        if (self._ticks - count) // TICK_STRIDE == self._ticks // TICK_STRIDE:
            return
        if time.monotonic() > self._deadline:
            raise QueryTimeoutError(self.timeout)

    def check_deadline(self) -> None:
        """Unconditional deadline check (clause boundaries)."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeoutError(self.timeout)

    def check_rows(self, produced: int) -> None:
        """Raise when a result exceeds the row limit."""
        if self.max_rows is not None and produced > self.max_rows:
            raise RowLimitError(produced, self.max_rows)
