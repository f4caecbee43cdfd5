"""Statement statistics: ``pg_stat_statements`` for the query service.

One :class:`StatementStats` per query *fingerprint* (see
:mod:`repro.cypher.fingerprint`): call and error counts, rows returned,
a fixed-bucket latency histogram with percentile estimation, result- and
parse-cache hits, and the per-query resource counters the engine /
matcher / store report through :mod:`repro.obs.record` (nodes scanned,
relationships expanded, binds attempted, procedure-cache hits, bytes
serialized).

The registry is bounded: when more distinct fingerprints than
``capacity`` have been seen, the *coldest* (least recently recorded)
aggregate is evicted, so an adversarial stream of distinct query shapes
holds a constant amount of memory while the hot statements an operator
actually cares about are never displaced.  ``evicted_total`` keeps
counting so a scrape can tell "small workload" from "churning registry".

Everything is guarded by one lock; a record is a dict lookup, a dozen
integer adds, and one bucket increment — negligible next to executing
the query it describes (measured as ``obs.overhead_pct`` by the
lifecycle benchmark's ``serve_refresh`` workload).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Iterable, Mapping

#: Histogram bucket upper bounds in seconds (+Inf implicit).  Finer at
#: the bottom than the service-level histogram: per-statement latencies
#: on an in-memory store are routinely sub-millisecond.
STATEMENT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Distinct fingerprints kept by default.
DEFAULT_CAPACITY = 512

#: Normalized query text is truncated in aggregates beyond this.
MAX_TEXT_CHARS = 500

#: Keys allowed to sort a snapshot (``GET /debug/statements?sort=``).
SORT_KEYS = ("total_seconds", "calls", "rows", "mean_ms", "p99_ms")


class StatementStats:
    """Aggregates for one statement fingerprint."""

    __slots__ = (
        "fingerprint",
        "query",
        "calls",
        "rows",
        "errors",
        "cache_hits",
        "latency_sum",
        "latency_min",
        "latency_max",
        "buckets",
        "counters",
        "first_seen",
        "last_seen",
    )

    def __init__(self, fingerprint: str, query: str):
        self.fingerprint = fingerprint
        self.query = query[:MAX_TEXT_CHARS]
        self.calls = 0
        self.rows = 0
        #: error code -> count (timeout, row_limit, busy, ...).
        self.errors: dict[str, int] = {}
        #: result-cache hits among ``calls``.
        self.cache_hits = 0
        self.latency_sum = 0.0
        self.latency_min = float("inf")
        self.latency_max = 0.0
        self.buckets = [0] * (len(STATEMENT_BUCKETS) + 1)  # last = +Inf
        #: resource counters (nodes_scanned, rels_expanded, ...).
        self.counters: dict[str, int] = {}
        self.first_seen = time.time()
        self.last_seen = self.first_seen

    # -- recording -------------------------------------------------------

    def observe(
        self,
        elapsed: float,
        rows: int,
        cached: bool,
        error: str | None,
        counters: Mapping[str, int] | None,
    ) -> None:
        self.calls += 1
        self.rows += rows
        if cached:
            self.cache_hits += 1
        if error is not None:
            self.errors[error] = self.errors.get(error, 0) + 1
        self.latency_sum += elapsed
        if elapsed < self.latency_min:
            self.latency_min = elapsed
        if elapsed > self.latency_max:
            self.latency_max = elapsed
        for index, bound in enumerate(STATEMENT_BUCKETS):
            if elapsed <= bound:
                self.buckets[index] += 1
                break
        else:
            self.buckets[-1] += 1
        if counters:
            own = self.counters
            for kind, count in counters.items():
                own[kind] = own.get(kind, 0) + count
        self.last_seen = time.time()

    # -- reading ---------------------------------------------------------

    def percentile(self, quantile: float) -> float:
        """Estimate a latency percentile (seconds) from the histogram.

        Linear interpolation inside the bucket that contains the target
        rank; the open-ended +Inf bucket reports the observed maximum.
        The estimate is always within the true percentile's bucket, so
        the error is bounded by that bucket's width (the property the
        registry tests assert against a sorted reference).
        """
        if not self.calls:
            return 0.0
        target = quantile / 100.0 * self.calls
        cumulative = 0
        for index, count in enumerate(self.buckets):
            if not count:
                continue
            lower = STATEMENT_BUCKETS[index - 1] if index else 0.0
            if index >= len(STATEMENT_BUCKETS):  # +Inf bucket
                return self.latency_max
            upper = STATEMENT_BUCKETS[index]
            if cumulative + count >= target:
                fraction = (target - cumulative) / count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                # Never report outside the observed range.
                return max(self.latency_min, min(self.latency_max, estimate))
            cumulative += count
        return self.latency_max

    def to_dict(self) -> dict[str, Any]:
        mean = self.latency_sum / self.calls if self.calls else 0.0
        return {
            "fingerprint": self.fingerprint,
            "query": self.query,
            "calls": self.calls,
            "rows": self.rows,
            "errors": dict(sorted(self.errors.items())),
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hits / self.calls, 4)
            if self.calls
            else 0.0,
            "total_seconds": round(self.latency_sum, 6),
            "mean_ms": round(mean * 1000, 3),
            "min_ms": round(self.latency_min * 1000, 3)
            if self.calls
            else 0.0,
            "max_ms": round(self.latency_max * 1000, 3),
            "p50_ms": round(self.percentile(50) * 1000, 3),
            "p95_ms": round(self.percentile(95) * 1000, 3),
            "p99_ms": round(self.percentile(99) * 1000, 3),
            "counters": dict(sorted(self.counters.items())),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }


class StatementRegistry:
    """Thread-safe bounded registry of per-fingerprint aggregates."""

    GUARDED_BY = {
        "_statements": "_lock",
        "recorded_total": "write:_lock",
        "evicted_total": "write:_lock",
        "capacity": "frozen",
    }

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: fingerprint -> stats, least recently *recorded* first.
        self._statements: OrderedDict[str, StatementStats] = OrderedDict()
        self.recorded_total = 0
        self.evicted_total = 0

    def record(
        self,
        fingerprint: str,
        query: str,
        *,
        elapsed: float,
        rows: int = 0,
        cached: bool = False,
        error: str | None = None,
        counters: Mapping[str, int] | None = None,
    ) -> None:
        """Fold one execution into its fingerprint's aggregate."""
        with self._lock:
            stats = self._statements.get(fingerprint)
            if stats is None:
                stats = StatementStats(fingerprint, query)
                self._statements[fingerprint] = stats
                while len(self._statements) > self.capacity:
                    self._statements.popitem(last=False)
                    self.evicted_total += 1
            else:
                self._statements.move_to_end(fingerprint)
            stats.observe(elapsed, rows, cached, error, counters)
            self.recorded_total += 1

    # -- reading ---------------------------------------------------------

    def get(self, fingerprint: str) -> StatementStats | None:
        with self._lock:
            return self._statements.get(fingerprint)

    def snapshot(
        self, top: int | None = None, sort: str = "total_seconds"
    ) -> dict[str, Any]:
        """JSON-able view for ``GET /debug/statements`` and ``repro top``,
        hottest statements first by ``sort`` (default total time)."""
        if sort not in SORT_KEYS:
            raise ValueError(
                f"unknown sort key {sort!r} (one of: {', '.join(SORT_KEYS)})"
            )
        with self._lock:
            rows = [stats.to_dict() for stats in self._statements.values()]
            tracked = len(self._statements)
            recorded_total = self.recorded_total
            evicted_total = self.evicted_total
        rows.sort(key=lambda item: item[sort], reverse=True)
        if top is not None:
            rows = rows[: max(0, top)]
        return {
            "capacity": self.capacity,
            "statements_tracked": tracked,
            "recorded_total": recorded_total,
            "evicted_total": evicted_total,
            "sort": sort,
            "statements": rows,
        }

    def info(self) -> dict[str, Any]:
        """Occupancy summary for /stats and /metrics."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "statements_tracked": len(self._statements),
                "recorded_total": self.recorded_total,
                "evicted_total": self.evicted_total,
            }

    def format_text(self, top: int = 10) -> str:
        """Human-readable dump (printed on server shutdown)."""
        snapshot = self.snapshot(top=top)
        rows = snapshot["statements"]
        if not rows:
            return ""
        lines = [
            f"top {len(rows)} of {snapshot['statements_tracked']} statement(s) "
            f"by total time ({snapshot['recorded_total']} calls recorded):",
            f"  {'calls':>7} {'rows':>9} {'p50ms':>8} {'p99ms':>8} "
            f"{'total s':>9} {'hit%':>5}  query",
        ]
        for row in rows:
            lines.append(
                f"  {row['calls']:>7,} {row['rows']:>9,} {row['p50_ms']:>8.2f} "
                f"{row['p99_ms']:>8.2f} {row['total_seconds']:>9.3f} "
                f"{row['cache_hit_rate'] * 100:>5.1f}  "
                f"{row['query'][:80]}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        with self._lock:
            self._statements.clear()

    def fingerprints(self) -> Iterable[str]:
        with self._lock:
            return list(self._statements)

    def __len__(self) -> int:
        with self._lock:
            return len(self._statements)
