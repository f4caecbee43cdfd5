"""The bounded statement registry: aggregation, eviction, percentiles.

The concurrency test hammers one registry from many threads; the
percentile test checks the histogram estimate against a sorted
reference, asserting the error stays within the containing bucket's
width (the documented bound).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.obs import StatementRegistry
from repro.obs.statements import SORT_KEYS, STATEMENT_BUCKETS


def _bucket_bounds(value: float) -> tuple[float, float]:
    """The histogram bucket (lower, upper) containing ``value``."""
    lower = 0.0
    for upper in STATEMENT_BUCKETS:
        if value <= upper:
            return lower, upper
        lower = upper
    return lower, float("inf")


class TestAggregation:
    def test_repeat_calls_fold_into_one_aggregate(self):
        registry = StatementRegistry()
        for _ in range(5):
            registry.record("abc", "MATCH (a) RETURN a", elapsed=0.01, rows=3)
        stats = registry.get("abc")
        assert stats.calls == 5
        assert stats.rows == 15
        assert registry.recorded_total == 5
        assert len(registry) == 1

    def test_errors_cache_hits_and_counters_accumulate(self):
        registry = StatementRegistry()
        registry.record(
            "abc", "Q", elapsed=0.01, rows=1,
            counters={"nodes_scanned": 10, "bind_attempt": 4},
        )
        registry.record("abc", "Q", elapsed=0.02, cached=True)
        registry.record("abc", "Q", elapsed=0.5, error="timeout")
        registry.record(
            "abc", "Q", elapsed=0.01, counters={"nodes_scanned": 5}
        )
        row = registry.get("abc").to_dict()
        assert row["calls"] == 4
        assert row["errors"] == {"timeout": 1}
        assert row["cache_hits"] == 1
        assert row["counters"]["nodes_scanned"] == 15
        assert row["counters"]["bind_attempt"] == 4


class TestBoundedness:
    def test_capacity_is_enforced_with_lru_eviction(self):
        registry = StatementRegistry(capacity=4)
        for i in range(10):
            registry.record(f"fp{i}", f"Q{i}", elapsed=0.001)
        assert len(registry) == 4
        assert registry.evicted_total == 6
        # The most recently recorded fingerprints survive.
        assert set(registry.fingerprints()) == {"fp6", "fp7", "fp8", "fp9"}

    def test_recording_refreshes_recency(self):
        registry = StatementRegistry(capacity=2)
        registry.record("old", "Q", elapsed=0.001)
        registry.record("hot", "Q", elapsed=0.001)
        registry.record("old", "Q", elapsed=0.001)  # touch: now newest
        registry.record("new", "Q", elapsed=0.001)  # evicts "hot"
        assert set(registry.fingerprints()) == {"old", "new"}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            StatementRegistry(capacity=0)


class TestConcurrency:
    def test_many_threads_one_registry(self):
        """8 threads × 500 records against capacity 16: no lost updates
        on the totals, and the size bound holds throughout."""
        registry = StatementRegistry(capacity=16)
        threads = 8
        per_thread = 500
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for i in range(per_thread):
                    fingerprint = f"fp{rng.randrange(64)}"
                    registry.record(
                        fingerprint, f"QUERY {fingerprint}",
                        elapsed=rng.random() / 100, rows=i % 7,
                    )
                    assert len(registry) <= 16
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        assert registry.recorded_total == threads * per_thread
        snapshot = registry.snapshot()
        assert snapshot["statements_tracked"] <= 16
        calls_kept = sum(row["calls"] for row in snapshot["statements"])
        assert calls_kept <= threads * per_thread


class TestPercentiles:
    def test_percentiles_match_sorted_reference_within_bucket_width(self):
        registry = StatementRegistry()
        rng = random.Random(20240501)
        samples = [rng.uniform(0.0002, 0.2) for _ in range(2000)]
        for sample in samples:
            registry.record("abc", "Q", elapsed=sample)
        samples.sort()
        stats = registry.get("abc")
        for quantile in (50, 95, 99):
            reference = samples[
                min(len(samples) - 1, int(quantile / 100 * len(samples)))
            ]
            estimate = stats.percentile(quantile)
            lower, upper = _bucket_bounds(reference)
            assert abs(estimate - reference) <= (upper - lower), (
                f"p{quantile}: estimate {estimate} vs reference {reference}"
            )

    def test_percentiles_clamp_to_observed_range(self):
        registry = StatementRegistry()
        for _ in range(10):
            registry.record("abc", "Q", elapsed=0.003)
        stats = registry.get("abc")
        assert stats.percentile(50) == pytest.approx(0.003, abs=0.0025)
        assert stats.percentile(99) <= stats.latency_max
        assert stats.percentile(1) >= stats.latency_min

    def test_overflow_bucket_reports_observed_max(self):
        registry = StatementRegistry()
        registry.record("abc", "Q", elapsed=45.0)  # beyond the last bound
        assert registry.get("abc").percentile(99) == 45.0

    def test_no_calls_is_zero(self):
        from repro.obs.statements import StatementStats

        assert StatementStats("x", "Q").percentile(99) == 0.0


class TestSnapshot:
    def test_snapshot_sorts_and_truncates(self):
        registry = StatementRegistry()
        registry.record("slow", "SLOW", elapsed=1.0)
        registry.record("fast", "FAST", elapsed=0.001)
        registry.record("busy", "BUSY", elapsed=0.01)
        registry.record("busy", "BUSY", elapsed=0.01)
        by_time = registry.snapshot(top=2)
        assert [row["fingerprint"] for row in by_time["statements"]] == [
            "slow", "busy",
        ]
        by_calls = registry.snapshot(sort="calls")
        assert by_calls["statements"][0]["fingerprint"] == "busy"

    def test_unknown_sort_key_raises(self):
        registry = StatementRegistry()
        with pytest.raises(ValueError):
            registry.snapshot(sort="nope")
        assert "total_seconds" in SORT_KEYS

    def test_format_text_lists_hot_statements(self):
        registry = StatementRegistry()
        assert registry.format_text() == ""
        registry.record("abc", "MATCH (a:AS) RETURN a", elapsed=0.25, rows=12)
        text = registry.format_text()
        assert "MATCH (a:AS) RETURN a" in text
        assert "1 statement(s)" in text
