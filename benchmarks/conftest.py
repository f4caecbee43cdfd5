"""Benchmark fixtures and paper-vs-measured reporting.

One medium-scale world and knowledge graph are built per session; each
benchmark exercises one table or figure of the paper and records its
paper-vs-measured comparison, which is printed at session end and
written to ``benchmarks/results_latest.md``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world

_REPORT_ROWS: list[tuple[str, list[str], list[list[str]]]] = []


def record_comparison(experiment: str, header: list[str], rows: list[list]) -> None:
    """Register one experiment's paper-vs-measured table."""
    _REPORT_ROWS.append(
        (experiment, [str(h) for h in header], [[str(c) for c in row] for row in rows])
    )


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    rows = [row + [""] * (len(header) - len(row)) for row in rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        " | ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "-+-".join("-" * w for w in widths),
    ]
    lines += [
        " | ".join(row[i].ljust(widths[i]) for i in range(len(header)))
        for row in rows
    ]
    return "\n".join(lines)


def pytest_sessionfinish(session, exitstatus):
    if not _REPORT_ROWS:
        return
    chunks = ["", "=" * 72, "PAPER vs MEASURED (synthetic world, shape comparison)", "=" * 72]
    for experiment, header, rows in _REPORT_ROWS:
        chunks.append(f"\n## {experiment}\n")
        chunks.append(_format_table(header, rows))
    report = "\n".join(chunks)
    print(report)
    out = Path(__file__).parent / "results_latest.md"
    out.write_text(report.replace("=" * 72, "") + "\n", encoding="utf-8")


class _Benchmark:
    """The ``benchmark`` fixture the paper-result tests call their code
    through: ``benchmark(fn, *args, **kwargs)`` calls it once, and
    ``benchmark.pedantic(fn, args=..., kwargs=..., rounds=...)`` once per
    round; both return the last result.  Timing is the lifecycle
    benchmark's job (``benchmarks/lifecycle``)."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        result = None
        for _ in range(rounds):
            result = fn(*args, **(kwargs or {}))
        return result


@pytest.fixture
def benchmark():
    return _Benchmark()


@pytest.fixture(scope="session")
def bench_world():
    """The medium synthetic world used by all benchmarks."""
    return build_world(WorldConfig.medium())


@pytest.fixture(scope="session")
def bench_iyp(bench_world):
    """The knowledge graph built from the benchmark world."""
    iyp, report = build_iyp(bench_world)
    assert report.ok, report.crawler_errors
    return iyp
