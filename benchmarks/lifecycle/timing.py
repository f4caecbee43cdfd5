"""The estimator: fastest-of-R per slot, and nothing else.

A *round* is a fixed sequence of *slots* (one operation each) replayed
R times from the same starting state, so slot ``i`` does the same work R
times.  Host interference only ever adds time to deterministic
single-threaded work, so the cost of slot ``i`` is its minimum over the
rounds, and the three timing metrics are functions of those minima
alone.  Minima are taken per slot, never per round: on the sizing host
the fastest whole round still spread 10 % between processes while the
sum of per-slot minima held 5 %.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

Samples = list[list[tuple[str, float]]]


def nearest_rank(values: list[float], quantile: float) -> float:
    """The ``ceil(q * n)``-th smallest value (1-based), no interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]


def slot_minima(samples: Samples) -> list[tuple[str, float]]:
    """Per-slot fastest time over the rounds; every round must replay
    the identical slot sequence."""
    names = [name for name, _ in samples[0]]
    for index, round_slots in enumerate(samples):
        if [name for name, _ in round_slots] != names:
            raise ValueError(f"round {index} replayed a different slot sequence")
    return [
        (name, min(round_slots[i][1] for round_slots in samples))
        for i, name in enumerate(names)
    ]


@dataclass(frozen=True)
class Estimate:
    round_s: float
    op_p50_ms: float
    op_p95_ms: float
    #: p95 over all R x slots raw samples: what minima would hide if the
    #: program itself made tails (a periodic flush, a GC storm).
    raw_op_p95_ms: float
    #: Median whole round / ``round_s``: how disturbed the run was.
    host_noise: float
    rounds: int
    slots: int
    #: Whole rounds as they happened, in order (diagnostics only).
    whole_rounds: tuple[float, ...]
    #: ``(slot, fastest seconds)`` in round order (diagnostics only).
    minima: tuple[tuple[str, float], ...]


def estimate(samples: Samples) -> Estimate:
    named = slot_minima(samples)
    minima = [seconds for _, seconds in named]
    round_s = sum(minima)
    whole_rounds = [sum(s for _, s in round_slots) for round_slots in samples]
    raw = [s for round_slots in samples for _, s in round_slots]
    return Estimate(
        round_s=round_s,
        op_p50_ms=nearest_rank(minima, 0.50) * 1000.0,
        op_p95_ms=nearest_rank(minima, 0.95) * 1000.0,
        raw_op_p95_ms=nearest_rank(raw, 0.95) * 1000.0,
        host_noise=statistics.median(whole_rounds) / round_s,
        rounds=len(samples),
        slots=len(minima),
        whole_rounds=tuple(whole_rounds),
        minima=tuple(named),
    )
