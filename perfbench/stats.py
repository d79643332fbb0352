"""Pure helpers for the benchmark: percentiles, ratios, output checks."""

from __future__ import annotations

import math
from typing import Any, Sequence

TAIL_MARGIN = 10  # a reported percentile needs at least this many samples beyond it
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


def nearest_rank(samples: Sequence[float], percentile: float) -> tuple[float, int]:
    """(value at the nearest-rank percentile, number of samples beyond it)."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(samples)
    # The epsilon keeps float error in percentile * n from adding a rank.
    rank = max(1, math.ceil(percentile * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def highest_percentile(
    samples: Sequence[float],
    ladder: Sequence[float] = PERCENTILE_LADDER,
    margin: int = TAIL_MARGIN,
) -> float | None:
    """Highest percentile in ladder with at least margin samples beyond it."""
    for percentile in sorted(ladder, reverse=True):
        if samples and nearest_rank(samples, percentile)[1] >= margin:
            return percentile
    return None


def ratio(part: float, base: float) -> float:
    """part / base, 0.0 when the base is empty."""
    return part / base if base else 0.0


def trace_problems(sent_ids: Sequence[str], traces: Sequence[Any]) -> list[str]:
    """Every query has exactly one trace, in the same order, with its id."""
    got = [trace.query_id for trace in traces]
    problems = []
    if len(got) != len(sent_ids):
        problems.append(f"{len(got)} traces for {len(sent_ids)} queries")
    if len(set(got)) != len(got):
        problems.append("a query id has more than one trace")
    mismatched = sum(1 for want, have in zip(sent_ids, got) if want != have)
    if mismatched:
        problems.append(f"{mismatched} traces do not match their query id")
    return problems


def failed_count(sent_ids: Sequence[str], traces: Sequence[Any]) -> int:
    """Queries with no trace, or whose trace carries an error."""
    by_id: dict[str, list[Any]] = {}
    for trace in traces:
        by_id.setdefault(trace.query_id, []).append(trace)
    failed = 0
    for query_id in sent_ids:
        found = by_id.get(query_id)
        if not found or any(trace.error is not None for trace in found):
            failed += 1
    return failed
