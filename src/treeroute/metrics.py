"""Multi-label metrics, depth-stratified cost reporting, and dominance analysis.

Accuracy metrics follow the usual multi-label conventions: subset accuracy
is exact set equality, micro-F1 pools true/false positives over all
queries, macro-F1 averages per-class F1 over the whole catalog and scores
a class absent from both predictions and gold as perfect (1.0).
The depth report stratifies traces by exploration depth; its weighted row
is computed over all traces at once. For subset accuracy and the per-query
means that equals the share-weighted average of the strata (the paper's
reconstruction, which weighted_average checks); micro-F1 does not
decompose over strata, so pooling is its only correct overall value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .pipeline import QueryTrace

LabelSets = Sequence[frozenset[str] | set[str]]


def _check_paired(predictions: LabelSets, golds: LabelSets) -> None:
    if len(predictions) != len(golds):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(golds)} gold sets"
        )
    if not predictions:
        raise ValueError("metrics need at least one query")


def subset_accuracy(predictions: LabelSets, golds: LabelSets) -> float:
    """Fraction of queries whose predicted set equals the gold set exactly."""
    _check_paired(predictions, golds)
    exact = sum(1 for p, g in zip(predictions, golds) if set(p) == set(g))
    return exact / len(predictions)


def micro_f1(predictions: LabelSets, golds: LabelSets) -> float:
    """Pooled F1 over all label decisions; 1.0 when nothing was expected."""
    _check_paired(predictions, golds)
    tp = fp = fn = 0
    for predicted, gold in zip(predictions, golds):
        predicted, gold = set(predicted), set(gold)
        tp += len(predicted & gold)
        fp += len(predicted - gold)
        fn += len(gold - predicted)
    denominator = 2 * tp + fp + fn
    return 1.0 if denominator == 0 else 2 * tp / denominator


def macro_f1(predictions: LabelSets, golds: LabelSets, catalog: Sequence[str]) -> float:
    """Mean per-class F1 over the catalog.

    A class with no gold and no predicted examples scores 1.0.
    """
    _check_paired(predictions, golds)
    if not catalog:
        raise ValueError("macro F1 needs a nonempty catalog")
    scores = []
    for label in catalog:
        tp = fp = fn = 0
        for predicted, gold in zip(predictions, golds):
            hit, want = label in predicted, label in gold
            tp += hit and want
            fp += hit and not want
            fn += want and not hit
        denominator = 2 * tp + fp + fn
        scores.append(1.0 if denominator == 0 else 2 * tp / denominator)
    return sum(scores) / len(scores)


def weighted_average(shares: Sequence[float], values: Sequence[float]) -> float:
    """Share-weighted mean; shares must be non-negative and sum to ~1."""
    if len(shares) != len(values):
        raise ValueError(f"got {len(shares)} shares for {len(values)} values")
    if not shares:
        raise ValueError("weighted average needs at least one bucket")
    if any(s < 0 for s in shares):
        raise ValueError("shares must be non-negative")
    total = sum(shares)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"shares must sum to 1, got {total!r}")
    return sum(s * v for s, v in zip(shares, values))


@dataclass(frozen=True)
class DepthBucket:
    depth: int
    query_count: int
    query_share: float
    subset_accuracy: float
    micro_f1: float
    mean_latency_ms: float
    mean_prompt_tokens: float
    mean_total_calls: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DepthReport:
    buckets: tuple[DepthBucket, ...]
    weighted: DepthBucket

    def as_dict(self) -> dict:
        return {
            "buckets": [b.as_dict() for b in self.buckets],
            "weighted": self.weighted.as_dict(),
        }


def _bucket(
    depth: int,
    total: int,
    traces: Sequence[QueryTrace],
    golds: Mapping[str, frozenset[str] | set[str]],
) -> DepthBucket:
    predictions = [set(t.predicted_intents) for t in traces]
    gold_sets = [set(golds[t.query_id]) for t in traces]
    n = len(traces)
    return DepthBucket(
        depth=depth,
        query_count=n,
        query_share=n / total,
        subset_accuracy=subset_accuracy(predictions, gold_sets),
        micro_f1=micro_f1(predictions, gold_sets),
        mean_latency_ms=sum(t.ledger.latency_ms for t in traces) / n,
        mean_prompt_tokens=sum(t.ledger.prompt_tokens for t in traces) / n,
        mean_total_calls=sum(t.ledger.total_calls for t in traces) / n,
    )


def depth_report(
    traces: Sequence[QueryTrace],
    golds: Mapping[str, frozenset[str] | set[str]],
) -> DepthReport:
    """Stratify traces by depth; the weighted row covers all traces (depth -1)."""
    if not traces:
        raise ValueError("depth report needs at least one trace")
    missing = [t.query_id for t in traces if t.query_id not in golds]
    if missing:
        raise ValueError(f"no gold labels for queries: {', '.join(missing[:5])}")
    by_depth: dict[int, list[QueryTrace]] = {}
    for trace in traces:
        by_depth.setdefault(trace.depth, []).append(trace)
    total = len(traces)
    buckets = tuple(
        _bucket(depth, total, by_depth[depth], golds) for depth in sorted(by_depth)
    )
    return DepthReport(buckets=buckets, weighted=_bucket(-1, total, traces, golds))


@dataclass(frozen=True)
class ParetoPoint:
    """A labeled system: accuracy axes to maximize, cost axes to minimize."""

    label: str
    accuracy_axes: Mapping[str, float]
    cost_axes: Mapping[str, float]


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True when a is at least as good everywhere and better somewhere."""
    at_least_as_good = all(
        a.accuracy_axes[k] >= b.accuracy_axes[k] for k in a.accuracy_axes
    ) and all(a.cost_axes[k] <= b.cost_axes[k] for k in a.cost_axes)
    strictly_better = any(
        a.accuracy_axes[k] > b.accuracy_axes[k] for k in a.accuracy_axes
    ) or any(a.cost_axes[k] < b.cost_axes[k] for k in a.cost_axes)
    return at_least_as_good and strictly_better


def pareto_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated points, in input order."""
    if not points:
        raise ValueError("pareto frontier needs at least one point")
    accuracy_keys = set(points[0].accuracy_axes)
    cost_keys = set(points[0].cost_axes)
    for point in points[1:]:
        if set(point.accuracy_axes) != accuracy_keys or set(point.cost_axes) != cost_keys:
            raise ValueError(f"point {point.label!r} has mismatched axes")
    return [
        p
        for p in points
        if not any(dominates(q, p) for q in points if q is not p)
    ]
