from __future__ import annotations

import random

import pytest

from treeroute.metrics import (
    DepthBucket,
    DepthReport,
    ParetoPoint,
    depth_report,
    dominates,
    macro_f1,
    micro_f1,
    pareto_frontier,
    subset_accuracy,
    weighted_average,
)
from treeroute.pipeline import CostLedger, QueryTrace

LABELS = ["a", "b", "c", "d"]


def _random_sets(rng, n):
    return [
        {label for label in LABELS if rng.random() < 0.4} for _ in range(n)
    ]


def test_subset_accuracy_exact_match_only():
    predictions = [{"a"}, {"a", "b"}, set(), {"c"}]
    golds = [{"a"}, {"a"}, set(), {"b"}]
    assert subset_accuracy(predictions, golds) == 0.5


def test_micro_f1_frozen_example():
    # One query: predicted {a}, gold {a, b} -> tp=1, fp=0, fn=1 -> 2/3.
    assert micro_f1([{"a"}], [{"a", "b"}]) == pytest.approx(2 / 3, abs=1e-12)


def test_micro_f1_pools_across_queries():
    predictions = [{"a"}, {"b", "c"}]
    golds = [{"a", "b"}, {"b"}]
    # tp = 1 + 1, fp = 0 + 1, fn = 1 + 0 -> 4 / (4 + 1 + 1).
    assert micro_f1(predictions, golds) == pytest.approx(4 / 6, abs=1e-12)


def test_micro_f1_empty_everything_is_perfect():
    assert micro_f1([set(), set()], [set(), set()]) == 1.0
    assert subset_accuracy([set()], [set()]) == 1.0


def test_paired_length_validation():
    with pytest.raises(ValueError):
        micro_f1([{"a"}], [])
    with pytest.raises(ValueError):
        subset_accuracy([], [])


def test_micro_f1_matches_counting_oracle_randomized():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        predictions = _random_sets(rng, n)
        golds = _random_sets(rng, n)
        tp = fp = fn = 0
        for predicted, gold in zip(predictions, golds):
            for label in LABELS:
                if label in predicted and label in gold:
                    tp += 1
                elif label in predicted:
                    fp += 1
                elif label in gold:
                    fn += 1
        expected = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        assert micro_f1(predictions, golds) == pytest.approx(expected, abs=1e-12)


def test_macro_f1_zero_support_conventions():
    predictions = [{"a"}]
    golds = [{"a"}]
    catalog = ["a", "b"]
    # Class b has no gold or predicted examples, so it scores 1.0.
    assert macro_f1(predictions, golds, catalog) == 1.0
    predictions = [{"a", "b"}]
    # Now b is a pure false positive: f1(a)=1, f1(b)=0.
    assert macro_f1(predictions, golds, catalog) == 0.5


def test_macro_f1_validation():
    with pytest.raises(ValueError, match="catalog"):
        macro_f1([{"a"}], [{"a"}], [])


def test_macro_f1_matches_per_class_oracle_randomized():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 10)
        predictions = _random_sets(rng, n)
        golds = _random_sets(rng, n)
        scores = []
        for label in LABELS:
            tp = sum(1 for p, g in zip(predictions, golds) if label in p and label in g)
            fp = sum(1 for p, g in zip(predictions, golds) if label in p and label not in g)
            fn = sum(1 for p, g in zip(predictions, golds) if label not in p and label in g)
            scores.append(1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
        expected = sum(scores) / len(scores)
        assert macro_f1(predictions, golds, LABELS) == pytest.approx(expected, abs=1e-12)


def test_weighted_average_frozen_values():
    shares = [0.2692, 0.0156, 0.6246, 0.0906]
    accuracies = [37.90, 21.40, 27.70, 13.50]
    tokens = [2116.0, 6227.0, 8140.0, 10366.0]
    assert weighted_average(shares, accuracies) == pytest.approx(29.07, abs=0.05)
    assert weighted_average(shares, tokens) == pytest.approx(6689.0, abs=5.0)


def test_weighted_average_validation():
    with pytest.raises(ValueError):
        weighted_average([0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_average([], [])
    with pytest.raises(ValueError):
        weighted_average([0.7, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_average([1.5, -0.5], [1.0, 2.0])


def _trace(qid, depth, intents, latency, tokens, calls):
    return QueryTrace(
        query_id=qid,
        mode="tree" if depth else "simple",
        qci=0.5,
        signals={},
        depth=depth,
        node_count=0,
        pruned_node_count=0,
        evidence=[],
        predicted_intents=sorted(intents),
        ledger=CostLedger(
            calls_by_role={},
            total_calls=calls,
            prompt_tokens=tokens,
            latency_ms=latency,
        ),
        warnings=[],
    )


def test_depth_report_reconstruction():
    golds = {
        "q1": {"a"},
        "q2": {"a", "b"},
        "q3": {"b"},
        "q4": {"c"},
        "q5": {"a"},
    }
    traces = [
        _trace("q1", 0, {"a"}, 10.0, 100, 1),
        _trace("q2", 0, {"a"}, 14.0, 120, 1),
        _trace("q3", 2, {"b"}, 50.0, 900, 6),
        _trace("q4", 2, {"b"}, 70.0, 1100, 8),
        _trace("q5", 3, {"a"}, 90.0, 2000, 11),
    ]
    report = depth_report(traces, golds)
    assert isinstance(report, DepthReport)
    assert [b.depth for b in report.buckets] == [0, 2, 3]
    d0, d2, d3 = report.buckets
    assert d0.query_count == 2 and d0.query_share == pytest.approx(0.4)
    assert d0.subset_accuracy == 0.5
    assert d2.subset_accuracy == 0.5
    assert d3.subset_accuracy == 1.0
    assert d0.mean_latency_ms == pytest.approx(12.0)
    assert d2.mean_prompt_tokens == pytest.approx(1000.0)

    weighted = report.weighted
    assert weighted.depth == -1
    assert weighted.query_count == 5
    # Share-weighted columns reconstruct the direct full-population means.
    assert weighted.mean_latency_ms == pytest.approx(
        sum(t.ledger.latency_ms for t in traces) / 5, abs=1e-9
    )
    assert weighted.mean_prompt_tokens == pytest.approx(
        sum(t.ledger.prompt_tokens for t in traces) / 5, abs=1e-9
    )
    assert weighted.mean_total_calls == pytest.approx(
        sum(t.ledger.total_calls for t in traces) / 5, abs=1e-9
    )
    assert weighted.subset_accuracy == pytest.approx(3 / 5, abs=1e-9)
    # Micro-F1 is pooled globally, not share-weighted.
    assert weighted.micro_f1 == pytest.approx(
        micro_f1(
            [set(t.predicted_intents) for t in traces],
            [set(golds[t.query_id]) for t in traces],
        ),
        abs=1e-12,
    )


def test_depth_report_randomized_reconstruction():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 40)
        golds = {}
        traces = []
        for i in range(n):
            qid = f"q{i}"
            golds[qid] = set(rng.sample(LABELS, rng.randint(0, 3)))
            traces.append(
                _trace(
                    qid,
                    rng.choice([0, 1, 2, 3]),
                    set(rng.sample(LABELS, rng.randint(0, 3))),
                    rng.uniform(1, 100),
                    rng.randint(10, 5000),
                    rng.randint(1, 12),
                )
            )
        report = depth_report(traces, golds)
        assert sum(b.query_count for b in report.buckets) == n
        assert sum(b.query_share for b in report.buckets) == pytest.approx(1.0, abs=1e-9)
        assert report.weighted.mean_latency_ms == pytest.approx(
            sum(t.ledger.latency_ms for t in traces) / n, abs=1e-9
        )


def test_depth_report_requires_golds_for_every_trace():
    traces = [_trace("q1", 0, {"a"}, 1.0, 10, 1)]
    with pytest.raises(ValueError, match="q1"):
        depth_report(traces, {})
    with pytest.raises(ValueError):
        depth_report([], {})


def _point(label, accuracy, latency, calls=None):
    cost = {"latency": latency}
    if calls is not None:
        cost["calls"] = calls
    return ParetoPoint(label=label, accuracy_axes={"f1": accuracy}, cost_axes=cost)


def test_dominates_needs_strictness_somewhere():
    a = _point("a", 0.8, 10.0)
    twin = _point("twin", 0.8, 10.0)
    better = _point("better", 0.9, 10.0)
    cheaper = _point("cheaper", 0.8, 5.0)
    assert not dominates(a, twin)
    assert dominates(better, a)
    assert dominates(cheaper, a)
    assert not dominates(a, better)


def test_identical_points_are_both_on_the_frontier():
    a = _point("a", 0.8, 10.0)
    twin = _point("twin", 0.8, 10.0)
    assert pareto_frontier([a, twin]) == [a, twin]


def test_frontier_preserves_input_order():
    points = [
        _point("slow_good", 0.9, 20.0),
        _point("fast_bad", 0.6, 5.0),
        _point("dominated", 0.6, 21.0),
    ]
    frontier = pareto_frontier(points)
    assert [p.label for p in frontier] == ["slow_good", "fast_bad"]


def test_frontier_axis_mismatch():
    with pytest.raises(ValueError, match="mismatched axes"):
        pareto_frontier([_point("a", 0.8, 10.0), _point("b", 0.8, 10.0, calls=3.0)])
    with pytest.raises(ValueError):
        pareto_frontier([])


def test_frontier_matches_brute_force_randomized():
    rng = random.Random(13)
    for _ in range(100):
        points = [
            _point(
                f"p{i}",
                round(rng.uniform(0, 1), 2),
                round(rng.uniform(1, 20), 2),
                calls=float(rng.randint(1, 10)),
            )
            for i in range(rng.randint(1, 12))
        ]
        frontier = pareto_frontier(points)
        for p in points:
            dominated = any(dominates(q, p) for q in points if q is not p)
            assert (p in frontier) == (not dominated)


def test_bucket_as_dict_round_trip():
    bucket = DepthBucket(
        depth=2,
        query_count=3,
        query_share=0.3,
        subset_accuracy=0.5,
        micro_f1=0.6,
        mean_latency_ms=12.5,
        mean_prompt_tokens=800.0,
        mean_total_calls=6.0,
    )
    data = bucket.as_dict()
    assert data["depth"] == 2
    assert data["mean_prompt_tokens"] == 800.0
