"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line after its assertions, so a verbose run
reads as a checklist. Tolerances and expected values are pinned here and
must not be loosened without revisiting the corresponding criterion.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np
import pytest
from conftest import build_workload, make_engine

from treeroute.metrics import (
    ParetoPoint,
    dominates,
    macro_f1,
    micro_f1,
    pareto_frontier,
    subset_accuracy,
    weighted_average,
)
from treeroute.backends import estimate_tokens
from treeroute.pipeline import ExecutionMode, run_workload, write_traces
from treeroute.pruning import GateOutcome, GateThresholds, prune, quantitative_gate
from treeroute.rerank import SelectionRule, select_topk
from treeroute.routing import RouteMode, SemanticLevel, assign_depth, route
from treeroute.signals import QciWeights, SignalVector, compute_qci
from treeroute.tree import expand
from treeroute.vectorstore import Passage, ScoredPassage, build_index
from treeroute.embeddings import HashedBagEmbedder


def test_criterion_01_qci_weights_and_oracle():
    started = time.perf_counter()
    weights = QciWeights()
    assert sum(weights.as_dict().values()) == 1.00

    rng = random.Random(101)
    for _ in range(1000):
        sv = SignalVector(
            wh=rng.randint(0, 1),
            conjunction=rng.randint(0, 1),
            comparison=rng.randint(0, 1),
            sequence=rng.randint(0, 1),
            length=rng.random(),
        )
        oracle = sum(
            w * s
            for w, s in zip(
                (weights.wh, weights.conjunction, weights.comparison, weights.sequence, weights.length),
                (sv.wh, sv.conjunction, sv.comparison, sv.sequence, sv.length),
            )
        )
        assert abs(compute_qci(sv, weights) - oracle) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print("ACCEPTANCE 1 qci weights + summation oracle: PASS")


def test_criterion_02_routing_truth_table():
    deviations = []
    for conj, comp in itertools.product((0, 1), repeat=2):
        sv = SignalVector(wh=0, conjunction=conj, comparison=comp, sequence=0, length=0.0)
        for qci in (0.0, 0.05, 0.0999, 0.10, 0.5, 1.0):
            got = route(sv, qci)
            if conj or comp:
                want = RouteMode.TREE
            elif qci < 0.10:
                want = RouteMode.SIMPLE
            else:
                want = RouteMode.HYBRID
            if got is not want:
                deviations.append((conj, comp, qci, got, want))
    assert deviations == []
    # The boundary itself is hybrid: the comparison is strict.
    assert route(SignalVector(0, 0, 0, 0, 0.0), 0.10) is RouteMode.HYBRID
    assert route(SignalVector(0, 0, 0, 0, 0.0), 0.0999) is RouteMode.SIMPLE
    print("ACCEPTANCE 2 routing truth table: PASS")


def test_criterion_03_depth_assignment():
    assert assign_depth(RouteMode.SIMPLE) == 0
    assert assign_depth(RouteMode.HYBRID) == 0
    assert assign_depth(RouteMode.TREE, SemanticLevel.LOW) == 1
    assert assign_depth(RouteMode.TREE, SemanticLevel.MID) == 2
    assert assign_depth(RouteMode.TREE, SemanticLevel.HIGH) == 3
    with pytest.raises(ValueError):
        assign_depth(RouteMode.TREE)
    for mode in (RouteMode.SIMPLE, RouteMode.HYBRID):
        for level in SemanticLevel:
            with pytest.raises(ValueError):
                assign_depth(mode, level)
    print("ACCEPTANCE 3 depth assignment table: PASS")


def test_criterion_04_gate_boundaries_and_judge_volume():
    thresholds = GateThresholds()
    assert quantitative_gate(0.70, thresholds) is GateOutcome.RETAIN
    assert quantitative_gate(0.35, thresholds) is GateOutcome.BORDERLINE
    for sim in (0.3499, 0.1, 0.0, -0.2):
        assert quantitative_gate(sim, thresholds) is GateOutcome.DISCARD

    query = np.array([1.0, 0.0])
    rng = random.Random(104)
    total_judged = 0
    for _ in range(10_000):
        n = rng.randint(0, 8)
        sims = [rng.uniform(0.0, 1.0) for _ in range(n)]
        table = {
            f"p{i}": np.array([math.cos(math.acos(s)), math.sin(math.acos(s))])
            for i, s in enumerate(sims)
        }
        candidates = [
            ScoredPassage(passage=Passage(id=f"p{i}", text=f"t{i}"), score=0.5)
            for i in range(n)
        ]
        judged = 0

        def judge(passage, sim):
            nonlocal judged
            judged += 1
            return True

        result = prune(query, candidates, thresholds, judge, embedding_of=table)
        # Independent oracle: apply the band rule to the same dot products
        # the gate sees.
        expected = sum(
            1
            for i in range(n)
            if 0.35 <= float(np.dot(query, table[f"p{i}"])) < 0.70
        )
        assert result.judge_calls == judged == expected
        total_judged += judged
    assert total_judged > 0

    high_sims = [0.70, 0.85, 1.0]
    table = {
        f"p{i}": np.array([math.cos(math.acos(s)), math.sin(math.acos(s))])
        for i, s in enumerate(high_sims)
    }
    # cos(acos(0.70)) can land a hair below 0.70; nudge it clearly above.
    table["p0"] = np.array([math.cos(math.acos(0.701)), math.sin(math.acos(0.701))])
    candidates = [
        ScoredPassage(passage=Passage(id=f"p{i}", text=f"t{i}"), score=0.5)
        for i in range(3)
    ]

    def forbidden(passage, sim):
        raise AssertionError("no judge call expected when every sim >= 0.70")

    result = prune(query, candidates, thresholds, forbidden, embedding_of=table)
    assert result.judge_calls == 0
    assert len(result.survivors) == 3
    print("ACCEPTANCE 4 pruning gate boundaries + judge volume: PASS")


def test_criterion_05_tree_structure_bounds():
    embedder = HashedBagEmbedder(dimension=32)
    store = build_index(
        [Passage(id=f"p{i}", text=f"filler passage {i}") for i in range(4)], embedder
    )

    def keep_all(sub_query, candidates):
        from treeroute.pruning import PruneResult

        return PruneResult(survivors=list(candidates), judge_calls=0)

    def split(text):
        tokens = text.split()
        mid = (len(tokens) + 1) // 2
        left, right = " ".join(tokens[:mid]), " ".join(tokens[mid:])
        if left and right and left != right:
            return left, right
        return f"{text} details", f"{text} context"

    tree = expand(
        "alpha beta gamma delta epsilon zeta eta theta",
        3,
        store=store,
        embedder=embedder.embed,
        pruner=keep_all,
        decomposer=split,
    )
    assert tree.node_count == 15
    assert tree.leaf_count == 8
    assert tree.decompose_calls == 7

    rng = random.Random(105)
    for trial in range(500):
        depth = rng.randint(1, 3)

        def random_pruner(sub_query, candidates):
            from treeroute.pruning import PruneResult

            if rng.random() < 0.35:
                return PruneResult(survivors=[], judge_calls=0)
            return PruneResult(survivors=list(candidates), judge_calls=0)

        tree = expand(
            "alpha beta gamma delta epsilon zeta eta theta",
            depth,
            store=store,
            embedder=embedder.embed,
            pruner=random_pruner,
            decomposer=split,
        )
        assert tree.leaf_count <= 2**depth
    print("ACCEPTANCE 5 tree structure bounds: PASS")


def test_criterion_06_select_topk_oracle():
    rule = SelectionRule()  # top 10 union score >= 0.70, capped at 10
    rng = random.Random(106)
    for _ in range(10_000):
        n = rng.randint(0, 25)
        scored = [
            ScoredPassage(
                passage=Passage(id=f"p{i:02d}", text=f"t{i}"),
                score=round(rng.random(), 3),
            )
            for i in range(n)
        ]
        ranked = sorted(scored, key=lambda c: (-c.score, c.passage.id))
        oracle = [
            c
            for rank, c in enumerate(ranked, start=1)
            if rank <= rule.top_rank or c.score >= rule.score_floor
        ][: rule.cap]
        got = select_topk(scored, rule)
        assert got == oracle
        assert len(got) <= 10
    print("ACCEPTANCE 6 evidence selection oracle: PASS")


def test_criterion_07_token_estimator_and_weighted_reconstruction():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abc") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("a" * 10) == 2
    for text in ("hello world", "x" * 999):
        assert estimate_tokens(text) == len(text) // 4

    shares = [0.2692, 0.0156, 0.6246, 0.0906]
    mean_tokens = [2116.0, 6227.0, 8140.0, 10366.0]
    subset_accuracies = [37.90, 21.40, 27.70, 13.50]
    assert weighted_average(shares, mean_tokens) == pytest.approx(6689.0, abs=5.0)
    assert weighted_average(shares, subset_accuracies) == pytest.approx(29.07, abs=0.05)
    print("ACCEPTANCE 7 token estimator + weighted reconstruction: PASS")


def test_criterion_08_pareto_frontier_reference_points():
    adaptive = ParetoPoint(
        label="adaptive",
        accuracy_axes={"micro_f1": 71.79},
        cost_axes={"latency_s": 9.73},
    )
    fixed = ParetoPoint(
        label="fixed-depth",
        accuracy_axes={"micro_f1": 70.97},
        cost_axes={"latency_s": 15.58},
    )
    single = ParetoPoint(
        label="single-step",
        accuracy_axes={"micro_f1": 63.16},
        cost_axes={"latency_s": 5.61},
    )
    points = [adaptive, fixed, single]
    frontier = pareto_frontier(points)
    assert [p.label for p in frontier] == ["adaptive", "single-step"]
    assert dominates(adaptive, fixed)

    # Brute-force dominance check over every pair.
    for p in points:
        expected_on_frontier = not any(
            all(q.accuracy_axes[k] >= p.accuracy_axes[k] for k in p.accuracy_axes)
            and all(q.cost_axes[k] <= p.cost_axes[k] for k in p.cost_axes)
            and (
                any(q.accuracy_axes[k] > p.accuracy_axes[k] for k in p.accuracy_axes)
                or any(q.cost_axes[k] < p.cost_axes[k] for k in p.cost_axes)
            )
            for q in points
            if q is not p
        )
        assert (p in frontier) == expected_on_frontier

    adaptive4 = ParetoPoint(
        label="adaptive",
        accuracy_axes={"micro_f1": 71.79},
        cost_axes={"latency_s": 9.73, "llm_calls": 6.01, "prompt_tokens": 6689.0},
    )
    fixed4 = ParetoPoint(
        label="fixed-depth",
        accuracy_axes={"micro_f1": 70.97},
        cost_axes={"latency_s": 15.58, "llm_calls": 10.54, "prompt_tokens": 7417.0},
    )
    assert dominates(adaptive4, fixed4)
    assert not dominates(fixed4, adaptive4)
    print("ACCEPTANCE 8 reference pareto frontier: PASS")


def test_criterion_09_call_ledger_arithmetic():
    started = time.perf_counter()
    workload = build_workload(200)

    standard = run_workload(make_engine(), workload, mode=ExecutionMode.STANDARD_RAG)
    assert all(t.ledger.total_calls == 2 for t in standard)
    assert all(t.error is None for t in standard)

    adaptive = run_workload(make_engine(), workload)
    shallow = [t for t in adaptive if t.depth == 0]
    deep = [t for t in adaptive if t.depth > 0]
    assert shallow and deep, "workload must exercise both paths"
    for trace in shallow:
        assert trace.ledger.calls_by_role["decomposer"] == 0
        assert trace.ledger.calls_by_role["judge"] == 0
        assert trace.ledger.calls_by_role["reranker"] == 0
        assert trace.ledger.calls_by_role["intent_classifier"] == 1

    fixed = run_workload(
        make_engine(apm_hi=0.0, apm_lo=0.0),
        workload,
        mode=ExecutionMode.FIXED_DEPTH_3,
    )
    for trace in fixed:
        assert trace.ledger.calls_by_role["decomposer"] == 7
        assert trace.ledger.calls_by_role["reranker"] == 1
        assert trace.ledger.calls_by_role["intent_classifier"] == 1
        assert trace.ledger.calls_by_role["judge"] == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 9 took {elapsed:.2f}s"
    print("ACCEPTANCE 9 call ledger arithmetic: PASS")


def test_criterion_10_monotone_cost_across_forced_depths():
    engine = make_engine(apm_hi=0.0, apm_lo=0.0)
    workload = build_workload(16)
    means = []
    for depth in (0, 1, 2, 3):
        traces = run_workload(engine, workload, force_depth=depth)
        means.append(sum(t.ledger.prompt_tokens for t in traces) / len(traces))
    assert means[0] < means[1] < means[2] < means[3], means
    print("ACCEPTANCE 10 monotone prompt-token cost by depth: PASS")


def test_criterion_11_metrics_oracles():
    labels = ["a", "b", "c", "d", "e"]
    rng = random.Random(111)
    for _ in range(200):
        n = rng.randint(1, 15)
        predictions = [
            {label for label in labels if rng.random() < 0.35} for _ in range(n)
        ]
        golds = [{label for label in labels if rng.random() < 0.35} for _ in range(n)]

        exact = sum(1 for p, g in zip(predictions, golds) if p == g)
        assert abs(subset_accuracy(predictions, golds) - exact / n) <= 1e-12

        tp = fp = fn = 0
        for predicted, gold in zip(predictions, golds):
            for label in labels:
                hit, want = label in predicted, label in gold
                tp += hit and want
                fp += hit and not want
                fn += want and not hit
        micro = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        assert abs(micro_f1(predictions, golds) - micro) <= 1e-12

        per_class = []
        for label in labels:
            ctp = sum(1 for p, g in zip(predictions, golds) if label in p and label in g)
            cfp = sum(1 for p, g in zip(predictions, golds) if label in p and label not in g)
            cfn = sum(1 for p, g in zip(predictions, golds) if label not in p and label in g)
            per_class.append(
                1.0 if ctp + cfp + cfn == 0 else 2 * ctp / (2 * ctp + cfp + cfn)
            )
        macro = sum(per_class) / len(per_class)
        assert abs(macro_f1(predictions, golds, labels) - macro) <= 1e-12
    print("ACCEPTANCE 11 metrics oracles: PASS")


def test_criterion_12_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    workload = build_workload(200)
    first, second = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    write_traces(first, run_workload(make_engine(), workload))
    write_traces(second, run_workload(make_engine(), workload))
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 12 took {elapsed:.2f}s"
    print("ACCEPTANCE 12 end-to-end determinism: PASS")
