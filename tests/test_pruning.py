from __future__ import annotations

import math
import random

import numpy as np
import pytest
from conftest import scalar_fold, stored_row
from hypothesis import given
from hypothesis import strategies as st

from treeroute.pruning import (
    GateOutcome,
    GateThresholds,
    PruneResult,
    prune,
    quantitative_gate,
)
from treeroute.vectorstore import Passage, ScoredPassage, VectorStore


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _candidates_with_sims(sims: list[float]):
    """Candidates plus an embedding table hitting each target cosine exactly."""
    query = np.array([1.0, 0.0])
    table = {}
    candidates = []
    for i, sim in enumerate(sims):
        pid = f"p{i}"
        table[pid] = _unit(math.acos(sim))
        candidates.append(
            ScoredPassage(passage=Passage(id=pid, text=f"text {i}"), score=0.5)
        )
    return query, candidates, table


def test_threshold_validation():
    GateThresholds(hi=0.7, lo=0.35)
    GateThresholds(hi=0.5, lo=0.5)
    GateThresholds(hi=0.0, lo=0.0)
    with pytest.raises(ValueError):
        GateThresholds(hi=0.3, lo=0.5)
    with pytest.raises(ValueError):
        GateThresholds(hi=1.2, lo=0.5)
    with pytest.raises(ValueError):
        GateThresholds(hi=0.7, lo=-0.1)


def test_gate_boundaries():
    thresholds = GateThresholds()
    assert quantitative_gate(0.70, thresholds) is GateOutcome.RETAIN
    assert quantitative_gate(0.9, thresholds) is GateOutcome.RETAIN
    assert quantitative_gate(0.699, thresholds) is GateOutcome.BORDERLINE
    assert quantitative_gate(0.35, thresholds) is GateOutcome.BORDERLINE
    assert quantitative_gate(0.349, thresholds) is GateOutcome.DISCARD
    assert quantitative_gate(0.0, thresholds) is GateOutcome.DISCARD
    assert quantitative_gate(-0.5, thresholds) is GateOutcome.DISCARD


def test_prune_partitions_by_band():
    sims = [0.9, 0.75, 0.5, 0.4, 0.2, 0.1]
    query, candidates, table = _candidates_with_sims(sims)
    judged: list[str] = []

    def judge(passage, sim):
        judged.append(passage.id)
        return sim >= 0.45

    result = prune(query, candidates, GateThresholds(), judge, embedding_of=table)
    # Retained: the two above hi plus the borderline one the judge accepted.
    assert [s.passage.id for s in result.survivors] == ["p0", "p1", "p2"]
    assert result.judge_calls == 2
    assert judged == ["p2", "p3"]


def test_judge_calls_equal_borderline_count_randomized():
    rng = random.Random(42)
    thresholds = GateThresholds()
    for _ in range(200):
        # Keep sims at least 1e-3 away from both thresholds so the acos/cos
        # round-trip error (~1e-16) cannot flip a band assignment.
        sims = [
            s
            for s in (round(rng.uniform(0.0, 1.0), 6) for _ in range(rng.randint(0, 20)))
            if abs(s - 0.35) > 1e-3 and abs(s - 0.70) > 1e-3
        ]
        query, candidates, table = _candidates_with_sims(sims)
        calls = 0

        def judge(passage, sim):
            nonlocal calls
            calls += 1
            return rng.random() < 0.5

        result = prune(query, candidates, thresholds, judge, embedding_of=table)
        expected = sum(1 for s in sims if 0.35 <= s < 0.70)
        assert result.judge_calls == calls == expected
        candidate_ids = [c.passage.id for c in candidates]
        assert [s.passage.id for s in result.survivors] == [
            pid for pid in candidate_ids
            if any(s.passage.id == pid for s in result.survivors)
        ]


def test_survivors_keep_input_order():
    sims = [0.5, 0.95, 0.45, 0.8, 0.55]
    query, candidates, table = _candidates_with_sims(sims)
    result = prune(
        query, candidates, GateThresholds(), lambda p, s: True, embedding_of=table
    )
    assert [s.passage.id for s in result.survivors] == ["p0", "p1", "p2", "p3", "p4"]


def test_judge_rejection_drops_candidate():
    sims = [0.5]
    query, candidates, table = _candidates_with_sims(sims)
    result = prune(
        query, candidates, GateThresholds(), lambda p, s: False, embedding_of=table
    )
    assert result.survivors == []
    assert result.judge_calls == 1


def test_degenerate_gate_retains_everything_without_judging():
    sims = [0.0, 0.2, 0.5, 0.9, 1.0]
    query, candidates, table = _candidates_with_sims(sims)

    def forbidden(passage, sim):
        raise AssertionError("judge must not run when lo == hi == 0")

    result = prune(
        query, candidates, GateThresholds(hi=0.0, lo=0.0), forbidden, embedding_of=table
    )
    assert len(result.survivors) == 5
    assert result.judge_calls == 0


def test_collapsed_band_never_judges():
    sims = [0.1, 0.51, 0.9]
    query, candidates, table = _candidates_with_sims(sims)

    def forbidden(passage, sim):
        raise AssertionError("no borderline band exists")

    result = prune(
        query, candidates, GateThresholds(hi=0.5, lo=0.5), forbidden, embedding_of=table
    )
    assert [s.passage.id for s in result.survivors] == ["p1", "p2"]
    assert result.judge_calls == 0


def test_similarity_is_against_supplied_query_embedding():
    # The candidate's stored retrieval score is deliberately misleading;
    # only the embedding table must matter.
    query = np.array([1.0, 0.0])
    candidate = ScoredPassage(passage=Passage(id="p", text="t"), score=0.99)
    table = {"p": np.array([0.0, 1.0])}
    result = prune(
        query, [candidate], GateThresholds(), lambda p, s: True, embedding_of=table
    )
    assert result.survivors == []


def test_embedding_lookup_accepts_a_store():
    passages = (Passage(id="a", text="a"), Passage(id="b", text="b"))
    store = VectorStore(passages, np.array([[0.0, 1.0], [1.0, 0.0]]))
    candidates = [ScoredPassage(passage=p, score=0.1) for p in reversed(passages)]
    result = prune(
        np.array([1.0, 0.0]),
        candidates,
        GateThresholds(),
        lambda p, s: True,
        embedding_of=store,
    )
    assert [s.passage.id for s in result.survivors] == ["b"]


def test_empty_candidates():
    result = prune(
        np.array([1.0, 0.0]),
        [],
        GateThresholds(),
        lambda p, s: True,
        embedding_of={},
    )
    assert result == PruneResult(survivors=[], judge_calls=0)


def test_raw_sims_past_unit_range_gate_without_judging():
    # The gate sees the raw product: 1 + 1e-9 clears hi == 1.0 and
    # -1 - 1e-9 falls below any lo, as their clamped values would.
    query = np.array([1.0, 0.0])
    table = {"over": np.array([1.0 + 1e-9, 0.0]), "under": np.array([-1.0 - 1e-9, 0.0])}
    candidates = [
        ScoredPassage(passage=Passage(id=pid, text=pid), score=0.5) for pid in table
    ]

    def forbidden(passage, sim):
        raise AssertionError("neither sim is borderline")

    for thresholds in (GateThresholds(hi=1.0, lo=0.0), GateThresholds()):
        result = prune(query, candidates, thresholds, forbidden, embedding_of=table)
        assert [s.passage.id for s in result.survivors] == ["over"]
        assert result.judge_calls == 0


def test_wrong_dimension_embedding_raises():
    query = np.array([1.0, 0.0])
    for table in (
        {"a": np.ones(3)},
        {"a": np.array([1.0, 0.0]), "b": np.ones(3)},
    ):
        candidates = [
            ScoredPassage(passage=Passage(id=pid, text=pid), score=0.5) for pid in table
        ]
        with pytest.raises(ValueError):
            prune(query, candidates, GateThresholds(), lambda p, s: True, embedding_of=table)
    # A store reads only the candidates' stored entries, so it checks the
    # query's dimension itself.
    passage = Passage(id="a", text="a")
    store = VectorStore((passage,), np.array([[1.0, 0.0, 0.0]]))
    candidates = [ScoredPassage(passage=passage, score=0.5)]
    with pytest.raises(ValueError):
        prune(query, candidates, GateThresholds(), lambda p, s: True, embedding_of=store)


def _gate(query, candidates, thresholds, embedding_of, verdict=lambda passage: True):
    """Survivor ids, judge_calls and every judge call as (id, repr(sim))."""
    calls = []

    def judge(passage, sim):
        calls.append((passage.id, repr(sim)))
        return verdict(passage)

    result = prune(query, candidates, thresholds, judge, embedding_of=embedding_of)
    return [s.passage.id for s in result.survivors], result.judge_calls, calls


def test_a_table_gates_as_a_store_over_the_same_rows():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(6, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    query = rows[0] + rows[1]
    query /= np.linalg.norm(query)
    passages = [Passage(id=f"p{i}", text=f"text {i}") for i in range(6)]
    store = VectorStore(passages, rows)
    # Extra ids, one with a row of another dimension, are never read.
    table = {p.id: row for p, row in zip(passages, rows)}
    table.update({"a": rng.normal(size=5), "zz": np.ones(3)})
    # Out of id order, with repeats, and without p2.
    order = [3, 0, 3, 5, 1, 0, 4, 5]
    candidates = [ScoredPassage(passage=passages[i], score=0.5) for i in order]
    thresholds = GateThresholds(hi=0.6, lo=0.1)

    def verdict(passage):
        return passage.id in ("p3", "p4")

    from_table = _gate(query, candidates, thresholds, table, verdict)
    assert from_table == _gate(query, candidates, thresholds, store, verdict)
    _, judge_calls, calls = from_table
    assert judge_calls == len(calls) > 0
    assert "p2" not in {pid for pid, _ in calls}


def test_table_gate_on_nan_and_negative_zero_rows():
    query = np.array([1.0, 0.0])
    table = {
        "neg": np.array([-0.0, 1.0]),
        "pos": np.array([0.5, math.sqrt(0.75)]),
    }
    candidates = [ScoredPassage(passage=Passage(id=pid, text=pid), score=0.5) for pid in table]
    # -0.0 folds from +0.0 to +0.0, so it is judged as 0.0 when lo is 0.
    loose = _gate(query, candidates, GateThresholds(hi=0.5, lo=0.0), table)
    assert loose == (["neg", "pos"], 1, [("neg", "0.0")])
    default = _gate(query, candidates, GateThresholds(), table)
    assert default == (["pos"], 1, [("pos", "0.5")])
    # A NaN row fails the store the table is read into.
    table["nan"] = np.array([math.nan, 1.0])
    candidates.append(ScoredPassage(passage=Passage(id="nan", text="nan"), score=0.5))
    with pytest.raises(ValueError, match="passage nan: embedding holds a non-finite value"):
        _gate(query, candidates, GateThresholds(hi=0.5, lo=0.0), table)


def _loop_prune(original_embedding, candidates, thresholds, judge, *, embedding_of):
    """The gate as one scalar comparison pair per candidate, in input order.

    A store's similarities are its fold at the candidates' rows, checked bit
    for bit against the scalar fold; a table's are scalar folds.
    """
    if not candidates:
        return [], 0
    ids = [c.passage.id for c in candidates]
    if isinstance(embedding_of, VectorStore):
        fold = embedding_of.fold(original_embedding)
        sims = fold[embedding_of.rows(ids)].tolist()
        rows = (stored_row(embedding_of, pid) for pid in ids)
        assert np.array(sims).tobytes() == np.array(
            [scalar_fold(row, original_embedding) for row in rows]
        ).tobytes()
    else:
        sims = [scalar_fold(embedding_of[pid], original_embedding) for pid in ids]
    survivors, judge_calls = [], 0
    for candidate, sim in zip(candidates, sims):
        if sim >= thresholds.hi:
            keep = True
        elif sim < thresholds.lo:
            keep = False
        else:
            judge_calls += 1
            keep = judge(candidate.passage, sim)
        if keep:
            survivors.append(candidate)
    return survivors, judge_calls


@st.composite
def _gate_cases(draw):
    """Thresholds plus similarities that hit lo, hi, NaN and values past [0, 1]."""
    edges = st.sampled_from([0.0, 0.35, 0.5, 0.7, 1.0])
    lo = draw(st.one_of(edges, st.floats(0.0, 1.0)))
    hi = draw(st.one_of(st.just(lo), edges.filter(lambda v: v >= lo), st.floats(lo, 1.0)))
    sim = st.one_of(
        st.sampled_from([lo, hi, math.nan, -0.0, -1.5, 2.0]),
        st.floats(-2.0, 2.0),
    )
    sims = draw(st.lists(sim, max_size=12))
    verdicts = draw(st.lists(st.booleans(), min_size=len(sims), max_size=len(sims)))
    order = draw(st.permutations(range(len(sims))))
    return GateThresholds(hi=hi, lo=lo), sims, verdicts, order


@given(_gate_cases(), st.booleans())
def test_vector_gate_matches_the_per_candidate_loop(case, through_store):
    thresholds, sims, verdicts, order = case
    # The scalar gate classifies each value as the vector gate does.
    for sim in sims:
        expected = (
            GateOutcome.RETAIN
            if sim >= thresholds.hi
            else GateOutcome.DISCARD if sim < thresholds.lo else GateOutcome.BORDERLINE
        )
        assert quantitative_gate(sim, thresholds) is expected
    # One coordinate against a query of [1.0], so each similarity is its value.
    passages = tuple(Passage(id=f"p{i:02d}", text=f"text {i}") for i in range(len(sims)))
    rows = np.array(sims, dtype=np.float64).reshape(len(sims), 1)
    table = {p.id: row for p, row in zip(passages, rows)}
    # The store holds rows in id order; the candidates come in any order.
    candidates = [ScoredPassage(passage=passages[i], score=0.5) for i in order]
    query = np.array([1.0])
    nan_rows = [i for i, sim in enumerate(sims) if math.isnan(sim)]
    if nan_rows:
        # A NaN row fails the store's build and the table gate alike, naming
        # the first NaN passage in id order.
        message = f"passage p{nan_rows[0]:02d}: embedding holds a non-finite value"
        with pytest.raises(ValueError, match=message):
            VectorStore(passages, rows)
        with pytest.raises(ValueError, match=message):
            prune(query, candidates, thresholds, lambda passage, sim: True, embedding_of=table)
        return
    embedding_of = VectorStore(passages, rows) if through_store else table

    def judging(calls):
        def judge(passage, sim):
            assert type(sim) is float
            calls.append((passage.id, repr(sim)))
            return verdicts[int(passage.id[1:])]

        return judge

    calls, expected_calls = [], []
    result = prune(query, candidates, thresholds, judging(calls), embedding_of=embedding_of)
    survivors, judge_calls = _loop_prune(
        query, candidates, thresholds, judging(expected_calls), embedding_of=embedding_of
    )
    assert result.survivors == survivors
    assert result.judge_calls == judge_calls
    assert calls == expected_calls
