from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeroute.embeddings import HashedBagEmbedder
from treeroute.rerank import (
    NORMALIZED_TEXT_TABLE_SIZE,
    SelectionRule,
    consolidate,
    deduplicate,
    global_rescore,
    normalize_text,
    select_topk,
)
from treeroute.vectorstore import Passage, ScoredPassage, VectorStore, build_index

EMBEDDER = HashedBagEmbedder(dimension=64)


def _sp(pid: str, text: str, score: float) -> ScoredPassage:
    return ScoredPassage(passage=Passage(id=pid, text=text), score=score)


def _index(candidates):
    """A store built over the candidates' passages."""
    return build_index([c.passage for c in candidates], EMBEDDER)


def test_normalize_text():
    assert normalize_text("  Freeze   MY card\t") == "freeze my card"
    assert normalize_text("already clean") == "already clean"


def test_normalized_text_table_is_bounded():
    assert normalize_text.cache_info().maxsize == NORMALIZED_TEXT_TABLE_SIZE


@given(st.text(st.sampled_from("aAbB \t\n\u00c9\u00e9"), max_size=12))
def test_normalize_text_from_the_table_equals_a_fresh_normalization(text):
    # A case or whitespace variant gets its own entry, never another's.
    fresh = " ".join(text.lower().split())
    assert normalize_text(text) == fresh
    assert normalize_text(text) == fresh


def test_repeated_dedup_normalizes_each_text_once():
    candidates = [
        _sp("a", "Memo   Probe one", 0.4),
        _sp("b", "memo probe ONE", 0.9),
        _sp("c", "memo probe two", 0.5),
    ]
    store = _index(candidates)
    first = deduplicate(candidates, SelectionRule(), store)
    hits = normalize_text.cache_info().hits
    assert deduplicate(candidates, SelectionRule(), store) == first
    assert normalize_text.cache_info().hits - hits == len(candidates)
    assert [(c.passage.id, c.score) for c in first] == [("b", 0.9), ("c", 0.5)]


def test_rule_validation():
    with pytest.raises(ValueError):
        SelectionRule(near_dup_threshold=0.0)
    with pytest.raises(ValueError):
        SelectionRule(near_dup_threshold=1.01)
    with pytest.raises(ValueError):
        SelectionRule(top_rank=0)
    with pytest.raises(ValueError):
        SelectionRule(score_floor=1.5)
    with pytest.raises(ValueError):
        SelectionRule(top_rank=5, cap=3)


def test_exact_duplicates_keep_best_score():
    candidates = [
        _sp("a", "freeze my card", 0.4),
        _sp("b", "Freeze  my CARD", 0.9),
        _sp("c", "unrelated text entirely", 0.5),
    ]
    kept = deduplicate(candidates, SelectionRule(), _index(candidates))
    assert [(c.passage.id, c.score) for c in kept] == [("b", 0.9), ("c", 0.5)]


def test_exact_duplicate_tie_keeps_lowest_id():
    candidates = [
        _sp("z", "freeze my card", 0.5),
        _sp("a", "freeze my card", 0.5),
    ]
    kept = deduplicate(candidates, SelectionRule(), _index(candidates))
    assert [c.passage.id for c in kept] == ["a"]


def test_near_duplicates_merge_by_embedding():
    # Same token bag in a different order: different normalized text,
    # identical embedding, so cosine 1.0 crosses any threshold.
    candidates = [
        _sp("a", "alpha beta gamma", 0.8),
        _sp("b", "gamma beta alpha", 0.6),
        _sp("c", "totally different words", 0.7),
    ]
    kept = deduplicate(candidates, SelectionRule(), _index(candidates))
    assert [c.passage.id for c in kept] == ["a", "c"]


def test_near_dup_threshold_is_inclusive_boundary():
    candidates = [
        _sp("a", "alpha beta gamma", 0.8),
        _sp("b", "gamma beta alpha", 0.6),
    ]
    kept_tight = deduplicate(candidates, SelectionRule(near_dup_threshold=1.0), _index(candidates))
    assert [c.passage.id for c in kept_tight] == ["a"]


def test_near_duplicates_of_blocked_and_tail_rows_merge():
    # Six kept rows, then near-duplicates of the first (k0) and of the last
    # (k5), then a row near none. Dedup reads every pair from one
    # VectorStore.gram call and walks only the rows near another, so a
    # merge must be found at either edge of the Gram matrix, and the fresh
    # row, near no row, kept.
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    candidates = [
        _sp(f"k{i}", f"{word} {word}x {word}y", 0.9 - 0.01 * i)
        for i, word in enumerate(words)
    ]
    candidates += [
        _sp("dup_first", "alphay alphax alpha", 0.5),
        _sp("dup_last", "foxtroty foxtrot foxtrotx", 0.4),
        _sp("fresh", "golf hotel india", 0.3),
    ]
    kept = deduplicate(candidates, SelectionRule(), _index(candidates))
    assert [c.passage.id for c in kept] == [f"k{i}" for i in range(6)] + ["fresh"]


def test_exact_twin_of_a_merged_near_duplicate_is_merged():
    # b and c share their normalized text but not their rows, as a
    # case-sensitive embedder could give them: b merges into a by its row,
    # and c, b's exact twin, goes with it although its own row is far.
    passages = (
        Passage(id="a", text="keep me"),
        Passage(id="b", text="Twin Text"),
        Passage(id="c", text="twin  text"),
    )
    store = VectorStore(passages, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    candidates = [ScoredPassage(p, s) for p, s in zip(passages, (0.9, 0.8, 0.7))]
    assert [c.passage.id for c in deduplicate(candidates, SelectionRule(), store)] == ["a"]


def test_deduplicate_output_is_ranked_and_idempotent():
    rng = random.Random(3)
    candidates = [
        _sp(f"p{i}", f"distinct text number {i}", round(rng.random(), 3))
        for i in range(20)
    ]
    rng.shuffle(candidates)
    once = deduplicate(candidates, SelectionRule(), _index(candidates))
    assert once == sorted(once, key=lambda c: (-c.score, c.passage.id))
    assert deduplicate(once, SelectionRule(), _index(candidates)) == once


def test_global_rescore_marks_source_and_counts_one_call():
    calls = 0

    def reranker(candidates):
        nonlocal calls
        calls += 1
        return [0.9, 0.1]

    rescored = global_rescore([_sp("a", "ta", 0.2), _sp("b", "tb", 0.8)], reranker)
    assert calls == 1
    assert [(c.passage.id, c.score, c.source) for c in rescored] == [
        ("a", 0.9, "rerank"),
        ("b", 0.1, "rerank"),
    ]


def test_global_rescore_empty_pool_makes_no_call():
    calls = []
    rescored = global_rescore([], lambda c: calls.append(c) or [])
    assert rescored == [] and calls == []


def test_global_rescore_clamps():
    rescored = global_rescore([_sp("a", "ta", 0.2), _sp("b", "tb", 0.3)], lambda c: [1.7, -0.4])
    assert [c.score for c in rescored] == [1.0, 0.0]


def test_global_rescore_length_mismatch_is_a_bug_not_a_fallback():
    with pytest.raises(ValueError, match="2 scores"):
        global_rescore([_sp("a", "ta", 0.5)], lambda c: [0.1, 0.2])


def _brute_force_select(scored, rule):
    ranked = sorted(scored, key=lambda c: (-c.score, c.passage.id))
    picked = []
    for rank, candidate in enumerate(ranked, start=1):
        if rank <= rule.top_rank or candidate.score >= rule.score_floor:
            picked.append(candidate)
    return picked[: rule.cap]


def test_select_topk_matches_brute_force_randomized():
    rng = random.Random(17)
    for _ in range(300):
        scored = [
            _sp(f"p{i}", f"text {i}", round(rng.random(), 2))
            for i in range(rng.randint(0, 30))
        ]
        rule = SelectionRule(
            top_rank=rng.randint(1, 10),
            score_floor=round(rng.random(), 2),
            cap=rng.randint(10, 15),
        )
        assert select_topk(scored, rule) == _brute_force_select(scored, rule)


FLOOR_LADDER = [0.95, 0.94, 0.93, 0.92, 0.91, 0.90, 0.89, 0.88]


def test_select_topk_floor_admits_beyond_top_rank():
    scored = [_sp(f"p{i}", f"t{i}", s) for i, s in enumerate(FLOOR_LADDER)]
    rule = SelectionRule(top_rank=3, score_floor=0.90, cap=10)
    picked = select_topk(scored, rule)
    # Ranks 1..3 plus the floor passers at ranks 4..6 (0.92, 0.91, 0.90).
    assert [c.passage.id for c in picked] == [f"p{i}" for i in range(6)]


def test_select_topk_cap_keeps_highest():
    scored = [_sp(f"p{i:02d}", f"t{i}", 1.0 - 0.01 * i) for i in range(20)]
    picked = select_topk(scored, SelectionRule())
    assert len(picked) == 10
    assert [c.passage.id for c in picked] == [f"p{i:02d}" for i in range(10)]


def test_select_topk_input_order_invariant():
    rng = random.Random(23)
    scored = [_sp(f"p{i}", f"t{i}", round(rng.random(), 3)) for i in range(15)]
    shuffled = list(scored)
    rng.shuffle(shuffled)
    rule = SelectionRule(top_rank=4, score_floor=0.5, cap=8)
    assert select_topk(scored, rule) == select_topk(shuffled, rule)


def test_consolidate_reranks_exactly_the_deduped_pool():
    batch_sizes: list[int] = []

    def reranker(candidates):
        batch_sizes.append(len(candidates))
        return [c.score for c in candidates]

    pool = [
        _sp("a", "freeze my card", 0.9),
        _sp("b", "freeze my card", 0.8),
        _sp("c", "order a replacement", 0.7),
        _sp("d", "check my balance", 0.6),
    ]
    evidence = consolidate(pool, SelectionRule(), _index(pool), reranker)
    assert batch_sizes == [3]
    assert [c.passage.id for c in evidence] == ["a", "c", "d"]
    assert all(c.source == "rerank" for c in evidence)


def test_consolidate_empty_pool():
    calls = []
    evidence = consolidate([], SelectionRule(), _index([]), lambda c: calls.append(c) or [])
    assert evidence == []
    assert calls == []
