from __future__ import annotations

import gc
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeroute import vectorstore
from treeroute.embeddings import HashedBagEmbedder, Nonzeros, dense_nonzeros
from treeroute.vectorstore import (
    DEFAULT_SEARCH_K,
    Passage,
    ScoredPassage,
    VectorStore,
    build_index,
)


def _passages(texts: dict[str, str]) -> list[Passage]:
    return [Passage(id=pid, text=text) for pid, text in texts.items()]


@pytest.fixture
def store():
    texts = {
        "p1": "cancel my card",
        "p2": "freeze my card",
        "p3": "open a savings account",
        "p4": "compare interest rates",
        "p5": "dispute a charge on my statement",
    }
    return build_index(_passages(texts), HashedBagEmbedder(dimension=64))


def test_default_k_is_32():
    assert DEFAULT_SEARCH_K == 32


def test_passage_validation():
    with pytest.raises(ValueError):
        Passage(id="", text="x")
    with pytest.raises(ValueError):
        Passage(id="p", text="")


def test_self_retrieval_scores_one(store):
    embedder = HashedBagEmbedder(dimension=64)
    hits = store.search(embedder.embed("compare interest rates"), k=1)
    assert hits[0].passage.id == "p4"
    assert hits[0].score == pytest.approx(1.0, abs=1e-9)
    assert hits[0].source == "cosine"


def test_search_matches_brute_force(store):
    embedder = HashedBagEmbedder(dimension=64)
    rng = random.Random(11)
    vocab = ["card", "savings", "rates", "charge", "account", "freeze", "compare"]
    for _ in range(50):
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        q = embedder.embed(query)
        expected = sorted(
            ((float(np.dot(store.embedding_of(p.id), q)), p.id) for p in store.passages),
            key=lambda pair: (-pair[0], pair[1]),
        )
        hits = store.search(q, k=3)
        assert [h.passage.id for h in hits] == [pid for _, pid in expected[:3]]
        for hit, (score, _) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-12)


def test_ties_break_by_ascending_id():
    # Identical texts give identical embeddings, forcing exact ties.
    passages = [
        Passage(id="z", text="same words"),
        Passage(id="a", text="same words"),
        Passage(id="m", text="same words"),
    ]
    store = build_index(passages, HashedBagEmbedder(dimension=32))
    hits = store.search(HashedBagEmbedder(dimension=32).embed("same words"))
    assert [h.passage.id for h in hits] == ["a", "m", "z"]


def test_ties_across_the_k_boundary_keep_the_smallest_ids():
    ids = [f"p{i}" for i in range(10)]
    random.Random(3).shuffle(ids)
    passages = [Passage(id=pid, text="same words") for pid in ids]
    embedder = HashedBagEmbedder(dimension=32)
    store = build_index(passages, embedder)
    hits = store.search(embedder.embed("same words"), k=4)
    assert [h.passage.id for h in hits] == ["p0", "p1", "p2", "p3"]
    assert len({h.score for h in hits}) == 1


def test_k_larger_than_store_returns_everything(store):
    q = HashedBagEmbedder(dimension=64).embed("card")
    expected = sorted(
        store.passages, key=lambda p: (-float(np.dot(store.embedding_of(p.id), q)), p.id)
    )
    # k == n is the edge where no partition runs; k > n must behave the same.
    for k in (store.size, 100):
        hits = store.search(q, k=k)
        assert [h.passage.id for h in hits] == [p.id for p in expected]


def _sorted_reference(passages, matrix, q, k):
    """The full-sort search that exact top-k must reproduce."""
    scores = np.clip(matrix @ q, -1.0, 1.0)
    order = sorted(range(len(passages)), key=lambda i: (-scores[i], passages[i].id))
    return [(passages[i].id, float(scores[i])) for i in order[:k]]


# Rows are drawn from a few small integer vectors, so scores tie often and
# some exceed 1 before the clamp.
_small_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(_small_vectors, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    query=_small_vectors,
)
def test_search_equals_sorted_reference(pool, picks, query):
    matrix = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64) / 2.0
    passages = tuple(Passage(id=f"p{i:02d}", text="t") for i in range(len(picks)))
    store = VectorStore(passages, matrix)
    q = np.array(query, dtype=np.float64)
    for k in range(1, len(passages) + 3):
        hits = store.search(q, k=k)
        assert [(h.passage.id, h.score) for h in hits] == _sorted_reference(
            passages, matrix, q, k
        )


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(_small_vectors, min_size=1, max_size=4),
    query=_small_vectors,
    k=st.integers(2, 9),
    layout=st.sampled_from(["drawn", "best_in_tail", "all_tied"]),
    data=st.data(),
)
def test_search_over_blocks_equals_sorted_reference(pool, query, k, layout, data):
    # Below n rows, search takes its floor from k blocks of n // k rows;
    # the n % k rows after the last block belong to no block.
    n = data.draw(st.integers(k + 1, 100))
    picks = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    matrix = np.array([pool[i % len(pool)] for i in picks], dtype=np.float64) / 2.0
    q = np.array(query, dtype=np.float64)
    if layout == "all_tied":
        matrix[:] = matrix[0]
    elif layout == "best_in_tail":
        assume(n % k and q.any())
        # Rows before the tail score at most 0, tail rows above 0, some
        # above 1 before the clamp.
        tail = n - n % k
        matrix[:tail] = -q * np.array(picks[:tail])[:, None] / 8.0
        matrix[tail:] = q * (1 + np.array(picks[tail:]))[:, None] / 8.0
    passages = tuple(Passage(id=f"p{i:03d}", text="t") for i in range(n))
    store = VectorStore(passages, matrix)
    for top in (k, k - 1, n - 1):
        hits = store.search(q, k=top)
        assert [(h.passage.id, h.score) for h in hits] == _sorted_reference(
            passages, matrix, q, top
        )


def test_k_below_one_rejected(store):
    with pytest.raises(ValueError):
        store.search(HashedBagEmbedder(dimension=64).embed("card"), k=0)


def test_dimension_mismatch_rejected(store):
    with pytest.raises(ValueError, match="shape"):
        store.search(HashedBagEmbedder(dimension=8).embed("card"))


def test_build_is_input_order_invariant():
    texts = {f"p{i}": f"text number {i} about cards" for i in range(10)}
    passages = _passages(texts)
    shuffled = list(passages)
    random.Random(5).shuffle(shuffled)
    embedder = HashedBagEmbedder(dimension=32)
    a = build_index(passages, embedder)
    b = build_index(shuffled, embedder)
    query = embedder.embed("cards number 3")
    assert [(h.passage.id, h.score) for h in a.search(query)] == [
        (h.passage.id, h.score) for h in b.search(query)
    ]
    assert [p.id for p in a.passages] == [p.id for p in b.passages]


def test_duplicate_ids_rejected():
    passages = [Passage(id="p1", text="a"), Passage(id="p1", text="b")]
    with pytest.raises(ValueError, match="p1"):
        build_index(passages, HashedBagEmbedder(dimension=8))


class _CountingEmbedder(HashedBagEmbedder):
    def __init__(self):
        super().__init__(dimension=8)
        self.blocks = 0

    def embed_many(self, texts):
        self.blocks += 1
        return super().embed_many(texts)


def test_duplicate_ids_fail_the_build_before_any_embedding():
    # build_index hands the store a generator of embed_many calls, and the
    # store checks that its ids ascend strictly before it reads a block.
    passages = [Passage(id="p1", text="a"), Passage(id="p2", text="b")]
    provider = _CountingEmbedder()
    with pytest.raises(ValueError, match="'p1' before 'p1'"):
        build_index([*passages, Passage(id="p1", text="c")], provider)
    assert provider.blocks == 0
    build_index(passages, provider)
    assert provider.blocks == 1


def test_empty_store():
    store = build_index([], HashedBagEmbedder(dimension=8))
    assert store.size == 0
    assert store.search(HashedBagEmbedder(dimension=8).embed("q")) == []


def test_embedding_of_unknown_id(store):
    with pytest.raises(KeyError):
        store.embedding_of("nope")


def test_rows_must_be_in_ascending_id_order():
    matrix = np.eye(2)
    with pytest.raises(ValueError, match="ascend"):
        VectorStore((Passage(id="b", text="t"), Passage(id="a", text="t")), matrix)
    with pytest.raises(ValueError, match="ascend"):
        VectorStore((Passage(id="a", text="t"), Passage(id="a", text="u")), matrix)


def test_scores_clamped_to_cosine_range():
    matrix = np.array([[1.0 + 1e-9, 0.0]])
    store = VectorStore((Passage(id="p", text="t"),), matrix)
    hits = store.search(np.array([1.0, 0.0]))
    assert hits[0].score <= 1.0


def test_scored_passage_defaults():
    passage = Passage(id="p", text="t")
    by_position = ScoredPassage(passage, 0.5)
    by_keyword = ScoredPassage(score=0.5, passage=passage)
    assert by_keyword.source == "cosine"
    assert by_position == by_keyword == (passage, 0.5, "cosine")
    assert ScoredPassage(passage, 0.5, "rerank") == ScoredPassage(passage, 0.5, source="rerank")
    assert ScoredPassage._fields == ("passage", "score", "source")
    for name in ScoredPassage._fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)


class _DenseBlockProvider:
    """Returns its blocks as dense arrays of unit rows, not as their Nonzeros."""

    dimension = 4

    def embed(self, text: str) -> np.ndarray:
        return np.full(4, 0.5)

    def embed_many(self, texts) -> np.ndarray:
        return np.full((len(texts), 4), 0.5)


def test_build_rejects_a_dense_block_by_its_passages(monkeypatch):
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 32)
    passages = [Passage(id=f"p{i:02d}", text=f"text {i}") for i in range(40)]
    with pytest.raises(ValueError) as info:
        build_index(passages, _DenseBlockProvider())
    assert str(info.value) == "passages p00..p31: embeddings are ndarray, not Nonzeros"


class _InfProvider:
    """Unit rows, except that a text reading "bad" gets inf in its last column."""

    dimension = 4

    def embed(self, text: str) -> np.ndarray:
        return np.array([0.5, 0.5, 0.5, np.inf if text == "bad" else 0.5])

    def embed_many(self, texts) -> Nonzeros:
        return dense_nonzeros(np.array([self.embed(text) for text in texts]))


def test_build_rejects_a_non_finite_row_by_passage_id(monkeypatch):
    # Forty passages fill a block of 32 and part of a second; the bad one
    # is in the second block.
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 32)
    texts = {f"p{i:02d}": "bad" if i == 35 else f"text {i}" for i in range(40)}
    with pytest.raises(ValueError, match="passage p35: embedding holds a non-finite value"):
        build_index(_passages(texts), _InfProvider())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 31, 32, 39])
def test_a_dense_matrix_with_a_non_finite_value_names_its_passage(monkeypatch, value, row):
    # Rows 31 and 32 sit on either side of a block boundary.
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 32)
    passages = [Passage(id=f"p{i:02d}", text=f"text {i}") for i in range(40)]
    matrix = np.full((40, 3), 0.5)
    matrix[row, 1] = value
    with pytest.raises(ValueError, match=f"passage p{row:02d}: embedding holds a non-finite"):
        VectorStore(passages, matrix)


# Token-free, punctuation-only and repeated-token texts among ordinary ones
# (a passage's text is never empty).
_bag_texts = st.one_of(
    st.sampled_from([" ", "\t", "...", "?!", "card card card card", "a a b", "café crème"]),
    st.lists(st.sampled_from(["card", "rate", "café", "!", "日本", "x-ray"]), min_size=1, max_size=8)
    .map(" ".join),
)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.one_of(
        st.lists(_bag_texts, min_size=1, max_size=1),
        st.lists(_bag_texts, min_size=33, max_size=33),
        st.lists(_bag_texts, min_size=40, max_size=40),
    ),
    dimension=st.sampled_from([1, 7, 768]),
    seed=st.integers(0, 3),
    block_rows=st.sampled_from([32, vectorstore.BUILD_BLOCK_ROWS]),
)
def test_a_hashed_bag_build_equals_the_dense_reference_build(texts, dimension, seed, block_rows):
    """build_index reads the bag's nonzeros; VectorStore over the stacked
    embed rows scans a dense matrix. Every index array has the same bytes."""
    embedder = HashedBagEmbedder(dimension=dimension, seed=seed)
    passages = [Passage(id=f"p{i:02d}", text=text) for i, text in enumerate(texts)]
    # Blocks of 32 put 33 or 40 passages in two blocks.
    with mock.patch.object(vectorstore, "BUILD_BLOCK_ROWS", block_rows):
        built = build_index(passages, embedder)
    reference = VectorStore(passages, np.stack([embedder.embed(p.text) for p in passages]))
    for name, array, expected in zip(built._index._fields, built._index, reference._index):
        assert array.dtype == expected.dtype, name
        assert array.tobytes() == expected.tobytes(), name


def _rows_of_two(count: int) -> Nonzeros:
    """count rows of dimension 4, each 0.6 in column 0 and 0.8 in column 2."""
    return Nonzeros(
        np.repeat(np.arange(count), 2), np.tile([0, 2], count), np.tile([0.6, 0.8], count)
    )


def _defect(nonzeros: Nonzeros, defect: str) -> Nonzeros:
    rows, columns, values = (array.copy() for array in nonzeros)
    if defect == "row":
        rows[-1] = len(rows) // 2
    elif defect == "column":
        columns[3] = 4
    elif defect == "duplicate":
        columns[3] = 0
    elif defect == "unsorted":
        columns[2:4] = [2, 0]
    elif defect == "lengths":
        values = values[:-1]
    elif defect == "nan":
        values[3] = np.nan
    elif defect == "zero":
        values[3] = 0.0
    elif defect == "text":
        values = values.astype(object)
        values[3] = "x"
    elif defect == "float":
        rows = rows.astype(np.float64)
    elif defect == "uint64":
        rows = rows.astype(np.uint64)
        rows[-1] = np.iinfo(np.uint64).max
    return Nonzeros(rows, columns, values)


class _NonzerosProvider:
    """Two entries per row as Nonzeros; the second block of a build has the defect."""

    dimension = 4

    def __init__(self, defect: str):
        self.defect = defect
        self.blocks = 0

    def embed(self, text: str) -> np.ndarray:
        return np.array([0.6, 0.0, 0.8, 0.0])

    def embed_many(self, texts) -> Nonzeros:
        self.blocks += 1
        nonzeros = _rows_of_two(len(texts))
        return _defect(nonzeros, self.defect) if self.blocks == 2 else nonzeros


@pytest.mark.parametrize(
    "defect, message",
    [
        ("row", r"passages p32\.\.p39: nonzeros hold a row outside \[0, 8\)"),
        ("column", r"passages p32\.\.p39: nonzeros hold .* a column outside \[0, 4\)"),
        ("duplicate", r"passages p32\.\.p39: nonzeros are not in strictly ascending"),
        ("unsorted", r"passages p32\.\.p39: nonzeros are not in strictly ascending"),
        ("lengths", r"passages p32\.\.p39: nonzeros arrays have unequal lengths"),
        ("nan", "passage p33: embedding holds a non-finite value"),
        ("zero", r"passages p32\.\.p39: nonzeros hold a value whose bits are all zero"),
        ("text", r"passages p32\.\.p39: nonzeros values do not convert to float64"),
        ("float", r"passages p32\.\.p39: nonzeros rows and columns are not integers"),
        ("uint64", r"passages p32\.\.p39: nonzeros hold a row outside \[0, 8\)"),
    ],
)
def test_a_malformed_nonzeros_block_fails_the_build_by_passage(monkeypatch, defect, message):
    # Forty passages fill a block of 32 and part of a second; the defect is
    # in the second block.
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 32)
    passages = [Passage(id=f"p{i:02d}", text=f"text {i}") for i in range(40)]
    with pytest.raises(ValueError, match=message):
        build_index(passages, _NonzerosProvider(defect))
    # The same provider without a defect builds the dense rows.
    store = build_index(passages, _NonzerosProvider("none"))
    assert store.embedding_of("p35").tolist() == [0.6, 0.0, 0.8, 0.0]


@pytest.mark.parametrize(
    "count, blocks, message",
    [
        (6, 1, r"passages p04\.\.p05: no block of embeddings"),
        (6, 0, r"passages p00\.\.p05: no block of embeddings"),
        (6, 3, "6 passages fill 2 blocks of 4 rows; a further block falls past the last"),
        (0, 1, "0 passages fill 0 blocks of 4 rows; a further block falls past the last"),
    ],
)
def test_a_wrong_block_count_fails_the_build_by_passage(monkeypatch, count, blocks, message):
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 4)
    passages = [Passage(id=f"p{i:02d}", text=f"text {i}") for i in range(count)]
    given = [_rows_of_two(4), _rows_of_two(2), _rows_of_two(4)][:blocks]
    with pytest.raises(ValueError, match=message):
        VectorStore(passages, given, 4)


def test_built_matrix_is_readonly_float64_rows_of_the_provider(monkeypatch):
    # Six passages fill one block of four and part of a second.
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 4)
    embedder = HashedBagEmbedder(dimension=16)
    texts = {f"p{i}": f"passage {i} about cards" for i in range(6)}
    store = build_index(_passages(texts), embedder)
    for passage in store.passages:
        row = store.embedding_of(passage.id)
        assert row.dtype == np.float64
        assert not row.flags.writeable
        assert row.tobytes() == embedder.embed(passage.text).tobytes()


def _fold_reference(row, q, clamp=True) -> float:
    """Left-to-right float sum over the query's nonzero coordinates, clipped
    unless clamp is False."""
    total = 0.0
    for j in range(len(q)):
        if q[j] != 0.0:
            total += float(row[j]) * float(q[j])
    return min(max(total, -1.0), 1.0) if clamp else total


def _unit_rows(rng, n, dimension):
    rows = rng.standard_normal((n, dimension))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _assert_scores_are_the_fold(store, queries):
    for q in queries:
        hits = store.search(q, k=store.size)
        expected = sorted(
            ((_fold_reference(store.embedding_of(p.id), q), p.id) for p in store.passages),
            key=lambda pair: (-pair[0], pair[1]),
        )
        assert [(h.score, h.passage.id) for h in hits] == expected


def test_dense_scores_equal_the_scalar_fold_bit_for_bit():
    rng = np.random.default_rng(7)
    n = 203  # not a multiple of 4, so no row count hides a lane remainder
    passages = tuple(Passage(id=f"p{i:03d}", text="t") for i in range(n))
    store = VectorStore(passages, _unit_rows(rng, n, 48))
    _assert_scores_are_the_fold(store, list(_unit_rows(rng, 5, 48)))


def test_hashed_bag_scores_equal_the_scalar_fold_bit_for_bit():
    embedder = HashedBagEmbedder(dimension=64)
    rng = random.Random(13)
    vocab = ["card", "savings", "rates", "charge", "account", "freeze", "open", "limit"]
    texts = {f"p{i:03d}": " ".join(rng.choices(vocab, k=rng.randint(1, 6))) for i in range(101)}
    store = build_index(_passages(texts), embedder)
    queries = [embedder.embed(" ".join(rng.choices(vocab, k=rng.randint(1, 6)))) for _ in range(20)]
    _assert_scores_are_the_fold(store, queries)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_store_reads_the_provider_rows(store, rows, queries):
    """search, similarities and embedding_of against the scalar fold, bit for bit."""
    ids = [p.id for p in store.passages]
    for pid, row in zip(ids, rows):
        assert _bits(store.embedding_of(pid)) == _bits(row)
    for q in queries:
        scores = {h.passage.id: h.score for h in store.search(q, k=store.size)}
        assert _bits([scores[pid] for pid in ids]) == _bits(
            [_fold_reference(row, q) for row in rows]
        )
        picked = ids[::-1] + ids[:1]
        by_id = dict(zip(ids, rows))
        assert _bits(store.similarities(picked, q)) == _bits(
            [_fold_reference(by_id[pid], q, clamp=False) for pid in picked]
        )


_WORDS = ["card", "savings", "rates", "charge", "café", "naïve", "日本", "ßtraße", "x"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(_texts, min_size=1, max_size=10),
    queries=st.lists(_texts, min_size=1, max_size=3),
    dimension=st.integers(1, 24),
    seed=st.integers(0, 3),
)
def test_hashed_bag_store_reads_back_the_provider_bit_for_bit(texts, queries, dimension, seed):
    embedder = HashedBagEmbedder(dimension=dimension, seed=seed)
    passages = [Passage(id=f"p{i:02d}", text=text or "-") for i, text in enumerate(texts)]
    store = build_index(passages, embedder)
    rows = [embedder.embed(p.text) for p in store.passages]
    _assert_store_reads_the_provider_rows(store, rows, [embedder.embed(q) for q in queries])


# Exact zeros of both signs, negatives, and values whose products round.
_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5]),
    st.floats(-1.0, 1.0, allow_subnormal=False),
)


@settings(max_examples=100, deadline=None)
@given(
    dimension=st.integers(1, 8),
    data=st.data(),
)
def test_dense_store_reads_back_the_provider_bit_for_bit(dimension, data):
    vectors = st.lists(_entries, min_size=dimension, max_size=dimension)
    rows = data.draw(st.lists(vectors, min_size=1, max_size=8))
    # Some rows keep a single nonzero entry.
    for row, keep in zip(rows, data.draw(st.lists(st.integers(-1, dimension - 1)))):
        if keep >= 0:
            row[:] = [v if j == keep else 0.0 for j, v in enumerate(row)]
    queries = data.draw(st.lists(vectors, min_size=1, max_size=3))
    matrix = np.array(rows, dtype=np.float64)
    passages = tuple(Passage(id=f"p{i:02d}", text="t") for i in range(len(rows)))
    store = VectorStore(passages, matrix)
    _assert_store_reads_the_provider_rows(
        store, list(matrix), [np.array(q, dtype=np.float64) for q in queries]
    )


def _assert_gram_is_the_fold(store, ids):
    gram = store.gram(ids)
    assert gram.shape == (len(ids), len(ids))
    for j, pid in enumerate(ids):
        assert _bits(gram[:, j]) == _bits(store.similarities(ids, store.embedding_of(pid)))
    assert _bits(gram) == _bits(gram.T)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(_texts, min_size=1, max_size=10),
    dimension=st.integers(1, 24),
    seed=st.integers(0, 3),
    data=st.data(),
)
def test_hashed_bag_gram_is_the_fold_bit_for_bit(texts, dimension, seed, data):
    embedder = HashedBagEmbedder(dimension=dimension, seed=seed)
    passages = [Passage(id=f"p{i:02d}", text=text or "-") for i, text in enumerate(texts)]
    store = build_index(passages, embedder)
    # Repeated ids, in any order.
    picks = data.draw(st.lists(st.integers(0, len(passages) - 1), max_size=12))
    _assert_gram_is_the_fold(store, [passages[i].id for i in picks])


@settings(max_examples=100, deadline=None)
@given(
    dimension=st.integers(1, 8),
    data=st.data(),
)
def test_dense_gram_is_the_fold_bit_for_bit(dimension, data):
    vectors = st.lists(_entries, min_size=dimension, max_size=dimension)
    rows = data.draw(st.lists(vectors, min_size=1, max_size=8))
    passages = tuple(Passage(id=f"p{i:02d}", text="t") for i in range(len(rows)))
    store = VectorStore(passages, np.array(rows, dtype=np.float64))
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
    _assert_gram_is_the_fold(store, [passages[i].id for i in picks])


class _DenseProvider:
    """Seeded dense unit vectors, one per text."""

    dimension = 48

    def embed(self, text: str) -> np.ndarray:
        seed = int.from_bytes(text.encode("utf-8"), "big") % (2**32)
        return _unit_rows(np.random.default_rng(seed), 1, self.dimension)[0]

    def embed_many(self, texts) -> Nonzeros:
        return dense_nonzeros(np.array([self.embed(text) for text in texts]))


def test_a_passage_score_does_not_depend_on_its_row():
    provider = _DenseProvider()
    passages = [Passage(id=f"p{i:03d}", text=f"passage {i}") for i in range(61)]
    # Extra passages sort first and shift every original row by 3.
    extras = [Passage(id=f"a{i}", text=f"extra {i}") for i in range(3)]
    small = build_index(passages, provider)
    large = build_index(passages + extras, provider)
    for text in ("query one", "query two", "query three"):
        q = provider.embed(text)
        scores = {h.passage.id: h.score for h in large.search(q, k=large.size)}
        for hit in small.search(q, k=small.size):
            assert scores[hit.passage.id] == hit.score


def test_store_similarities_are_search_scores_before_the_clamp(store):
    embedder = HashedBagEmbedder(dimension=64)
    q = embedder.embed("freeze my card and compare rates")
    hits = store.search(q, k=store.size)
    ids = [h.passage.id for h in reversed(hits)]
    sims = store.similarities(ids, q)
    assert [min(max(s, -1.0), 1.0) for s in sims.tolist()] == [
        h.score for h in reversed(hits)
    ]
    with pytest.raises(ValueError, match="shape"):
        store.similarities(ids, np.concatenate([q, q]))
    with pytest.raises(KeyError):
        store.similarities(["nope"], q)


def _index_bytes(store) -> int:
    return sum(array.nbytes for array in store._index)


def _store_bytes(store) -> int:
    """What a store holds: its index arrays, the passage tuple and the
    id -> row table with its row numbers."""
    table = store._row_by_id
    return (
        _index_bytes(store)
        + sys.getsizeof(store._passages)
        + sys.getsizeof(table)
        + sum(map(sys.getsizeof, table.values()))
    )


def test_build_peak_memory_stays_near_one_matrix():
    embedder = HashedBagEmbedder(dimension=256)
    passages = [
        Passage(id=f"p{i:04d}", text=f"passage {i} word{i % 50} card rate") for i in range(2000)
    ]
    # Fill the embedder's token table first: it is the embedder's bounded
    # memo, not the store's, and test_embeddings.py checks its bound.
    for passage in passages:
        embedder.embed(passage.text)
    tracemalloc.start()
    try:
        store = build_index(passages, embedder)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    store_bytes = _store_bytes(store)
    # The build keeps the store and nothing more: a kept copy of even the
    # by_row positions would add an eighth of it.
    assert kept < 1.1 * store_bytes
    # Its temporaries stay under a quarter of the store; a second copy of
    # the index on the way, or a dense matrix (4 MB), would not.
    assert peak < 1.25 * store_bytes


def test_a_dense_store_holds_each_value_once():
    rng = np.random.default_rng(3)
    matrix = _unit_rows(rng, 300, 64)
    matrix[matrix < -1.5 / 8] = 0.0  # some exact zeros, which are not stored
    passages = tuple(Passage(id=f"p{i:03d}", text="t") for i in range(300))
    store = VectorStore(passages, matrix)
    assert store._index.values.dtype == np.float64
    assert store._index.values.size == np.count_nonzero(matrix)
    # A value, two int32 indices and a column number per entry, and a
    # pointer per row and column.
    assert _index_bytes(store) <= 2.5 * matrix.nbytes


@pytest.mark.parametrize("holes", [False, True])
def test_a_dense_search_holds_a_few_score_arrays(holes):
    rng = np.random.default_rng(5)
    n, dimension = 2000, 256
    matrix = _unit_rows(rng, n, dimension)
    if holes:  # no column holds every row
        matrix[matrix < -0.1] = 0.0
    store = VectorStore(tuple(Passage(id=f"p{i:04d}", text="t") for i in range(n)), matrix)
    q = _unit_rows(rng, 1, dimension)[0]
    tracemalloc.start()
    try:
        hits = store.search(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [h.score for h in hits] == sorted(
        (_fold_reference(row, q) for row in matrix), reverse=True
    )[: len(hits)]
    # A few arrays of n scores; gathering every stored entry under the
    # query would take 4 MB an array.
    assert peak < 8 * n * 8


def _hits(hits):
    return [(h.passage.id, h.score) for h in hits]


def test_repeated_search_returns_identical_hits(store):
    q = HashedBagEmbedder(dimension=64).embed("card rates")
    first = store.search(q, k=3)
    again = store.search(q.copy(), k=3)
    assert again == first
    assert [h.score for h in again] == [h.score for h in first]


def test_mutating_a_result_leaves_the_memo_intact(store):
    q = HashedBagEmbedder(dimension=64).embed("card")
    first = store.search(q, k=3)
    expected = list(first)
    first.clear()
    second = store.search(q, k=3)
    assert second == expected
    second.reverse()
    assert store.search(q, k=3) == expected


def test_each_k_is_its_own_memo_entry(store):
    q = HashedBagEmbedder(dimension=64).embed("card")
    assert len(store.search(q, k=1)) == 1
    assert len(store.search(q, k=5)) == 5
    assert store._memo.cache_info().currsize == 2
    assert store.search(q, k=1) == store.search(q, k=5)[:1]


def _store_with_memo_bound(monkeypatch, bound):
    # The bound is read when the store is built.
    monkeypatch.setattr(vectorstore, "SEARCH_CACHE_SIZE", bound)
    embedder = HashedBagEmbedder(dimension=64)
    passages = _passages({f"p{i}": f"card rate number {i}" for i in range(5)})
    return build_index(passages, embedder), embedder


def test_memo_never_exceeds_its_bound(monkeypatch):
    store, embedder = _store_with_memo_bound(monkeypatch, 3)
    queries = [embedder.embed(f"card number {i}") for i in range(10)]
    for q in queries:
        store.search(q, k=2)
        assert store._memo.cache_info().currsize <= 3
    # The least recently used entries went first: the last three hit, the
    # first misses.
    for q in queries[-3:]:
        store.search(q, k=2)
    assert store._memo.cache_info().hits == 3
    store.search(queries[0], k=2)
    assert store._memo.cache_info().hits == 3
    assert store._memo.cache_info().misses == 11


def test_memo_of_size_zero_stores_nothing(monkeypatch):
    store, embedder = _store_with_memo_bound(monkeypatch, 0)
    q = embedder.embed("card rates")
    expected = store.search(q, k=3)
    for _ in range(3):
        assert store.search(q, k=3) == expected
    info = store._memo.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 4)


def test_identical_searches_scan_once(store):
    q = HashedBagEmbedder(dimension=64).embed("freeze my card")
    results = [store.search(q, k=4) for _ in range(6)]
    info = store._memo.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    assert all(r == results[0] for r in results)


def test_dropped_store_is_freed_without_gc():
    # The memo must hold no reference back to the store: a cycle would keep
    # the whole matrix alive until the cycle collector ran.
    embedder = HashedBagEmbedder(dimension=64)
    store = build_index(_passages({"p1": "cancel my card", "p2": "open an account"}), embedder)
    store.search(embedder.embed("card"), k=2)
    ref = weakref.ref(store)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del store
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("bound", [vectorstore.SEARCH_CACHE_SIZE, 3])
def test_threaded_searches_match_sequential(store, monkeypatch, bound):
    # A bound of 3 makes the threads evict each other's entries.
    monkeypatch.setattr(vectorstore, "SEARCH_CACHE_SIZE", bound)
    embedder = HashedBagEmbedder(dimension=64)
    store = build_index(store.passages, embedder)
    texts = ["card", "savings account", "interest rates", "dispute charge", "freeze"] * 40
    queries = [embedder.embed(t) for t in texts]
    fresh = build_index(store.passages, embedder)
    sequential = [_hits(fresh.search(q, k=3)) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda q: _hits(store.search(q, k=3)), queries, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
    assert store._memo.cache_info().currsize <= bound


def test_checks_still_run_on_a_memoized_vector(store):
    q = HashedBagEmbedder(dimension=64).embed("card")
    store.search(q, k=3)
    with pytest.raises(ValueError):
        store.search(q, k=0)
    with pytest.raises(ValueError, match="shape"):
        store.search(np.concatenate([q, q]), k=3)
    with pytest.raises(ValueError, match="shape"):
        store.search(q.reshape(1, -1), k=3)
