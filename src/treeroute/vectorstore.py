"""Exact in-memory vector store over unit-norm embeddings.

The matrix is stored column-major: one row per passage, in ascending
passage id order, and each coordinate's column contiguous in memory.
Search and the pruning gate compute similarities with one ordered fold,
similarities(): for each nonzero coordinate j of the query, in ascending
order, add column j times q[j]. Its bits depend only on the two vectors,
never on the BLAS build, the thread split or a passage's row, and a
sparse hashed-bag query reads only its few nonzero columns. A dense
query reads every column, and then the fold is slower than a BLAS
matrix-vector product.

Search is exhaustive cosine similarity by that fold over the whole
matrix, clamped to [-1, 1] (the only clamp on a similarity, since search
scores reach the traces), then an exact top-k by partition. The row index
breaks ties, so results are stable under re-indexing in any order. The
gate folds the same columns over a node's candidate rows, so the root's
gate similarities equal its hit scores before the clamp. Dedup reads
rows through embedding_of() and takes its own product; its values never
reach the traces.

The store never changes after build_index(), so search memoizes its
result on the query vector's dtype, bytes and k in a functools.lru_cache
of SEARCH_CACHE_SIZE entries, read when the store is built: a repeated
query skips the fold and returns the same scores bit for bit, and
store._memo.cache_info() counts hits and misses. The cache wraps a
module-level function over the matrix and passages, never a bound
method, so it holds no reference back to the store and a dropped store
is freed at once, without waiting for the cycle collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingProvider

DEFAULT_SEARCH_K = 32
SEARCH_CACHE_SIZE = 1024
# Rows embedded into a row-major block before one copy into the
# column-major matrix; row-by-row writes would stride across every column.
BUILD_BLOCK_ROWS = 128


def similarities(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Every row of matrix dotted with vector, as one left fold.

    For each nonzero coordinate j of vector, in ascending order, the
    result accumulates matrix[:, j] * vector[j], starting from zero. Each
    row's value is thus the left-to-right float sum of its products over
    the vector's nonzero coordinates, whatever the row's position or the
    number of rows. Not clamped.
    """
    if vector.shape != (matrix.shape[1],):
        raise ValueError(
            f"vector has shape {vector.shape}, matrix rows have {matrix.shape[1]} coordinates"
        )
    out = np.zeros(matrix.shape[0])
    term = np.empty_like(out)
    for j in np.flatnonzero(vector):
        np.multiply(matrix[:, j], vector[j], out=term)
        out += term
    return out


@dataclass(frozen=True)
class Passage:
    """One retrievable text with optional intent labels and domain."""

    id: str
    text: str
    intent_labels: frozenset[str] = frozenset()
    domain: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("passage id must be nonempty")
        if not self.text:
            raise ValueError(f"passage {self.id}: text must be nonempty")


@dataclass(frozen=True)
class ScoredPassage:
    """A passage with a relevance score and the score's provenance."""

    passage: Passage
    score: float
    source: str = "cosine"


class VectorStore:
    """Immutable passage index; build it once with build_index().

    Passages must be in strictly ascending id order, as build_index()
    leaves them: search breaks score ties by row index.
    """

    def __init__(self, passages: Sequence[Passage], matrix: np.ndarray):
        self._passages = tuple(passages)
        for before, after in zip(self._passages, self._passages[1:]):
            if not before.id < after.id:
                raise ValueError(
                    f"passage ids must ascend strictly: {before.id!r} before {after.id!r}"
                )
        # A column-major matrix is kept as is; any other is copied once.
        self._matrix = np.asfortranarray(matrix)
        self._row_by_id = {p.id: i for i, p in enumerate(self._passages)}
        # Worker threads share one store. Two misses on the same key may both
        # scan; they cache equal results. The cache wraps a partial over the
        # arrays, not a bound method, so it never keeps the store alive.
        self._memo = lru_cache(maxsize=SEARCH_CACHE_SIZE)(
            partial(_scan, self._matrix, self._passages)
        )

    @property
    def size(self) -> int:
        return len(self._passages)

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    @property
    def passages(self) -> tuple[Passage, ...]:
        return self._passages

    def embedding_of(self, passage_id: str) -> np.ndarray:
        row = self._row_by_id.get(passage_id)
        if row is None:
            raise KeyError(f"unknown passage id: {passage_id}")
        return self._matrix[row]

    def similarities(self, passage_ids: Sequence[str], vector: np.ndarray) -> np.ndarray:
        """Unclamped fold similarities of the given passages to vector, in order.

        The rows are gathered from the vector's nonzero columns in one call,
        so each value has the bits of the passage's search score before the
        clamp.
        """
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"vector has shape {vector.shape}, store dimension is {self.dimension}"
            )
        rows = [self._row_by_id[pid] for pid in passage_ids]
        columns = np.flatnonzero(vector)
        return similarities(self._matrix[np.ix_(rows, columns)], vector[columns])

    def search(self, query_embedding: np.ndarray, k: int = DEFAULT_SEARCH_K) -> list[ScoredPassage]:
        """Top-k passages by cosine, ties broken by ascending passage id.

        A query vector and k seen before get the memoized hits in a new list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if query_embedding.shape != (self.dimension,):
            raise ValueError(
                f"query embedding has shape {query_embedding.shape}, "
                f"store dimension is {self.dimension}"
            )
        if not self._passages:
            return []
        # The shape check above makes the bytes and dtype a faithful key.
        return list(self._memo(query_embedding.dtype.str, query_embedding.tobytes(), k))


def _scan(
    matrix: np.ndarray, passages: tuple[Passage, ...], dtype: str, data: bytes, k: int
) -> tuple[ScoredPassage, ...]:
    scores = similarities(matrix, np.frombuffer(data, dtype))
    np.clip(scores, -1.0, 1.0, out=scores)
    n = len(scores)
    if k < n:
        # Every row tied with the k-th score competes for the last places.
        kth = np.partition(scores, n - k)[n - k]
        rows = np.flatnonzero(scores >= kth)
    else:
        rows = np.arange(n)
    order = rows[np.lexsort((rows, -scores[rows]))][:k]
    return tuple(ScoredPassage(passage=passages[i], score=float(scores[i])) for i in order)


def build_index(passages: Iterable[Passage], provider: EmbeddingProvider) -> VectorStore:
    """Embed and index passages; rejects duplicate ids by name.

    Passages are sorted by id before embedding so the resulting store is
    identical regardless of input order.
    """
    ordered = sorted(passages, key=lambda p: p.id)
    seen: set[str] = set()
    for passage in ordered:
        if passage.id in seen:
            raise ValueError(f"duplicate passage id: {passage.id}")
        seen.add(passage.id)
    # Filled in place, so the build never holds the vectors twice.
    matrix = np.empty((len(ordered), provider.dimension), dtype=np.float64, order="F")
    block = np.empty((BUILD_BLOCK_ROWS, provider.dimension), dtype=np.float64)
    for start in range(0, len(ordered), BUILD_BLOCK_ROWS):
        chunk = ordered[start : start + BUILD_BLOCK_ROWS]
        for offset, passage in enumerate(chunk):
            vector = provider.embed(passage.text)
            if vector.shape != (provider.dimension,):
                raise ValueError(
                    f"passage {passage.id}: embedding has shape {vector.shape}, "
                    f"provider dimension is {provider.dimension}"
                )
            block[offset] = vector
        matrix[start : start + len(chunk)] = block[: len(chunk)]
    matrix.setflags(write=False)
    return VectorStore(ordered, matrix)
