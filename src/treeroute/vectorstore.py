"""Exact in-memory vector store over unit-norm embeddings.

Search is exhaustive cosine similarity: one dot product against the full
matrix, clamped to [-1, 1] (the only clamp on a similarity, since search
scores reach the traces), then an exact top-k by partition. Rows are
stored in ascending passage id order, so the row index breaks ties and
results are stable under re-indexing in any order.

The store never changes after build_index(), so search memoizes its
result on the query vector's bytes and k: a repeated query skips the
matrix product and returns the same scores bit for bit. The memo keeps
the SEARCH_CACHE_SIZE most recently used results.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingProvider

DEFAULT_SEARCH_K = 32
SEARCH_CACHE_SIZE = 1024


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
        self._matrix = matrix
        self._row_by_id = {p.id: i for i, p in enumerate(self._passages)}
        self._memo: OrderedDict[tuple, tuple[ScoredPassage, ...]] = OrderedDict()
        # Worker threads share one store. Two misses on the same key may both
        # scan; they store equal results.
        self._memo_lock = threading.Lock()

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
        key = (query_embedding.dtype.str, query_embedding.tobytes(), k)
        with self._memo_lock:
            hits = self._memo.get(key)
            if hits is not None:
                self._memo.move_to_end(key)
                return list(hits)
        hits = self._scan(query_embedding, k)
        with self._memo_lock:
            self._memo[key] = hits
            while len(self._memo) > SEARCH_CACHE_SIZE:
                self._memo.popitem(last=False)
        return list(hits)

    def _scan(self, query_embedding: np.ndarray, k: int) -> tuple[ScoredPassage, ...]:
        scores = np.clip(self._matrix @ query_embedding, -1.0, 1.0)
        n = len(scores)
        if k < n:
            # Every row tied with the k-th score competes for the last places.
            kth = np.partition(scores, n - k)[n - k]
            rows = np.flatnonzero(scores >= kth)
        else:
            rows = np.arange(n)
        order = rows[np.lexsort((rows, -scores[rows]))][:k]
        return tuple(
            ScoredPassage(passage=self._passages[i], score=float(scores[i]))
            for i in order
        )


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
    matrix = np.empty((len(ordered), provider.dimension), dtype=np.float64)
    for row, passage in enumerate(ordered):
        vector = provider.embed(passage.text)
        if vector.shape != (provider.dimension,):
            raise ValueError(
                f"passage {passage.id}: embedding has shape {vector.shape}, "
                f"provider dimension is {provider.dimension}"
            )
        matrix[row] = vector
    matrix.setflags(write=False)
    return VectorStore(ordered, matrix)
