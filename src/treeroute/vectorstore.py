"""Exact in-memory vector store over unit-norm embeddings.

Search is exhaustive cosine similarity: one dot product against the full
matrix, then an exact top-k by partition. Rows are stored in ascending
passage id order, so the row index breaks ties and results are stable
under re-indexing in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingProvider

DEFAULT_SEARCH_K = 32


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
        """Top-k passages by cosine, ties broken by ascending passage id."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if query_embedding.shape != (self.dimension,):
            raise ValueError(
                f"query embedding has shape {query_embedding.shape}, "
                f"store dimension is {self.dimension}"
            )
        if not self._passages:
            return []
        scores = np.clip(self._matrix @ query_embedding, -1.0, 1.0)
        n = len(scores)
        if k < n:
            # Every row tied with the k-th score competes for the last places.
            kth = np.partition(scores, n - k)[n - k]
            rows = np.flatnonzero(scores >= kth)
        else:
            rows = np.arange(n)
        order = rows[np.lexsort((rows, -scores[rows]))][:k]
        return [
            ScoredPassage(passage=self._passages[i], score=float(scores[i]))
            for i in order
        ]


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
    if not ordered:
        return VectorStore((), np.zeros((0, provider.dimension), dtype=np.float64))
    matrix = np.stack([provider.embed(p.text) for p in ordered])
    matrix.setflags(write=False)
    return VectorStore(ordered, matrix)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit-norm vectors, clamped to [-1, 1]."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return min(max(float(np.dot(a, b)), -1.0), 1.0)
