"""Two-stage candidate filtering.

Stage one is a pure cosine gate against the original query embedding:
clearly relevant candidates are retained, clearly irrelevant ones
discarded. A node's outcomes come from two comparisons over all its
similarities at once. Only the borderline band between the two thresholds
is escalated to a judge call, one candidate at a time in input order, so
judge volume is exactly the borderline count. Survivors keep their input
order.

A node's cosines are the vector store's ordered fold over each
candidate's stored nonzeros, gathered in one call; it is the only fold. A
plain id -> embedding table is first read into a store of its own over
the candidates' rows. A candidate's similarity thus has the bits of its
search score against the same query, before search's clamp. The gate
does not clamp: with thresholds in [0, 1], only search needs to, since
its scores reach the traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Callable, Mapping, Sequence

import numpy as np

from .vectorstore import Passage, ScoredPassage, VectorStore


@dataclass(frozen=True)
class GateThresholds:
    """Retain at or above hi, discard below lo, judge in between.

    lo == hi is allowed; it collapses the borderline band so the judge is
    never consulted (and lo == hi == 0 retains every candidate with a
    non-negative similarity).
    """

    hi: float = 0.70
    lo: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo:
            raise ValueError(f"apm.lo: must be >= 0, got {self.lo}")
        if not self.lo <= self.hi <= 1.0:
            raise ValueError(f"apm.hi: must be in [apm.lo ({self.lo}), 1], got {self.hi}")


class GateOutcome(Enum):
    RETAIN = "retain"
    DISCARD = "discard"
    BORDERLINE = "borderline"


def _bands(sims: np.ndarray, thresholds: GateThresholds) -> tuple[np.ndarray, np.ndarray]:
    """Retain and borderline masks of an array or a numpy scalar of similarities.

    Borderline is "neither retained nor below lo", so a NaN similarity,
    which fails both comparisons, is judged.
    """
    retain = sims >= thresholds.hi
    return retain, ~(retain | (sims < thresholds.lo))


def quantitative_gate(sim: float, thresholds: GateThresholds) -> GateOutcome:
    retain, borderline = _bands(np.float64(sim), thresholds)
    if retain:
        return GateOutcome.RETAIN
    return GateOutcome.BORDERLINE if borderline else GateOutcome.DISCARD


# (passage, similarity to the original query) -> keep?
SemanticJudge = Callable[[Passage, float], bool]


@dataclass
class PruneResult:
    survivors: list[ScoredPassage]
    judge_calls: int


def prune(
    original_embedding: np.ndarray,
    candidates: Sequence[ScoredPassage],
    thresholds: GateThresholds,
    judge: SemanticJudge,
    *,
    embedding_of: VectorStore | Mapping[str, np.ndarray],
) -> PruneResult:
    """Gate every candidate, escalating only the borderline band.

    Similarity is always computed against the original query embedding,
    not the sub-query that retrieved the candidate, so one detached branch
    cannot flood the evidence pool. embedding_of is the store that holds
    the candidates, or a table of their embeddings, read into a store over
    the candidates' distinct passages in id order; an embedding whose
    dimension differs from the query's, or that holds a non-finite value,
    raises ValueError.
    """
    if not candidates:
        return PruneResult(survivors=[], judge_calls=0)
    if isinstance(embedding_of, VectorStore):
        store = embedding_of
    else:
        by_id = {c.passage.id: c.passage for c in candidates}
        passages = [by_id[pid] for pid in sorted(by_id)]
        store = VectorStore(passages, np.stack([embedding_of[p.id] for p in passages]))
    sims = store.similarities([c.passage.id for c in candidates], original_embedding)
    retain, borderline = _bands(sims, thresholds)
    keep = retain.tolist()
    judged = np.flatnonzero(borderline)
    for i, sim in zip(judged.tolist(), sims[judged].tolist()):
        keep[i] = judge(candidates[i].passage, sim)
    return PruneResult(survivors=list(compress(candidates, keep)), judge_calls=len(judged))
