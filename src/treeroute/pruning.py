"""Two-stage candidate filtering.

Stage one is a pure cosine gate against the original query embedding:
clearly relevant candidates are retained, clearly irrelevant ones
discarded. Only the borderline band between the two thresholds is
escalated to a judge call, so judge volume is exactly the borderline
count. Survivors keep their input order. The cosines, one matrix-vector
product per node, are not clamped: with thresholds in [0, 1] only search
needs to clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .vectorstore import Passage, ScoredPassage


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
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ValueError(
                f"thresholds must satisfy 0 <= lo <= hi <= 1, got lo={self.lo} hi={self.hi}"
            )


class GateOutcome(Enum):
    RETAIN = "retain"
    DISCARD = "discard"
    BORDERLINE = "borderline"


def quantitative_gate(sim: float, thresholds: GateThresholds) -> GateOutcome:
    if sim >= thresholds.hi:
        return GateOutcome.RETAIN
    if sim < thresholds.lo:
        return GateOutcome.DISCARD
    return GateOutcome.BORDERLINE


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
    embedding_of: Callable[[str], np.ndarray] | Mapping[str, np.ndarray],
) -> PruneResult:
    """Gate every candidate, escalating only the borderline band.

    Similarity is always computed against the original query embedding,
    not the sub-query that retrieved the candidate, so one detached branch
    cannot flood the evidence pool.
    """
    if not candidates:
        return PruneResult(survivors=[], judge_calls=0)
    lookup = embedding_of.__getitem__ if isinstance(embedding_of, Mapping) else embedding_of
    sims = np.array([lookup(c.passage.id) for c in candidates]) @ original_embedding
    survivors: list[ScoredPassage] = []
    judge_calls = 0
    for candidate, sim in zip(candidates, sims.tolist()):
        outcome = quantitative_gate(sim, thresholds)
        if outcome is GateOutcome.BORDERLINE:
            judge_calls += 1
            keep = judge(candidate.passage, sim)
        else:
            keep = outcome is GateOutcome.RETAIN
        if keep:
            survivors.append(candidate)
    return PruneResult(survivors=survivors, judge_calls=judge_calls)
