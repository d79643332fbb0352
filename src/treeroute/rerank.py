"""Evidence consolidation: deduplicate, rescore once, select.

Tree expansion hands over a pool of per-node survivors that usually
overlaps heavily; standard mode hands over its search hits. The pool is
deduplicated first (exact text after normalization, then near-duplicates
by the store's fold similarity of their indexed rows, every pair from one
VectorStore.gram() call), rescored with a single batched reranker call,
and reduced to a bounded evidence set by rank and score floor. Each text
is normalized once while it stays in normalize_text's memo, a bounded
table of NORMALIZED_TEXT_TABLE_SIZE texts and their normalized copies. One
`SelectionRule` holds every setting of this stage, the `rrl.*` config
section: the near-duplicate threshold, the top ranks, the inclusive score
floor and the cap. The floor adds passages beyond the top ranks only when
the cap exceeds them. The reranker serves one query and supplies its own
fallback scores if its call fails; rescoring clamps what it returns to
[0, 1]. Dedup similarities are not clamped: with the threshold in (0, 1],
only search needs to clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .vectorstore import ScoredPassage, VectorStore

# The most recent texts normalize_text keeps, with their normalized copies:
# 1.7 MB under tracemalloc when full of 50-character passages.
NORMALIZED_TEXT_TABLE_SIZE = 8192

# candidates -> one score per candidate, for the query the reranker serves
Reranker = Callable[[Sequence[ScoredPassage]], Sequence[float]]


@dataclass(frozen=True)
class SelectionRule:
    """Merge near-duplicates at the threshold, then keep the union of the
    top ranks and everything at or above the floor, up to the cap."""

    near_dup_threshold: float = 0.95
    top_rank: int = 10
    score_floor: float = 0.70
    cap: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.near_dup_threshold <= 1.0:
            raise ValueError(
                f"rrl.near_dup_threshold: must be in (0, 1], got {self.near_dup_threshold}"
            )
        if self.top_rank < 1:
            raise ValueError(f"rrl.top_rank: must be >= 1, got {self.top_rank}")
        if not 0.0 <= self.score_floor <= 1.0:
            raise ValueError(f"rrl.score_floor: must be in [0, 1], got {self.score_floor}")
        if self.cap < self.top_rank:
            raise ValueError(
                f"rrl.cap: must be >= rrl.top_rank ({self.top_rank}), got {self.cap}"
            )


@lru_cache(maxsize=NORMALIZED_TEXT_TABLE_SIZE)
def normalize_text(text: str) -> str:
    """text lower-cased, its whitespace runs collapsed to single spaces.

    Memoized: a passage that keeps reaching dedup is normalized once while
    it stays among the NORMALIZED_TEXT_TABLE_SIZE texts in the table. The
    table holds strings only: each text (for a passage, the store's own
    string) and its normalized copy.
    """
    return " ".join(text.lower().split())


def _ranked(candidates: Sequence[ScoredPassage]) -> list[ScoredPassage]:
    return sorted(candidates, key=lambda c: (-c.score, c.passage.id))


def deduplicate(
    candidates: Sequence[ScoredPassage],
    rule: SelectionRule,
    store: VectorStore,
) -> list[ScoredPassage]:
    """Merge exact and near duplicates, keeping the better-scored copy.

    Candidates are processed in descending score order (ties by id), so
    the survivor of every merge is the highest-scored member and the
    result is already ranked. A candidate whose normalized text ranks
    after an equal one is dropped; each one kept then drops the later
    ones whose similarity to it, read from the store, reaches the
    threshold. Applying this twice changes nothing.
    """
    distinct: list[ScoredPassage] = []
    seen_text: set[str] = set()
    for candidate in _ranked(candidates):
        normalized = normalize_text(candidate.passage.text)
        if normalized not in seen_text:
            seen_text.add(normalized)
            distinct.append(candidate)
    near = store.gram([c.passage.id for c in distinct]) >= rule.near_dup_threshold
    np.fill_diagonal(near, False)
    blocked = np.zeros(len(distinct), dtype=bool)
    # Each kept row blocks the later rows it is near. A row near no other
    # row blocks none, so only the rows near another are walked.
    for i in np.flatnonzero(near.any(axis=1)).tolist():
        if not blocked[i]:
            blocked[i + 1 :] |= near[i, i + 1 :]
    return [c for c, dropped in zip(distinct, blocked.tolist()) if not dropped]


def global_rescore(
    candidates: Sequence[ScoredPassage], reranker: Reranker
) -> list[ScoredPassage]:
    """Rescore all candidates in one batched call; none for an empty pool."""
    if not candidates:
        return []
    scores = list(reranker(candidates))
    if len(scores) != len(candidates):
        raise ValueError(
            f"reranker returned {len(scores)} scores for {len(candidates)} candidates"
        )
    return [
        ScoredPassage(c.passage, min(max(float(s), 0.0), 1.0), source="rerank")
        for c, s in zip(candidates, scores)
    ]


def select_topk(scored: Sequence[ScoredPassage], rule: SelectionRule) -> list[ScoredPassage]:
    """Union of top ranks and at-or-above-floor scores, capped, score-descending."""
    ranked = _ranked(scored)
    selected = []
    for rank, candidate in enumerate(ranked, start=1):
        if rank <= rule.top_rank or candidate.score >= rule.score_floor:
            selected.append(candidate)
    return selected[: rule.cap]


def consolidate(
    candidates: Sequence[ScoredPassage],
    rule: SelectionRule,
    store: VectorStore,
    reranker: Reranker,
) -> list[ScoredPassage]:
    """Full consolidation pass over the evidence pool: the final evidence."""
    deduped = deduplicate(candidates, rule, store)
    return select_topk(global_rescore(deduped, reranker), rule)
