"""Hierarchical query expansion with per-node retrieval and pruning.

The tree is grown breadth first from the root query: every non-pruned
node below the target depth is split into exactly two sub-queries, and
every node (the root included) retrieves candidates that are immediately
gated by the pruner; the root can instead take hits the caller already
retrieved for the same query. A node is pruned exactly when its gate keeps
no candidate; it grows no children, so irrelevant branches die early. A
node whose decomposer raises DecompositionError (the decomposer does any
retrying) stays a leaf: it keeps its candidates, which join the evidence
like any other leaf's.

A node's id is its path: the root is "n" and the b-th child of node p is
"p.b", so the id names the node's parent and depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DecompositionError
from .pruning import PruneResult
from .routing import MAX_DEPTH
from .vectorstore import DEFAULT_SEARCH_K, ScoredPassage, VectorStore

ROOT_NODE_ID = "n"

# node text -> two sub-queries; raises DecompositionError
Decomposer = Callable[[str], tuple[str, str]]
# (sub-query text, retrieved candidates) -> pruning result
Pruner = Callable[[str, list[ScoredPassage]], PruneResult]
# query text -> unit-norm embedding
Embedder = Callable[[str], np.ndarray]


@dataclass
class QueryNode:
    id: str
    text: str
    child_ids: list[str] = field(default_factory=list)
    candidates: list[ScoredPassage] = field(default_factory=list)

    @property
    def pruned(self) -> bool:
        return not self.candidates


@dataclass
class RetrievalTree:
    nodes: dict[str, QueryNode]
    warnings: list[str] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def pruned_count(self) -> int:
        return sum(1 for node in self.nodes.values() if node.pruned)

    @property
    def decompose_calls(self) -> int:
        """Successful decompositions: every node with children had one."""
        return sum(1 for node in self.nodes.values() if node.child_ids)

    @property
    def leaf_count(self) -> int:
        return sum(
            1 for node in self.nodes.values() if not node.pruned and not node.child_ids
        )


def expand(
    root_query: str,
    depth: int,
    *,
    store: VectorStore,
    embedder: Embedder,
    pruner: Pruner,
    decomposer: Decomposer,
    k: int = DEFAULT_SEARCH_K,
    root_hits: list[ScoredPassage] | None = None,
) -> RetrievalTree:
    """Grow the retrieval tree level by level to the requested depth.

    Nodes at each level are processed in id order, which makes the whole
    expansion deterministic for deterministic backends. root_hits, when
    given, must be the result of searching root_query with the same k; the
    root then gates them instead of searching again.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")

    tree = RetrievalTree(nodes={})
    root = QueryNode(id=ROOT_NODE_ID, text=root_query)
    tree.nodes[root.id] = root
    if root_hits is None:
        root_hits = store.search(embedder(root_query), k=k)
    root.candidates = pruner(root_query, root_hits).survivors

    frontier = [root.id]
    for _ in range(depth):
        next_frontier: list[str] = []
        for node_id in frontier:
            node = tree.nodes[node_id]
            if node.pruned:
                continue
            try:
                first, second = decomposer(node.text)
            except DecompositionError as exc:
                tree.warnings.append(f"node {node.id}: {exc}")
                continue
            for branch, sub_query in enumerate((first, second)):
                child = QueryNode(id=f"{node.id}.{branch}", text=sub_query)
                node.child_ids.append(child.id)
                tree.nodes[child.id] = child
                hits = store.search(embedder(sub_query), k=k)
                child.candidates = pruner(sub_query, hits).survivors
                next_frontier.append(child.id)
        frontier = next_frontier
    return tree


def collect_evidence(tree: RetrievalTree) -> list[ScoredPassage]:
    """Every node's candidates, in node id then rank order."""
    return [hit for node_id in sorted(tree.nodes) for hit in tree.nodes[node_id].candidates]
