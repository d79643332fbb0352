from __future__ import annotations

import random

import pytest

from treeroute.backends import BackendRole, StubChatBackend, stub_decompose
from treeroute.embeddings import HashedBagEmbedder
from treeroute.errors import BackendError, DecompositionError
from treeroute.pruning import PruneResult
from treeroute.roles import RoleRunner
from treeroute.routing import MAX_DEPTH
from treeroute.tree import (
    ROOT_NODE_ID,
    RetrievalTree,
    collect_evidence,
    expand,
)
from treeroute.vectorstore import Passage, ScoredPassage, build_index

EMBEDDER = HashedBagEmbedder(dimension=64)

STORE = build_index(
    [
        Passage(id=f"p{i}", text=f"passage number {i} about banking topic {i}")
        for i in range(6)
    ],
    EMBEDDER,
)


def _keep_all(sub_query, candidates):
    return PruneResult(survivors=list(candidates), judge_calls=0)


def _drop_all(sub_query, candidates):
    return PruneResult(survivors=[], judge_calls=0)


def _expand(depth, pruner=_keep_all, decomposer=stub_decompose, **kwargs):
    return expand(
        "compare savings rates and open the better account",
        depth,
        store=STORE,
        embedder=EMBEDDER.embed,
        pruner=pruner,
        decomposer=decomposer,
        **kwargs,
    )


def test_depth_must_be_in_range():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            _expand(bad)
    assert MAX_DEPTH == 3


def test_depth_one_shape():
    tree = _expand(1)
    assert tree.node_count == 3
    assert tree.decompose_calls == 1
    assert tree.leaf_count == 2
    root = tree.nodes[ROOT_NODE_ID]
    assert root.child_ids == ["n.0", "n.1"]
    assert tree.nodes["n.0"].parent_id == ROOT_NODE_ID
    assert tree.nodes["n.0"].depth_level == 1


def test_depth_three_full_binary_tree():
    tree = _expand(3)
    assert tree.node_count == 15
    assert tree.leaf_count == 8
    assert tree.decompose_calls == 7
    assert tree.pruned_count == 0
    leaves = [n for n in tree.nodes.values() if not n.child_ids]
    assert all(n.depth_level == 3 for n in leaves)
    # Ids follow the parent.branch scheme at every level.
    assert "n.0.1.0" in tree.nodes
    assert tree.nodes["n.0.1.0"].parent_id == "n.0.1"


def test_every_node_retrieves():
    seen: list[str] = []

    def spy(sub_query, candidates):
        seen.append(sub_query)
        return PruneResult(survivors=list(candidates), judge_calls=0)

    tree = _expand(2, pruner=spy)
    assert len(seen) == tree.node_count == 7


def test_pruned_root_stops_expansion():
    tree = _expand(3, pruner=_drop_all)
    assert tree.node_count == 1
    assert tree.decompose_calls == 0
    assert tree.nodes[ROOT_NODE_ID].pruned
    assert tree.leaf_count == 0
    assert collect_evidence(tree) == []


def test_pruned_branch_stops_but_sibling_grows():
    def prune_first_child(sub_query, candidates):
        survivors = [] if sub_query == stub_decompose(
            "compare savings rates and open the better account"
        )[0] else list(candidates)
        return PruneResult(survivors=survivors, judge_calls=0)

    tree = _expand(2, pruner=prune_first_child)
    assert tree.nodes["n.0"].pruned
    assert tree.nodes["n.0"].child_ids == []
    assert tree.nodes["n.1"].child_ids == ["n.1.0", "n.1.1"]
    assert tree.node_count == 5
    assert tree.decompose_calls == 2


def test_retrieval_k_is_passed_through():
    sizes: list[int] = []

    def pruner(sub_query, candidates):
        sizes.append(len(candidates))
        return PruneResult(survivors=list(candidates), judge_calls=0)

    _expand(1, pruner=pruner, k=2)
    assert sizes == [2, 2, 2]


class _ScriptedDecomposer:
    """Spends one scripted fault per call, then answers as the stub.

    A fault that is an exception is raised; a string is returned as the
    reply.
    """

    def __init__(self, *faults):
        self.faults = list(faults)
        self.inner = StubChatBackend()

    def chat(self, request):
        if self.faults:
            fault = self.faults.pop(0)
            if isinstance(fault, Exception):
                raise fault
            return fault
        return self.inner.chat(request)


def _runner(backend, **kwargs) -> RoleRunner:
    return RoleRunner(backend, query="compare savings rates and open the better account", **kwargs)


def _assert_unsplit_leaf(tree, node_id):
    """A node whose split failed keeps its candidates as an unpruned leaf."""
    node = tree.nodes[node_id]
    assert node.candidates, "gated candidates must survive the failure"
    assert not node.pruned
    assert node.child_ids == []
    evidence = collect_evidence(tree)
    assert all(hit in evidence for hit in node.candidates)


def test_decompose_retries_once_then_succeeds():
    runner = _runner(_ScriptedDecomposer("garbled"))
    tree = _expand(1, decomposer=runner.decompose)
    assert runner.calls[BackendRole.DECOMPOSER] == 2
    assert tree.nodes["n.0"].text == "compare savings rates"
    assert tree.nodes["n.1"].text == "open the better account"
    assert tree.warnings == []


def test_decompose_gives_up_after_retry():
    runner = _runner(_ScriptedDecomposer(BackendError("decomposer", "down"), "garbled"))
    tree = _expand(1, decomposer=runner.decompose)
    assert runner.calls[BackendRole.DECOMPOSER] == 2
    _assert_unsplit_leaf(tree, ROOT_NODE_ID)
    assert tree.leaf_count == 1
    assert tree.warnings == [
        "node n: decomposition failed after 1 retry: expected 2 numbered sub-queries, found 0"
    ]


def test_decompose_zero_retries():
    runner = _runner(_ScriptedDecomposer("garbled"), decompose_retries=0)
    tree = _expand(1, decomposer=runner.decompose)
    assert runner.calls[BackendRole.DECOMPOSER] == 1
    _assert_unsplit_leaf(tree, ROOT_NODE_ID)
    assert tree.leaf_count == 1


def test_decompose_rejects_empty_text():
    runner = _runner(StubChatBackend())
    tree = expand(
        "", 1, store=STORE, embedder=EMBEDDER.embed, pruner=_keep_all, decomposer=runner.decompose
    )
    _assert_unsplit_leaf(tree, ROOT_NODE_ID)
    assert tree.leaf_count == 1
    assert tree.warnings == ["node n: cannot decompose an empty query"]
    assert sum(runner.calls.values()) == 0


def test_decompose_does_not_swallow_unrelated_errors():
    runner = _runner(_ScriptedDecomposer(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        _expand(1, decomposer=runner.decompose)


def test_root_decomposition_failure_keeps_candidates():
    def broken(text):
        raise DecompositionError("always garbled")

    tree = _expand(2, decomposer=broken)
    _assert_unsplit_leaf(tree, ROOT_NODE_ID)
    assert tree.leaf_count == tree.node_count == 1
    assert tree.decompose_calls == 0
    assert tree.warnings == ["node n: always garbled"]
    # The root is the only leaf, so its candidates are the whole pool.
    assert collect_evidence(tree) == tree.nodes[ROOT_NODE_ID].candidates


def test_mid_tree_decomposition_failure_is_contained():
    calls = 0

    def fails_on_second_node(text):
        nonlocal calls
        calls += 1
        if calls >= 2:
            raise DecompositionError("garbled")
        return stub_decompose(text)

    tree = _expand(2, decomposer=fails_on_second_node)
    assert tree.decompose_calls == 1
    assert not tree.nodes[ROOT_NODE_ID].pruned
    for node_id in ("n.0", "n.1"):
        _assert_unsplit_leaf(tree, node_id)
    assert tree.leaf_count == 2
    assert tree.warnings == ["node n.0: garbled", "node n.1: garbled"]


def test_collect_evidence_orders_by_node_id_then_rank():
    tree = _expand(1)
    evidence = collect_evidence(tree)
    # Non-pruned nodes in id order: n, n.0, n.1, each contributing its
    # candidates in retrieval rank order.
    boundaries = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        boundaries.append([sp.passage.id for sp in node.candidates])
    flat = [pid for chunk in boundaries for pid in chunk]
    assert [sp.passage.id for sp in evidence] == flat
    assert len(evidence) == sum(len(c) for c in boundaries)


def test_leaf_bound_under_randomized_pruning():
    rng = random.Random(9)
    failed_splits = 0
    for trial in range(100):
        depth = rng.randint(1, 3)

        def pruner(sub_query, candidates, rng=rng):
            if rng.random() < 0.4:
                return PruneResult(survivors=[], judge_calls=0)
            return PruneResult(survivors=list(candidates), judge_calls=0)

        def decomposer(text, rng=rng):
            if rng.random() < 0.2:
                raise DecompositionError("garbled")
            return stub_decompose(text)

        tree = _expand(depth, pruner=pruner, decomposer=decomposer)
        failed_splits += len(tree.warnings)
        assert tree.leaf_count <= 2**depth
        assert tree.node_count <= 2 ** (depth + 1) - 1
        internal = sum(1 for n in tree.nodes.values() if n.child_ids)
        assert tree.decompose_calls == internal
        for node in tree.nodes.values():
            assert node.pruned == (not node.candidates)
            if node.pruned:
                assert node.child_ids == []
        assert collect_evidence(tree) == [
            hit for node_id in sorted(tree.nodes) for hit in tree.nodes[node_id].candidates
        ]
    assert failed_splits > 0


def test_stub_backend_end_to_end_depth_two():
    tree = _expand(2)
    assert isinstance(tree, RetrievalTree)
    # The conjunction split puts "compare savings rates" at n.0.
    assert tree.nodes["n.0"].text == "compare savings rates"
    assert tree.nodes["n.1"].text == "open the better account"
    # Half splits at the next level.
    assert tree.nodes["n.0.0"].text == "compare savings"
    assert tree.nodes["n.0.1"].text == "rates"
