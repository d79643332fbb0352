from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from collections.abc import Mapping
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import attrgetter

import numpy as np
import pytest
from conftest import (
    TEMPLATES,
    CountingBackend,
    RecordingBackend,
    assessor_snippets,
    build_workload,
    make_engine,
    scalar_fold,
    stored_row,
)

from treeroute import pipeline, rerank, routing, vectorstore
from treeroute.backends import (
    BackendRole,
    StubChatBackend,
    estimate_tokens,
    stub_decompose,
)
from treeroute.dataset import QueryRecord
from treeroute.embeddings import HashedBagEmbedder, RemoteEmbedder
from treeroute.errors import BackendError, ConfigError
from treeroute.pipeline import (
    CostLedger,
    ExecutionMode,
    QueryTrace,
    process_query,
    read_traces,
    run_manifest,
    run_workload,
    write_traces,
)
from treeroute.pruning import GateOutcome, PruneResult, quantitative_gate
from treeroute.roles import PromptLibrary, RoleRunner
from treeroute.tree import expand
from treeroute.vectorstore import Passage, ScoredPassage, VectorStore

SIMPLE = QueryRecord(id="q_simple", text="cancel my card", intents=frozenset({"cancel_card"}))
HYBRID = QueryRecord(
    id="q_hybrid",
    text="what is my account balance",
    intents=frozenset({"check_balance"}),
)
TREE_MID = QueryRecord(
    id="q_tree",
    text="compare savings rates and open the new account",
    intents=frozenset({"compare_rates", "open_savings"}),
)


def _never_pruning(**overrides):
    return make_engine(apm_hi=0.0, apm_lo=0.0, **overrides)


def test_adaptive_simple_path_costs_one_classifier_call(engine):
    trace = process_query(engine, SIMPLE)
    assert trace.mode == "simple"
    assert trace.depth == 0
    assert trace.node_count == 0
    assert trace.error is None
    assert trace.ledger.calls_by_role == {
        "decomposer": 0,
        "level_assessor": 0,
        "judge": 0,
        "reranker": 0,
        "intent_classifier": 1,
    }
    assert trace.ledger.total_calls == 1
    # Raw retrieval evidence, untouched by the reranker.
    assert trace.evidence
    assert all(e["source"] == "cosine" for e in trace.evidence)
    assert len(trace.evidence) <= engine.config.rrl_cap


def test_adaptive_hybrid_path_also_skips_tree_machinery(engine):
    trace = process_query(engine, HYBRID)
    assert trace.mode == "hybrid"
    assert trace.depth == 0
    assert trace.ledger.total_calls == 1
    assert trace.qci == pytest.approx(0.25 + 0.2 * (5 / 25), abs=1e-12)


def test_adaptive_tree_path_uses_assessor_and_reranker(engine):
    trace = process_query(engine, TREE_MID)
    assert trace.mode == "tree"
    # qci 0.464 sits in the stub assessor's Mid band.
    assert trace.depth == 2
    assert trace.ledger.calls_by_role["level_assessor"] == 1
    assert trace.ledger.calls_by_role["reranker"] == 1
    assert trace.ledger.calls_by_role["intent_classifier"] == 1
    assert trace.ledger.calls_by_role["decomposer"] >= 1
    assert trace.node_count >= 3
    assert all(e["source"] == "rerank" for e in trace.evidence)
    assert trace.predicted_intents == ["compare_rates", "open_savings"]


def test_fixed3_forces_full_tree():
    engine = _never_pruning()
    trace = process_query(engine, SIMPLE, mode=ExecutionMode.FIXED_DEPTH_3)
    assert trace.mode == "tree"
    assert trace.depth == 3
    assert trace.node_count == 15
    assert trace.pruned_node_count == 0
    assert trace.ledger.calls_by_role == {
        "decomposer": 7,
        "level_assessor": 0,
        "judge": 0,
        "reranker": 1,
        "intent_classifier": 1,
    }
    assert trace.ledger.total_calls == 9


def test_force_depth_zero_is_single_step():
    engine = _never_pruning()
    trace = process_query(engine, TREE_MID, force_depth=0)
    assert trace.mode == "simple"
    assert trace.depth == 0
    assert trace.ledger.total_calls == 1
    assert all(e["source"] == "cosine" for e in trace.evidence)


@pytest.mark.parametrize(
    "mode, depth",
    [
        (ExecutionMode.ADAPTIVE, 4),  # deeper than any tree
        (ExecutionMode.ADAPTIVE, -1),  # was run silently at depth 0
        (ExecutionMode.STANDARD_RAG, 2),  # was dropped silently
        (ExecutionMode.FIXED_DEPTH_3, 3),  # the mode already fixes the depth
        (ExecutionMode.ADAPTIVE, 2.0),  # crashed the tree with a TypeError
        (ExecutionMode.ADAPTIVE, True),  # ran at depth 1 and traced "depth": true
    ],
)
def test_bad_force_depth_is_rejected_before_any_work(monkeypatch, engine, mode, depth):
    searches = _count_searches(monkeypatch, engine)
    with pytest.raises(ValueError, match="force_depth"):
        process_query(engine, TREE_MID, mode=mode, force_depth=depth)
    with pytest.raises(ValueError, match="force_depth"):
        run_workload(engine, [SIMPLE, TREE_MID], mode=mode, force_depth=depth)
    assert searches[0] == 0


def test_forced_depths_strictly_increase_prompt_tokens():
    engine = _never_pruning()
    tokens = [
        process_query(engine, TREE_MID, force_depth=d).ledger.prompt_tokens
        for d in (0, 1, 2, 3)
    ]
    assert tokens == sorted(tokens)
    assert len(set(tokens)) == 4


def test_standard_rag_costs_exactly_two_calls(engine):
    trace = process_query(engine, TREE_MID, mode=ExecutionMode.STANDARD_RAG)
    assert trace.depth == 0
    assert trace.node_count == 0
    assert trace.ledger.calls_by_role["reranker"] == 1
    assert trace.ledger.calls_by_role["intent_classifier"] == 1
    assert trace.ledger.total_calls == 2
    assert all(e["source"] == "rerank" for e in trace.evidence)


def test_ledger_matches_backend_call_count(engine):
    engine.backend = CountingBackend()
    traces = [
        process_query(engine, record, mode=mode)
        for mode in ExecutionMode
        for record in (SIMPLE, HYBRID, TREE_MID)
    ]
    assert engine.backend.calls == sum(t.ledger.total_calls for t in traces) > 0


def _record_judge_fields(monkeypatch) -> list[dict[str, str]]:
    """The judge template's fields of every RoleRunner.judge call, in call order."""
    fields = []
    judge = RoleRunner.judge

    def recording_judge(self, sub_query, passage, sim):
        fields.append({"query": self.query, "sub_query": sub_query, "passage": passage.text})
        return judge(self, sub_query, passage, sim)

    monkeypatch.setattr(RoleRunner, "judge", recording_judge)
    return fields


def _sent_matches_ledgers(requests, traces, judge_fields) -> None:
    """The requests a backend saw are what the traces' ledgers count."""
    sent = Counter(r.role.value for r in requests)
    assert sent == sum((Counter(t.ledger.calls_by_role) for t in traces), Counter())
    assert sum(estimate_tokens(r.prompt) for r in requests) == sum(
        t.ledger.prompt_tokens for t in traces
    )
    judged = [r.prompt for r in requests if r.role is BackendRole.JUDGE]
    rendered = [PromptLibrary().render(BackendRole.JUDGE, f) for f in judge_fields]
    assert Counter(judged) == Counter(rendered)


@pytest.mark.parametrize(
    "mode, force_depth",
    [(mode, None) for mode in ExecutionMode] + [(ExecutionMode.ADAPTIVE, d) for d in range(4)],
)
def test_each_ledger_counts_what_its_query_sent(monkeypatch, mode, force_depth):
    judge_fields = _record_judge_fields(monkeypatch)
    engine = make_engine()
    for record in (SIMPLE, HYBRID, TREE_MID):
        engine.backend = RecordingBackend()
        judge_fields.clear()
        trace = process_query(engine, record, mode=mode, force_depth=force_depth)
        assert trace.error is None
        _sent_matches_ledgers(engine.backend.requests, [trace], judge_fields)


def test_ledgers_count_what_two_clients_sent(monkeypatch):
    judge_fields = _record_judge_fields(monkeypatch)
    engine = make_engine(run_jobs=2)
    engine.backend = RecordingBackend()
    traces = _within(60, lambda: run_workload(engine, build_workload(24)))
    assert {t.depth for t in traces} == {0, 1, 2, 3}
    assert len(judge_fields) > 0
    _sent_matches_ledgers(engine.backend.requests, traces, judge_fields)


def test_level_assessor_prompt_states_the_tree_route(engine):
    engine.backend = RecordingBackend()
    trace = process_query(engine, TREE_MID)
    assert trace.mode == "tree"
    prompts = [
        r.prompt for r in engine.backend.requests if r.role is BackendRole.LEVEL_ASSESSOR
    ]
    assert len(prompts) == 1
    assert "Initial routing: tree\n" in prompts[0]


def _assessor_snippet_block(snippet_count: int) -> tuple[str, QueryTrace]:
    engine = make_engine(qtc_assessor_snippets=snippet_count)
    engine.backend = RecordingBackend()
    trace = process_query(engine, TREE_MID)
    return assessor_snippets(engine.backend), trace


def test_qtc_assessor_snippets_sets_the_hits_the_assessor_sees():
    three, _ = _assessor_snippet_block(3)
    assert [line[:3] for line in three.splitlines()] == ["1. ", "2. ", "3. "]
    one, one_trace = _assessor_snippet_block(1)
    assert one.startswith("1. ") and "\n" not in one
    none, none_trace = _assessor_snippet_block(0)
    assert none == "(none)"
    assert one_trace.mode == none_trace.mode == "tree"
    assert one_trace.ledger.prompt_tokens != none_trace.ledger.prompt_tokens


def test_signals_and_qci_are_computed_once_per_query(monkeypatch):
    calls = {"extract_signals": 0, "compute_qci": 0}
    for module in (pipeline, routing):
        for name in calls:
            def counting(*args, _name=name, _inner=getattr(module, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counting)
    traces = run_workload(make_engine(), build_workload(16), mode=ExecutionMode.ADAPTIVE)
    assert {t.mode for t in traces} == {"simple", "hybrid", "tree"}
    assert calls == {"extract_signals": 16, "compute_qci": 16}


def test_deterministic_latency_follows_the_model(engine):
    config = engine.config
    trace = process_query(engine, SIMPLE)
    # One retrieval for routing plus one classifier call.
    expected = (
        config.latency_base_ms
        + config.latency_per_retrieval_ms * 1
        + config.latency_per_llm_call_ms * 1
    )
    assert trace.ledger.latency_ms == pytest.approx(expected, abs=1e-9)

    standard = process_query(engine, SIMPLE, mode=ExecutionMode.STANDARD_RAG)
    expected = (
        config.latency_base_ms
        + config.latency_per_retrieval_ms * 1
        + config.latency_per_llm_call_ms * 2
    )
    assert standard.ledger.latency_ms == pytest.approx(expected, abs=1e-9)


def test_latency_keys_set_the_cost_model():
    engine = make_engine(
        latency_base_ms=1.0, latency_per_retrieval_ms=2.0, latency_per_llm_call_ms=3.0
    )
    # One retrieval; one classifier call, plus the reranker's in standard mode.
    assert process_query(engine, SIMPLE).ledger.latency_ms == 6.0
    standard = process_query(engine, SIMPLE, mode=ExecutionMode.STANDARD_RAG)
    assert standard.ledger.latency_ms == 9.0
    tree = process_query(engine, TREE_MID)
    assert tree.ledger.latency_ms == 1.0 + 2.0 * (tree.node_count + 1) + 3.0 * (
        tree.ledger.total_calls
    )


def test_tree_latency_counts_per_node_retrievals():
    engine = _never_pruning()
    trace = process_query(engine, SIMPLE, mode=ExecutionMode.FIXED_DEPTH_3)
    config = engine.config
    expected = (
        config.latency_base_ms
        + config.latency_per_retrieval_ms * 15
        + config.latency_per_llm_call_ms * 9
    )
    assert trace.ledger.latency_ms == pytest.approx(expected, abs=1e-9)


def _count_searches(monkeypatch, engine) -> list[int]:
    calls = [0]
    search = engine.store.search

    def spy(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(engine.store, "search", spy)
    return calls


def _model_latency(config, retrievals: int, llm_calls: int) -> float:
    return (
        config.latency_base_ms
        + config.latency_per_retrieval_ms * retrievals
        + config.latency_per_llm_call_ms * llm_calls
    )


@pytest.mark.parametrize(
    ("text", "depth"),
    [
        ("freeze my card and order a replacement", 1),
        ("compare savings rates and open the new account", 2),
        ("which card is better and how do i activate it or replace it today", 3),
    ],
    ids=["depth1", "depth2", "depth3"],
)
def test_adaptive_tree_root_reuses_the_routing_search(monkeypatch, engine, text, depth):
    searches = _count_searches(monkeypatch, engine)
    trace = process_query(engine, QueryRecord(id="q", text=text, intents=frozenset()))
    assert (trace.mode, trace.depth) == ("tree", depth)
    assert searches[0] == trace.node_count
    # The cost model still counts the routing search and every node.
    assert trace.ledger.latency_ms == _model_latency(
        engine.config, trace.node_count + 1, trace.ledger.total_calls
    )


def test_fixed3_root_still_searches(monkeypatch):
    # Every forced depth, 0 to 3: the plan search is the root node's search
    # and the cost model charges exactly the searches made.
    engine = _never_pruning()
    searches = _count_searches(monkeypatch, engine)
    for depth in range(4):
        searches[0] = 0
        trace = process_query(engine, SIMPLE, force_depth=depth)
        assert (trace.depth, trace.node_count) == (depth, 2 ** (depth + 1) - 1 if depth else 0)
        assert searches[0] == max(1, trace.node_count), depth
        assert trace.ledger.latency_ms == _model_latency(
            engine.config, searches[0], trace.ledger.total_calls
        ), depth
    assert process_query(engine, SIMPLE, mode=ExecutionMode.FIXED_DEPTH_3) == trace


def test_parallel_traces_each_record_their_own_cost_model():
    engine = make_engine(run_jobs=2)
    traces = run_workload(engine, build_workload(24), mode=ExecutionMode.ADAPTIVE)
    assert {t.mode for t in traces} == {"simple", "hybrid", "tree"}
    for trace in traces:
        # Adaptive queries are routed: one plan search plus one per tree node.
        assert trace.ledger.latency_ms == _model_latency(
            engine.config, trace.node_count + 1, trace.ledger.total_calls
        ), trace.query_id
    assert len({t.ledger.latency_ms for t in traces}) > 1


class _RoleFailingBackend:
    """Delegates to the stub except for one role, which always fails.

    The failure is a BackendError, or the given error when there is one.
    """

    def __init__(self, failing_role: BackendRole, error: Exception | None = None):
        self.failing_role = failing_role
        self.error = error
        self.inner = StubChatBackend()

    def chat(self, request):
        if request.role is self.failing_role:
            raise self.error or BackendError(request.role.value, "injected failure")
        return self.inner.chat(request)


def test_classifier_failure_yields_failed_trace_not_crash(engine):
    engine.backend = _RoleFailingBackend(BackendRole.INTENT_CLASSIFIER)
    trace = process_query(engine, SIMPLE)
    assert trace.error is not None
    assert trace.error.startswith("q_simple:")
    assert "injected failure" in trace.error
    assert trace.predicted_intents == []
    # The attempted call is still on the ledger.
    assert trace.ledger.calls_by_role["intent_classifier"] == 1


def test_judge_failure_degrades_to_retention_with_warning():
    # Default thresholds put stub-embedding cosines in the borderline band
    # often enough that at least one judge call happens on a full tree.
    engine = make_engine()
    engine.backend = _RoleFailingBackend(BackendRole.JUDGE)
    trace = process_query(engine, SIMPLE, mode=ExecutionMode.FIXED_DEPTH_3)
    assert trace.error is None
    assert trace.ledger.calls_by_role["judge"] > 0
    assert any("retaining passage" in w for w in trace.warnings)


def test_reranker_failure_falls_back_to_retrieval_scores(engine):
    engine.backend = _RoleFailingBackend(BackendRole.RERANKER)
    trace = process_query(engine, TREE_MID, mode=ExecutionMode.STANDARD_RAG)
    assert trace.error is None
    assert trace.ledger.calls_by_role["reranker"] == 1
    assert len(trace.warnings) == 1
    assert "falling back to retrieval scores" in trace.warnings[0]
    hits = engine.store.search(engine.embedder.embed(TREE_MID.text), k=engine.config.store_k)
    hit_scores = {hit.passage.id: hit.score for hit in hits}
    assert trace.evidence
    for item in trace.evidence:
        assert item["source"] == "rerank"
        assert item["score"] == min(max(hit_scores[item["id"]], 0.0), 1.0)


def test_assessor_garbage_falls_back_to_configured_level():
    class GarbageAssessor:
        def __init__(self):
            self.inner = StubChatBackend()

        def chat(self, request):
            if request.role is BackendRole.LEVEL_ASSESSOR:
                return "beats me"
            return self.inner.chat(request)

    engine = make_engine()
    engine.backend = GarbageAssessor()
    trace = process_query(engine, TREE_MID)
    assert trace.depth == 2  # fallback level is mid
    assert any("level assessor" in w for w in trace.warnings)


def test_root_decomposition_failure_consolidates_the_root_hits():
    class BrokenDecomposer:
        def __init__(self):
            self.inner = StubChatBackend()

        def chat(self, request):
            if request.role is BackendRole.DECOMPOSER:
                return "i refuse to make a list"
            return self.inner.chat(request)

    engine = _never_pruning()
    engine.backend = BrokenDecomposer()
    trace = process_query(engine, TREE_MID)
    assert trace.error is None
    assert trace.mode == "tree"
    # The root cannot split, so it stays an unpruned leaf whose gated hits
    # are consolidated like any other tree's evidence.
    assert trace.node_count == 1
    assert trace.pruned_node_count == 0
    assert [w for w in trace.warnings if w.startswith("node ")] == [
        "node n: decomposition failed after 1 retry: expected 2 numbered sub-queries, found 0"
    ]
    assert trace.evidence
    assert all(e["source"] == "rerank" for e in trace.evidence)
    # Two attempts on the root, no successful expansion.
    assert trace.ledger.calls_by_role["decomposer"] == 2
    assert trace.ledger.calls_by_role["reranker"] == 1


def test_failed_split_below_the_root_reaches_consolidation(monkeypatch):
    refused = stub_decompose(TREE_MID.text)[0]

    class RefusesOneSubQuery:
        def __init__(self):
            self.inner = StubChatBackend()

        def chat(self, request):
            if request.role is BackendRole.DECOMPOSER and request.payload["query"] == refused:
                return "i refuse to make a list"
            return self.inner.chat(request)

    trees, pools = [], []

    def expand_spy(*args, **kwargs):
        trees.append(expand(*args, **kwargs))
        return trees[-1]

    def consolidate_spy(pool, *args, **kwargs):
        pools.append(list(pool))
        return rerank.consolidate(pool, *args, **kwargs)

    engine = _never_pruning()
    engine.backend = RefusesOneSubQuery()
    monkeypatch.setattr(pipeline, "expand", expand_spy)
    monkeypatch.setattr(pipeline, "consolidate", consolidate_spy)
    trace = process_query(engine, TREE_MID, force_depth=2)
    assert trace.error is None
    assert [w for w in trace.warnings if w.startswith("node ")] == [
        "node n.0: decomposition failed after 1 retry: expected 2 numbered sub-queries, found 0"
    ]
    (tree,) = trees
    (pool,) = pools
    # n.0 grew no children but is not pruned: its survivors follow the
    # root's in the pool, in node id order.
    failed = tree.nodes["n.0"]
    assert failed.text == refused and failed.child_ids == [] and failed.candidates
    start = len(tree.nodes["n"].candidates)
    assert pool[start : start + len(failed.candidates)] == failed.candidates
    assert trace.node_count == 5
    assert trace.pruned_node_count == 0


def test_trace_round_trips_through_json(engine):
    trace = process_query(engine, TREE_MID)
    clone = QueryTrace.from_dict(json.loads(trace.to_json_line()))
    assert clone == trace


def test_run_workload_sorts_by_query_id(engine):
    records = [SIMPLE, HYBRID, TREE_MID]
    traces = run_workload(engine, list(reversed(records)))
    assert [t.query_id for t in traces] == sorted(r.id for r in records)


def _within(seconds: float, call):
    """call()'s result, run on a daemon thread that must finish within seconds;
    an exception it raises is raised here."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as error:  # handed to the test's thread below
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


# Adaptive queries of every route and depth at two and four clients, more
# clients than queries, and no queries at all.
@pytest.mark.parametrize("count, jobs", [(24, 2), (24, 4), (3, 8), (0, 4)])
def test_run_workload_parallel_matches_sequential(count, jobs):
    workload = build_workload(count)
    sequential = run_workload(make_engine(run_jobs=1), workload)
    parallel = _within(60, lambda: run_workload(make_engine(run_jobs=jobs), workload))
    assert [t.to_json_line() for t in parallel] == [t.to_json_line() for t in sequential]
    assert len(parallel) == count
    if count == 24:
        assert {t.depth for t in sequential} == {0, 1, 2, 3}


def test_clients_run_every_query_exactly_once():
    # More clients than cores and a switch interval of a microsecond, so the
    # clients interleave often: a query run twice adds calls the ledgers do
    # not hold, and a skipped one leaves a slot without its trace.
    workload = build_workload(48)
    engine = make_engine(run_jobs=8)
    engine.backend = CountingBackend()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        traces = _within(120, lambda: run_workload(engine, workload))
    finally:
        sys.setswitchinterval(interval)
    assert [t.query_id for t in traces] == [r.id for r in workload]
    assert engine.backend.calls == sum(t.ledger.total_calls for t in traces) > 0


# What a BackendError from each role does to a query that made the call:
# "warning" degrades the trace with that warning, "error" fails it.
_ROLE_FAILURE_OUTCOMES = {
    BackendRole.DECOMPOSER: (
        "warning",
        "node n: decomposition failed after 1 retry: decomposer: injected failure",
    ),
    BackendRole.LEVEL_ASSESSOR: ("error", "level_assessor: injected failure"),
    BackendRole.JUDGE: ("warning", "judge call failed, retaining passage: judge: injected failure"),
    BackendRole.RERANKER: (
        "warning",
        "reranker failed, falling back to retrieval scores: reranker: injected failure",
    ),
    BackendRole.INTENT_CLASSIFIER: ("error", "intent_classifier: injected failure"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("role", list(BackendRole), ids=attrgetter("value"))
def test_a_backend_error_from_each_role_has_its_documented_outcome(role, jobs):
    engine = make_engine(run_jobs=jobs)
    engine.backend = _RoleFailingBackend(role)
    traces = _within(60, lambda: run_workload(engine, build_workload(8)))
    kind, message = _ROLE_FAILURE_OUTCOMES[role]
    assert any(t.ledger.calls_by_role[role.value] > 0 for t in traces)
    for trace in traces:
        if trace.ledger.calls_by_role[role.value] == 0:
            assert trace.error is None and trace.warnings == [], trace.query_id
        elif kind == "error":
            assert trace.error == f"{trace.query_id}: {message}"
            assert trace.predicted_intents == []
        else:
            assert trace.error is None, trace.query_id
            assert message in trace.warnings, trace.query_id


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("role", list(BackendRole), ids=attrgetter("value"))
def test_error_outside_engine_errors_escapes_run_workload(role, jobs):
    # process_query turns only an EngineError into a failed trace, so any
    # other error, from any role, stops the batch, at one client or several.
    engine = make_engine(run_jobs=jobs)
    engine.backend = _RoleFailingBackend(role, RuntimeError("backend bug"))
    with pytest.raises(RuntimeError, match="backend bug"):
        _within(60, lambda: run_workload(engine, build_workload(8)))


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_an_error_stops_every_client_after_its_current_query(monkeypatch, engine, jobs):
    workload = build_workload(200)
    started = []

    def process_query(engine, record, mode, force_depth):
        started.append(record.id)
        if record.id == workload[5].id:
            raise RuntimeError("stand-in bug")
        time.sleep(0.01)

    monkeypatch.setattr(pipeline, "process_query", process_query)
    engine.config.run_jobs = jobs
    with pytest.raises(RuntimeError, match="stand-in bug"):
        _within(60, lambda: run_workload(engine, workload))
    # The five queries before the failing one, itself, and at most one more
    # for each other client: the query it was running when the error came.
    assert len(started) < 6 + jobs


def _child(script: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports treeroute from this source tree."""
    source = os.path.dirname(os.path.dirname(pipeline.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": source},
    )


# Run in a child process, so that the interrupt reaches no test runner.
_INTERRUPTED_RUN = """
import signal, sys, threading, time
from treeroute import pipeline
from treeroute.config import EngineConfig
from treeroute.dataset import QueryRecord

def process_query(engine, record, mode, force_depth):
    time.sleep(0.01)

pipeline.process_query = process_query
records = [QueryRecord(id=f"q{i:04d}", text="cancel my card", intents=frozenset()) for i in range(400)]
engine = pipeline.build_engine(EngineConfig(run_jobs=int(sys.argv[1])), [])
threading.Timer(0.2, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT)).start()
started = time.perf_counter()
try:
    pipeline.run_workload(engine, records)
except KeyboardInterrupt:
    print("interrupted", time.perf_counter() - started)
else:
    print("finished", time.perf_counter() - started)
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_interrupt_stops_every_client_after_its_current_query(jobs):
    # 400 queries of 10 ms take 4 s at one client; the interrupt comes at 0.2 s.
    result = _child(_INTERRUPTED_RUN, str(jobs), timeout=60)
    assert result.returncode == 0, result.stderr
    outcome, seconds = result.stdout.split()
    assert outcome == "interrupted" and float(seconds) < 1.0


# Two clients whose queries never return, given up after a short join, as
# _within gives up on a hung batch.
_ABANDONED_RUN = """
import threading
from treeroute import pipeline
from treeroute.config import EngineConfig
from treeroute.dataset import QueryRecord

def process_query(engine, record, mode, force_depth):
    threading.Event().wait()

pipeline.process_query = process_query
records = [QueryRecord(id=f"q{i}", text="cancel my card", intents=frozenset()) for i in range(4)]
engine = pipeline.build_engine(EngineConfig(run_jobs=2), [])
batch = threading.Thread(target=pipeline.run_workload, args=(engine, records), daemon=True)
batch.start()
batch.join(timeout=0.5)
print("hung" if batch.is_alive() else "returned")
"""


def test_a_hung_batch_does_not_block_exit():
    # The clients are daemon threads, so the interpreter exits without
    # waiting for them: a deadlocked batch fails its test, never the run.
    result = _child(_ABANDONED_RUN, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["hung"]


@pytest.mark.parametrize("jobs", [2, 4])
def test_clients_take_turns_with_the_stub(monkeypatch, engine, jobs):
    # A query that pauses without waiting on the network keeps the turn, so
    # no other client starts a query meanwhile.
    workload = build_workload(40)
    started, running, peak = [], [0], [0]
    counting = threading.Lock()

    def process_query(engine, record, mode, force_depth):
        with counting:
            started.append(record.id)
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.001)
        with counting:
            running[0] -= 1
        return record.id

    monkeypatch.setattr(pipeline, "process_query", process_query)
    engine.config.run_jobs = jobs
    traces = _within(60, lambda: run_workload(engine, reversed(workload)))
    assert peak == [1]
    assert started == traces == [r.id for r in workload]


class _DelayedHandler(BaseHTTPRequestHandler):
    """Answers after a fixed delay and records its peak number of requests in flight.

    /chat replies as a chat-completions endpoint; /embed gives each input
    text its hashed-bag vector for the dimension and seed set below.
    """

    delay_s = 0.02
    embedder: HashedBagEmbedder | None = None
    in_flight = 0
    peak = 0
    served = 0
    lock = threading.Lock()

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        time.sleep(cls.delay_s)
        with cls.lock:
            cls.in_flight -= 1
            cls.served += 1
        if self.path == "/embed":
            rows = [cls.embedder.embed(text).tolist() for text in body["input"]]
            reply = {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}
        else:
            reply = {"choices": [{"message": {"content": "1. 0.5"}}]}
        data = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def delayed_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _DelayedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _DelayedHandler.in_flight = _DelayedHandler.peak = _DelayedHandler.served = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.mark.parametrize("jobs, peak", [(4, range(2, 5)), (1, range(1, 2))])
def test_remote_chat_waits_overlap_and_never_deadlock(delayed_server, jobs, peak):
    # Each client hands the turn on while it waits and has one request out,
    # so the requests overlap up to jobs.
    engine = make_engine(
        run_jobs=jobs, backend_endpoint=f"{delayed_server}/chat", backend_timeout_ms=5000
    )
    workload = build_workload(16)
    traces = _within(60, lambda: run_workload(engine, workload, mode=ExecutionMode.STANDARD_RAG))
    assert [t.query_id for t in traces] == [r.id for r in workload]
    assert all(t.error is None and t.ledger.total_calls == 2 for t in traces)
    assert _DelayedHandler.served == 32
    assert _DelayedHandler.peak in peak


def test_remote_query_embeddings_overlap(delayed_server):
    engine = make_engine(run_jobs=4)
    _DelayedHandler.embedder = HashedBagEmbedder(engine.embedder.dimension, engine.embedder.seed)
    engine.embedder = RemoteEmbedder(f"{delayed_server}/embed", "m", engine.embedder.dimension)
    workload = build_workload(16)
    traces = _within(60, lambda: run_workload(engine, workload, mode=ExecutionMode.STANDARD_RAG))
    assert all(t.error is None and t.evidence for t in traces)
    assert _DelayedHandler.served == 16
    assert _DelayedHandler.peak >= 2


def test_zero_jobs_is_rejected_before_any_query_runs(engine):
    with pytest.raises(ConfigError, match="run.jobs"):
        make_engine(run_jobs=0)
    # A config changed after the build is checked when the batch starts.
    engine.backend = CountingBackend()
    engine.config.run_jobs = 0
    with pytest.raises(ValueError, match="run.jobs must be at least 1, got 0"):
        run_workload(engine, build_workload(8))
    assert engine.backend.calls == 0


def test_identical_runs_serialize_identically(tmp_path):
    workload = build_workload(16)
    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_traces(a_path, run_workload(make_engine(), workload))
    write_traces(b_path, run_workload(make_engine(), workload))
    assert a_path.read_bytes() == b_path.read_bytes()


@pytest.mark.parametrize("mode", [ExecutionMode.ADAPTIVE, ExecutionMode.FIXED_DEPTH_3])
def test_search_memo_leaves_traces_byte_identical(tmp_path, monkeypatch, mode):
    # Every template text three times over, so repeated searches hit the memo.
    workload = [
        QueryRecord(id=f"q{i:03d}", text=text, intents=frozenset(intents))
        for i, (text, intents) in enumerate(TEMPLATES * 3)
    ]
    memo_path, plain_path = tmp_path / "memo.jsonl", tmp_path / "plain.jsonl"
    memo_engine = make_engine()
    write_traces(memo_path, run_workload(memo_engine, workload, mode=mode))
    # The bound is read when the store is built.
    monkeypatch.setattr(vectorstore, "SEARCH_CACHE_SIZE", 0)
    plain_engine = make_engine()
    write_traces(plain_path, run_workload(plain_engine, workload, mode=mode))
    assert memo_path.read_bytes() == plain_path.read_bytes()
    memo_scans = memo_engine.store._memo.cache_info().misses
    plain_info = plain_engine.store._memo.cache_info()
    assert plain_info.hits == 0
    assert 0 < memo_scans < plain_info.misses


def _scalar_cosine(a, b) -> float:
    return min(max(float(np.dot(a, b)), -1.0), 1.0)


def _reference_prune(
    original_embedding, candidates, thresholds, judge, *, embedding_of, fold=None
):
    """The gate as one scalar fold per candidate; it ignores the tree's fold."""
    if isinstance(embedding_of, Mapping):
        lookup = embedding_of.__getitem__
    else:
        lookup = partial(stored_row, embedding_of)
    survivors, judge_calls = [], 0
    for candidate in candidates:
        sim = scalar_fold(lookup(candidate.passage.id), original_embedding)
        outcome = quantitative_gate(sim, thresholds)
        if outcome is GateOutcome.BORDERLINE:
            judge_calls += 1
            keep = judge(candidate.passage, sim)
        else:
            keep = outcome is GateOutcome.RETAIN
        if keep:
            survivors.append(candidate)
    return PruneResult(survivors=survivors, judge_calls=judge_calls)


def _reference_deduplicate(candidates, rule, store):
    """Dedup as one clamped scalar np.dot per candidate and kept passage.

    Every distinct normalized text is seen before its near-duplicate check,
    so an exact twin of a merged passage is merged too.
    """
    kept, kept_embeddings, seen_text = [], [], set()
    for candidate in sorted(candidates, key=lambda c: (-c.score, c.passage.id)):
        normalized = rerank.normalize_text(candidate.passage.text)
        if normalized in seen_text:
            continue
        seen_text.add(normalized)
        embedding = stored_row(store, candidate.passage.id)
        if any(
            _scalar_cosine(embedding, other) >= rule.near_dup_threshold
            for other in kept_embeddings
        ):
            continue
        kept.append(candidate)
        kept_embeddings.append(embedding)
    return kept


def test_reference_deduplicate_merges_the_twin_of_a_merged_near_duplicate():
    # The passages of test_rerank.py's twin test: the hashed-bag pipeline
    # test cannot tell the rules apart, since equal texts get equal rows.
    passages = (
        Passage(id="a", text="keep me"),
        Passage(id="b", text="Twin Text"),
        Passage(id="c", text="twin  text"),
    )
    store = VectorStore(passages, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    candidates = [ScoredPassage(p, s) for p, s in zip(passages, (0.9, 0.8, 0.7))]
    rule = rerank.SelectionRule()
    engine = rerank.deduplicate(candidates, rule, store)
    assert _reference_deduplicate(candidates, rule, store) == engine
    assert [c.passage.id for c in engine] == ["a"]


@pytest.mark.parametrize("mode", [ExecutionMode.ADAPTIVE, ExecutionMode.FIXED_DEPTH_3])
def test_matvec_gate_and_dedup_match_scalar_reference(tmp_path, monkeypatch, mode):
    workload = build_workload(48)
    fast_path, reference_path = tmp_path / "fast.jsonl", tmp_path / "reference.jsonl"
    write_traces(fast_path, run_workload(make_engine(), workload, mode=mode))
    judged, dedups = [0], [0]

    def counting_prune(*args, **kwargs):
        result = _reference_prune(*args, **kwargs)
        judged[0] += result.judge_calls
        return result

    def counting_deduplicate(*args):
        dedups[0] += 1
        return _reference_deduplicate(*args)

    monkeypatch.setattr(pipeline, "prune", counting_prune)
    monkeypatch.setattr(rerank, "deduplicate", counting_deduplicate)
    write_traces(reference_path, run_workload(make_engine(), workload, mode=mode))
    assert fast_path.read_bytes() == reference_path.read_bytes()
    assert judged[0] > 0
    assert dedups[0] > 0


@pytest.mark.parametrize("mode", [ExecutionMode.ADAPTIVE, ExecutionMode.FIXED_DEPTH_3])
def test_root_gate_similarities_equal_root_hit_scores(monkeypatch, mode):
    root_hits, gathered, checked = [], [], [0]
    expand, prune = pipeline.expand, pipeline.prune
    store_rows = vectorstore.VectorStore.rows

    def spy_expand(*args, **kwargs):
        root_hits.append(kwargs["root_hits"])
        return expand(*args, **kwargs)

    def spy_rows(store, passage_ids):
        rows = store_rows(store, passage_ids)
        gathered.append(rows)
        return rows

    def spy_prune(embedding, candidates, *args, **kwargs):
        gathered.clear()
        result = prune(embedding, candidates, *args, **kwargs)
        # The gate reads its similarities from the tree's fold at these rows.
        (rows,) = gathered
        gated = kwargs["fold"][rows].tolist()
        if candidates is root_hits[-1]:
            # The gate does not clamp; search does.
            assert [min(max(s, -1.0), 1.0) for s in gated] == [c.score for c in candidates]
            checked[0] += len(candidates)
        return result

    monkeypatch.setattr(pipeline, "expand", spy_expand)
    monkeypatch.setattr(pipeline, "prune", spy_prune)
    monkeypatch.setattr(vectorstore.VectorStore, "rows", spy_rows)
    traces = run_workload(make_engine(run_jobs=1), build_workload(48), mode=mode)
    assert all(t.error is None for t in traces)
    assert checked[0] >= len(root_hits) > 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "mode", [ExecutionMode.ADAPTIVE, ExecutionMode.FIXED_DEPTH_3, ExecutionMode.STANDARD_RAG]
)
def test_each_tree_folds_its_query_once(monkeypatch, mode, jobs):
    folds = []
    store_fold = vectorstore.VectorStore.fold

    def spy_fold(store, vector):
        folds.append(vector)  # list.append is atomic, so two clients may share it
        return store_fold(store, vector)

    monkeypatch.setattr(vectorstore.VectorStore, "fold", spy_fold)
    traces = run_workload(make_engine(run_jobs=jobs), build_workload(48), mode=mode)
    assert all(t.error is None for t in traces)
    trees = [t for t in traces if t.depth >= 1]
    # Not one fold per node, nor one for a depth-0 query.
    assert len(folds) == len(trees)
    if mode is ExecutionMode.STANDARD_RAG:
        assert trees == []
    else:
        assert sum(t.node_count for t in trees) > len(trees) > 0
    if mode is ExecutionMode.ADAPTIVE:
        assert len(trees) < len(traces)


def test_write_and_read_traces(tmp_path, engine):
    traces = run_workload(engine, [SIMPLE, HYBRID])
    path = tmp_path / "traces.jsonl"
    write_traces(path, traces)
    assert read_traces(path) == traces
    write_traces(path, [])
    assert read_traces(path) == []


def test_batch_continues_after_per_query_failure(engine):
    engine.backend = _RoleFailingBackend(BackendRole.INTENT_CLASSIFIER)
    traces = run_workload(engine, [SIMPLE, HYBRID, TREE_MID])
    assert len(traces) == 3
    assert all(t.error is not None for t in traces)


def test_run_manifest_contents():
    engine = make_engine()
    manifest = run_manifest(engine.config, ExecutionMode.ADAPTIVE, 20, 1.0, 2.0)
    assert manifest == {
        "mode": "adaptive",
        "config_hash": engine.config.config_hash(),
        "seed": engine.config.run_seed,
        "query_count": 20,
        "started_at": 1.0,
        "finished_at": 2.0,
    }


def test_cost_ledger_round_trip():
    ledger = CostLedger(
        calls_by_role={"judge": 2}, total_calls=2, prompt_tokens=50, latency_ms=3.5
    )
    assert CostLedger.from_dict(dataclasses.asdict(ledger)) == ledger
