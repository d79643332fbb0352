"""End-to-end query processing and cost instrumentation.

Three execution modes share one engine: the adaptive mode routes each
query and spends retrieval depth only where the router asks for it, the
fixed-depth mode forces a full depth-3 tree for every query, and the
standard mode is a single retrieval plus rerank. Every query takes the
same four steps:

1. plan: compute the signals and complexity index, search the store once
   for the query, and pick the route and depth (standard mode and forced
   depths are plan choices; the adaptive mode asks the router);
2. gather: at depth 0 the evidence pool is the search hits; a tree's root
   gates those hits and every other node searches its own sub-query;
3. consolidate: deduplicate by the fold similarities of the stored rows
   (one VectorStore.gram call), rerank once, and select (simple and hybrid
   queries skip this and keep their top hits);
4. classify the intents from the final evidence.

Every processed query yields one trace with its routing fields, evidence,
predictions, and an exact per-role cost ledger; a BackendError that no
role default covers (level assessor, classifier) yields a failed trace,
never a crashed batch.

A batch (run_workload) runs on daemon client threads that take turns:
one computes at a time and hands the turn on only while it waits on the
network; each stops before its next query once the batch has an error.

A trace's latency is always CostModel.latency_ms (the latency.* keys) of
its retrievals and LLM calls, never measured time, so identical runs
serialize to identical bytes; a run's wall time is in its manifest.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from .backends import ChatBackend, RemoteChatBackend, StubChatBackend, holding
from .config import EngineConfig
from .dataset import QueryRecord, read_json_lines
from .embeddings import EmbeddingProvider, HashedBagEmbedder, RemoteEmbedder
from .errors import DatasetError, EngineError
from .pruning import prune
from .rerank import consolidate
from .roles import PromptLibrary, RoleRunner
from .routing import MAX_DEPTH, RouteMode, decide
from .signals import compute_qci, extract_signals, tokenize
from .tree import RetrievalTree, collect_evidence, expand
from .vectorstore import Passage, ScoredPassage, VectorStore, build_index

__all__ = [
    "CostLedger",
    "Engine",
    "ExecutionMode",
    "QueryTrace",
    "build_engine",
    "process_query",
    "read_traces",
    "run_workload",
    "write_traces",
]


class ExecutionMode(Enum):
    ADAPTIVE = "adaptive"
    FIXED_DEPTH_3 = "fixed3"
    STANDARD_RAG = "standard"


@dataclass
class CostLedger:
    """Per-query cost summary: the role runner's call counts and prompt tokens."""

    calls_by_role: dict[str, int]
    total_calls: int
    prompt_tokens: int
    latency_ms: float

    @classmethod
    def from_dict(cls, data: dict) -> "CostLedger":
        return cls(
            calls_by_role=dict(data["calls_by_role"]),
            total_calls=int(data["total_calls"]),
            prompt_tokens=int(data["prompt_tokens"]),
            latency_ms=float(data["latency_ms"]),
        )


@dataclass
class QueryTrace:
    """Everything recorded about one processed query."""

    query_id: str
    mode: str
    qci: float
    signals: dict[str, float]
    depth: int
    node_count: int
    pruned_node_count: int
    evidence: list[dict]
    predicted_intents: list[str]
    ledger: CostLedger
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "QueryTrace":
        return cls(
            query_id=data["query_id"],
            mode=data["mode"],
            qci=float(data["qci"]),
            signals=dict(data["signals"]),
            depth=int(data["depth"]),
            node_count=int(data["node_count"]),
            pruned_node_count=int(data["pruned_node_count"]),
            evidence=[dict(e) for e in data["evidence"]],
            predicted_intents=list(data["predicted_intents"]),
            ledger=CostLedger.from_dict(data["ledger"]),
            warnings=list(data.get("warnings", [])),
            error=data.get("error"),
        )


class Engine:
    """A built index, backends and one object per config section, ready for queries."""

    def __init__(
        self,
        config: EngineConfig,
        store: VectorStore,
        embedder: EmbeddingProvider,
        backend: ChatBackend,
        prompts: PromptLibrary,
        intent_names: tuple[str, ...],
    ):
        self.config = config
        self.store = store
        self.embedder = embedder
        self.backend = backend
        self.prompts = prompts
        self.intent_names = intent_names
        self.lexicons = config.lexicons()
        self.weights = config.weights()
        self.routing = config.routing_rule()
        self.thresholds = config.gate_thresholds()
        self.selection_rule = config.selection_rule()
        self.cost_model = config.cost_model()


def build_engine(
    config: EngineConfig,
    passages: Sequence[Passage],
    intent_names: Sequence[str] | None = None,
) -> Engine:
    """Validate config, build the index, and wire up the backends."""
    config.validate()
    if config.embed_endpoint:
        embedder: EmbeddingProvider = RemoteEmbedder(
            config.embed_endpoint,
            config.embed_model,
            config.store_dimension,
            config.backend_timeout_ms,
        )
    else:
        embedder = HashedBagEmbedder(config.store_dimension, config.run_seed)
    store = build_index(passages, embedder)
    if config.backend_endpoint:
        backend: ChatBackend = RemoteChatBackend(
            config.backend_endpoint,
            config.backend_model,
            config.temperatures(),
            config.backend_timeout_ms,
        )
    else:
        backend = StubChatBackend(config.stub_behavior())
    if intent_names is None:
        names = tuple(sorted({label for p in passages for label in p.intent_labels}))
    else:
        names = tuple(intent_names)
    return Engine(
        config=config,
        store=store,
        embedder=embedder,
        backend=backend,
        prompts=PromptLibrary(config.backend_prompt_dir or None),
        intent_names=names,
    )


def process_query(
    engine: Engine,
    record: QueryRecord,
    mode: ExecutionMode = ExecutionMode.ADAPTIVE,
    force_depth: int | None = None,
) -> QueryTrace:
    """Process one query under the given mode and return its trace.

    force_depth skips routing and pins the tree depth (0 behaves like the
    simple path); only the adaptive mode takes it, and it must be an int
    in 0..MAX_DEPTH. The fixed-depth mode is equivalent to force_depth=3.
    A bad force_depth raises ValueError before any work is done.
    """
    if force_depth is not None and (
        mode is not ExecutionMode.ADAPTIVE
        or type(force_depth) is not int
        or force_depth not in range(MAX_DEPTH + 1)
    ):
        raise ValueError(
            f"force_depth must be None, or an int in 0..{MAX_DEPTH} in adaptive mode; "
            f"got {force_depth!r} in {mode.value} mode"
        )
    config = engine.config
    roles = RoleRunner(
        engine.backend,
        engine.prompts,
        query=record.text,
        fallback_level=engine.routing.fallback_level,
        decompose_retries=config.tor_retry_decompose,
    )
    standard = mode is ExecutionMode.STANDARD_RAG
    if mode is ExecutionMode.FIXED_DEPTH_3:
        force_depth = 3
    routed = not standard and force_depth is None

    signals = extract_signals(tokenize(record.text), engine.lexicons)
    qci = compute_qci(signals, engine.weights)
    route, depth = RouteMode.SIMPLE, 0
    searched = False
    tree: RetrievalTree | None = None
    evidence: list[ScoredPassage] = []
    predicted: set[str] = set()
    error: str | None = None

    try:
        # Plan: one search of the query in every mode, then route and depth.
        query_embedding = engine.embedder.embed(record.text)
        hits = engine.store.search(query_embedding, k=config.store_k)
        searched = True
        if routed:
            decision = decide(
                signals,
                qci,
                [hit.passage.text for hit in hits[: engine.routing.assessor_snippets]],
                roles.assess_level,
                engine.routing,
            )
            route, depth = decision.mode, decision.depth
        elif not standard and force_depth >= 1:
            route, depth = RouteMode.TREE, force_depth

        # Gather: the hits themselves, or a tree whose root gates them.
        pool = hits
        if depth >= 1:
            def pruner(sub_query: str, candidates: list[ScoredPassage]):
                return prune(
                    query_embedding,
                    candidates,
                    engine.thresholds,
                    partial(roles.judge, sub_query),
                    embedding_of=engine.store,
                )

            tree = expand(
                record.text,
                depth,
                store=engine.store,
                embedder=engine.embedder.embed,
                pruner=pruner,
                decomposer=roles.decompose,
                k=config.store_k,
                root_hits=hits,
            )
            roles.warnings.extend(tree.warnings)
            pool = collect_evidence(tree)

        # Consolidate: simple and hybrid queries keep their top hits unranked.
        if depth == 0 and not standard:
            evidence = hits[: engine.selection_rule.cap]
        elif pool:
            evidence = consolidate(
                pool,
                engine.selection_rule,
                engine.store,
                roles.rerank,
            )

        predicted = roles.classify(evidence, engine.intent_names)
    except EngineError as exc:
        error = f"{record.id}: {exc}"

    node_count = tree.node_count if tree is not None else 0
    # The plan search is an extra retrieval of routed and depth-0 queries;
    # a forced tree counts it as its root node.
    retrievals = node_count + int(searched and (routed or depth == 0))
    total_calls = sum(roles.calls.values())
    ledger = CostLedger(
        calls_by_role={role.value: n for role, n in roles.calls.items()},
        total_calls=total_calls,
        prompt_tokens=roles.prompt_tokens,
        latency_ms=engine.cost_model.latency_ms(retrievals, total_calls),
    )
    return QueryTrace(
        query_id=record.id,
        mode=route.value,
        qci=qci,
        signals=signals.as_dict(),
        depth=depth,
        node_count=node_count,
        pruned_node_count=tree.pruned_count if tree is not None else 0,
        evidence=[
            {"id": e.passage.id, "score": e.score, "source": e.source} for e in evidence
        ],
        predicted_intents=sorted(predicted),
        ledger=ledger,
        warnings=roles.warnings,
        error=error,
    )


def run_workload(
    engine: Engine,
    records: Sequence[QueryRecord],
    mode: ExecutionMode = ExecutionMode.ADAPTIVE,
    force_depth: int | None = None,
) -> list[QueryTrace]:
    """Process a batch as run.jobs concurrent clients; traces are in id order.

    run.jobs must be at least 1. min(run.jobs, len(records)) daemon client
    threads take turns: a client holds the batch's one turn while it takes
    the next query in id order and processes it, until none is left, and
    hands it on only inside backends.waiting(), while it waits on a remote
    backend. So the stub runs a batch as one client would, and remote waits
    overlap. Each trace goes into its query's slot, so the output does not
    depend on the job count. An error that is not an EngineError
    (process_query turns those into failed traces), or an interrupt of the
    caller, goes on the batch's list of errors, which each client checks
    before each query; the caller waits for the clients, then raises the first.
    """
    jobs = engine.config.run_jobs
    if jobs < 1:
        raise ValueError(f"run.jobs must be at least 1, got {jobs}")
    ordered = sorted(records, key=attrgetter("id"))
    worker = partial(process_query, engine, mode=mode, force_depth=force_depth)
    traces: list[QueryTrace | None] = [None] * len(ordered)
    positions = iter(range(len(ordered)))  # advanced only by the turn's holder
    errors: list[BaseException] = []
    turn = threading.Lock()

    def client() -> None:
        with holding(turn):
            for position in positions:
                if errors:
                    return
                try:
                    traces[position] = worker(ordered[position])
                except BaseException as error:  # the caller raises it
                    errors.append(error)

    clients = [threading.Thread(target=client, daemon=True) for _ in ordered[:jobs]]
    try:
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
    except BaseException as interrupt:
        errors.append(interrupt)  # a client not yet alive stops before its first query
        for thread in filter(threading.Thread.is_alive, clients):
            thread.join()
    if errors:
        raise errors[0]
    return traces


def write_traces(path: str | Path, traces: Sequence[QueryTrace]) -> None:
    lines = [trace.to_json_line() for trace in traces]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_traces(path: str | Path) -> list[QueryTrace]:
    """Load a trace file; a bad file or line raises DatasetError naming it."""
    traces = []
    for line_no, data in read_json_lines(path, "trace"):
        try:
            traces.append(QueryTrace.from_dict(data))
        except KeyError as exc:
            raise DatasetError(f"trace line {line_no}: missing field {exc}")
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"trace line {line_no}: invalid trace: {exc}")
    return traces


def run_manifest(
    config: EngineConfig,
    mode: ExecutionMode,
    query_count: int,
    started_at: float,
    finished_at: float,
) -> dict:
    return {
        "mode": mode.value,
        "config_hash": config.config_hash(),
        "seed": config.run_seed,
        "query_count": query_count,
        "started_at": started_at,
        "finished_at": finished_at,
    }

