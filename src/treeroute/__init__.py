"""Complexity-aware retrieval engine.

Routes each query by surface complexity, explores hard queries with an
adaptive-depth decomposition tree whose branches are pruned by a two-stage
relevance gate, consolidates the surviving evidence with one batched
rerank, and classifies intents from the final evidence. Ships with an
exact in-memory vector store, deterministic offline backends, a benchmark
pipeline with per-role cost ledgers, depth-stratified reporting, and
dominance analysis.
"""

from .backends import (
    BackendRole,
    ChatRequest,
    CostModel,
    RemoteChatBackend,
    StubBehavior,
    StubChatBackend,
    estimate_tokens,
)
from .config import EngineConfig
from .dataset import (
    IngestResult,
    IntentCatalogEntry,
    QueryRecord,
    build_kb,
    derive_catalog,
    ingest,
    load_catalog,
)
from .embeddings import HashedBagEmbedder, RemoteEmbedder
from .errors import (
    BackendError,
    ConfigError,
    DatasetError,
    DecompositionError,
    EngineError,
)
from .metrics import (
    DepthBucket,
    DepthReport,
    ParetoPoint,
    depth_report,
    dominates,
    macro_f1,
    micro_f1,
    pareto_frontier,
    subset_accuracy,
    weighted_average,
)
from .pipeline import (
    CostLedger,
    Engine,
    ExecutionMode,
    QueryTrace,
    build_engine,
    process_query,
    read_traces,
    run_workload,
    write_traces,
)
from .pruning import GateOutcome, GateThresholds, PruneResult, prune, quantitative_gate
from .rerank import (
    SelectionRule,
    consolidate,
    deduplicate,
    global_rescore,
    select_topk,
)
from .roles import PromptLibrary, RoleRunner
from .routing import (
    RouteMode,
    RoutingDecision,
    RoutingRule,
    SemanticLevel,
    assign_depth,
    decide,
    route,
)
from .signals import (
    QciWeights,
    SignalLexicons,
    SignalVector,
    compute_qci,
    extract_signals,
    tokenize,
)
from .tree import QueryNode, RetrievalTree, collect_evidence, expand
from .vectorstore import Passage, ScoredPassage, VectorStore, build_index

__version__ = "0.1.0"
