"""Spans recorded from outside the engine, around calls into each layer.

A Tracer replaces public functions and methods of the treeroute modules
with wrappers that record one span per call: name, start, end, parent
span, thread and query id. Spans stay in memory until the run ends. Each
thread keeps its own parent stack, so spans from concurrent clients nest
correctly. Nothing under src/ is changed; uninstall() puts every
original back.

A span's self time is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Sequence

QUERY_SPAN = "pipeline.process_query"
_RAISED = object()  # result placeholder for a wrapped call that raised

# RoleRunner method -> ledger role it calls the backend as
ROLES = {
    "decompose": "decomposer",
    "assess_level": "level_assessor",
    "judge": "judge",
    "rerank": "reranker",
    "classify": "intent_classifier",
}


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    query: str | None  # query id, None for set-up work
    thread: int
    info: dict | None = None  # counts observed at this call

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _ThreadState(threading.local):
    """Each thread's open spans and the query it is processing."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.query: str | None = None


# (tracer, call args, call kwargs, result) -> counts to store on the span
Observer = Callable[["Tracer", tuple, dict, Any], dict | None]


class Tracer:
    """Records spans for wrapped calls; install with wrap(), undo with uninstall()."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # next() on a count and list.append are single C calls, atomic
        # under the interpreter lock; the lock guards the embedded-text set.
        self._ids = itertools.count()
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self.embedded_texts: set[str] = set()

    def note_embedded(self, text: str) -> bool:
        """Record text as embedded; True when it had been embedded before."""
        with self._lock:
            seen = text in self.embedded_texts
            self.embedded_texts.add(text)
        return seen

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Observer | None = None,
        query_arg: int | None = None,
    ) -> None:
        """Replace owner.attr with a span-recording wrapper.

        query_arg names the positional argument that holds the QueryRecord;
        spans opened during that call carry its id.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = local.stack
            outer_query = local.query
            if query_arg is not None:
                local.query = args[query_arg].id
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = _RAISED
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                query = local.query
                local.query = outer_query
                info = None
                if observe is not None and result is not _RAISED:
                    info = observe(tracer, args, kwargs, result)
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, query, threading.get_ident(), info)
                )

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def install_query_timer(tracer: Tracer) -> None:
    """Wrap only process_query: per-query wall time with tracing off."""
    from treeroute import pipeline

    tracer.wrap(pipeline, "process_query", QUERY_SPAN, query_arg=1)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer, at every call site."""
    from treeroute import pipeline, rerank, routing
    from treeroute.backends import StubChatBackend
    from treeroute.embeddings import HashedBagEmbedder
    from treeroute.roles import RoleRunner
    from treeroute.vectorstore import VectorStore

    install_query_timer(tracer)
    for module in (pipeline, routing):
        tracer.wrap(module, "extract_signals", "signals.extract_signals")
        tracer.wrap(module, "compute_qci", "signals.compute_qci")
    tracer.wrap(pipeline, "decide", "routing.decide")
    tracer.wrap(HashedBagEmbedder, "embed", "embeddings.embed", _observe_embed)
    tracer.wrap(VectorStore, "search", "vectorstore.search", _observe_search)
    tracer.wrap(pipeline, "build_index", "vectorstore.build_index")
    tracer.wrap(pipeline, "prune", "pruning.prune", _observe_prune)
    tracer.wrap(pipeline, "expand", "tree.expand", _observe_expand)
    tracer.wrap(pipeline, "consolidate", "rerank.consolidate")
    tracer.wrap(rerank, "deduplicate", "rerank.deduplicate", _observe_dedup)
    tracer.wrap(rerank, "global_rescore", "rerank.global_rescore")
    tracer.wrap(rerank, "select_topk", "rerank.select_topk")
    for method, role in ROLES.items():
        tracer.wrap(RoleRunner, method, f"roles.{role}")
    tracer.wrap(StubChatBackend, "chat", "backends.chat")


def _observe_embed(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> dict:
    return {"repeat": int(tracer.note_embedded(args[1]))}


def _observe_search(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": args[0].size}


def _observe_prune(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> dict:
    return {
        "candidates": len(args[1]),
        "survivors": len(result.survivors),
        "judged": result.judge_calls,
    }


def _observe_expand(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> dict:
    return {"nodes": result.node_count, "pruned": result.pruned_count}


def _observe_dedup(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> dict:
    return {"in": len(args[0]), "kept": len(result)}


# -- analysis ----------------------------------------------------------------


def _covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of intervals."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    return {
        span.id: span.duration_ns
        - _covered_ns(span.start_ns, span.end_ns, children.get(span.id, ()))
        for span in spans
    }


@dataclass
class LayerTotals:
    """One group of spans: call count, self time, durations and summed counts."""

    calls: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def group_totals(spans: Sequence[Span], key: Callable[[Span], Hashable]) -> dict:
    """Spans grouped by key(span): call count, self time, durations and counts."""
    own = self_times(spans)
    totals: dict = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[key(span)]
        entry.calls += 1
        entry.self_ns += own[span.id]
        entry.durations_ns.append(span.duration_ns)
        for name, value in (span.info or {}).items():
            entry.counts[name] += value
    return dict(totals)
