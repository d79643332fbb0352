"""Phases, checks and metrics of one benchmark run; run.py is the entry point."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy
from treeroute.config import EngineConfig
from treeroute.metrics import micro_f1
from treeroute.pipeline import (
    Engine,
    ExecutionMode,
    QueryTrace,
    build_engine,
    run_workload,
    write_traces,
)

import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_MIN_BUILDS = 3
SETUP_BUDGET_S = 2.0  # wall time spent rebuilding after the timed phase
BATCH_TARGET_S = 1.0  # wall time of one run_workload call in the timed phase
MAX_PROBLEMS = 20  # problems listed per phase; the rest are counted


@dataclass
class Pass:
    """Queries sent in one phase and the traces that came back."""

    queries: list[workloads.GeneratedQuery] = field(default_factory=list)
    traces: list[QueryTrace] = field(default_factory=list)
    batches: list[tuple[int, float]] = field(default_factory=list)  # (queries, wall s)
    cpu_s: float = 0.0  # process CPU time inside run_workload

    @property
    def ids(self) -> list[str]:
        return [q.record.id for q in self.queries]

    @property
    def busy_s(self) -> float:
        return sum(seconds for _, seconds in self.batches)

    @property
    def qps(self) -> float:
        return len(self.queries) / self.busy_s

    def batch_medians(self, times_ms: dict[str, float]) -> list[float]:
        """Median query time of each batch, given each query's time by id."""
        medians, start = [], 0
        for n, _ in self.batches:
            batch = self.queries[start : start + n]
            medians.append(statistics.median(times_ms[q.record.id] for q in batch))
            start += n
        return medians


class Bench:
    """One workload at one seed: inputs, engines, phases and checks."""

    def __init__(self, spec: workloads.WorkloadSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.mode = ExecutionMode(spec.mode)
        self.config = EngineConfig()
        self.config.run_jobs = spec.jobs
        self.intents = [entry.name for entry in workloads.catalog()]
        self.corpus = workloads.make_corpus(spec, seed)
        self.corpus_ids = {p.id for p in self.corpus}
        self.problems: list[str] = []
        self.sent = 0
        self.failed = 0

    def stream(self) -> Iterator[workloads.GeneratedQuery]:
        return workloads.query_stream(self.spec, self.seed)

    def build(self) -> Engine:
        return build_engine(self.config, self.corpus, self.intents)

    def run(self, engine: Engine, queries: list[workloads.GeneratedQuery], result: Pass) -> None:
        records = [q.record for q in queries]
        wall, cpu = time.perf_counter(), time.process_time()
        traces = run_workload(engine, records, self.mode)
        result.batches.append((len(records), time.perf_counter() - wall))
        result.cpu_s += time.process_time() - cpu
        result.queries.extend(queries)
        result.traces.extend(traces)

    def fingerprint(self, engine: Engine, label: str) -> tuple[Pass, str]:
        """Run the fixed query set; return it with its trace-file digest."""
        fixed = Pass()
        self.run(engine, list(itertools.islice(self.stream(), self.spec.fingerprint_queries)), fixed)
        self.check(fixed, label)
        path = OUT / f"{self.spec.name}-s{self.seed}-{label}.jsonl"
        write_traces(path, fixed.traces)
        return fixed, hashlib.sha256(path.read_bytes()).hexdigest()

    def timed(self, engine: Engine, seconds: float, batch: int, label: str) -> Pass:
        """Closed-loop run of the stream after the fingerprint set."""
        stream = itertools.islice(self.stream(), self.spec.fingerprint_queries, None)
        timed = Pass()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self.run(engine, list(itertools.islice(stream, batch)), timed)
        self.check(timed, label)
        return timed

    def check(self, result: Pass, label: str) -> None:
        """Count failures and record every output that breaks a rule."""
        ids = result.ids
        self.sent += len(ids)
        self.failed += stats.failed_count(ids, result.traces)
        problems = [f"{label}: {p}" for p in stats.trace_problems(ids, result.traces)]
        want_route = {"fixed3": ("tree", 3), "standard": ("simple", 0)}.get(self.spec.mode)
        for query, trace in zip(result.queries, result.traces):
            if trace.error is not None:
                continue
            route = want_route or (query.template.route, query.template.depth)
            if (trace.mode, trace.depth) != route:
                problems.append(
                    f"{label}: {trace.query_id} routed {trace.mode}/{trace.depth}, "
                    f"expected {route[0]}/{route[1]}"
                )
            if not {e["id"] for e in trace.evidence} <= self.corpus_ids:
                problems.append(f"{label}: {trace.query_id} cites an unknown passage")
            if len(trace.evidence) > self.config.rrl_cap:
                problems.append(f"{label}: {trace.query_id} exceeds the evidence cap")
            if not set(trace.predicted_intents) <= set(self.intents):
                problems.append(f"{label}: {trace.query_id} predicts an unknown intent")
            if trace.ledger.total_calls != sum(trace.ledger.calls_by_role.values()):
                problems.append(f"{label}: {trace.query_id} ledger total disagrees with its roles")
        if len(problems) > MAX_PROBLEMS:
            problems[MAX_PROBLEMS:] = [f"{label}: {len(problems) - MAX_PROBLEMS} more problems"]
        self.problems.extend(problems)


def timed_batch(fixed: Pass, jobs: int) -> int:
    """Queries per run_workload call: whole template blocks, about BATCH_TARGET_S long.

    Whole blocks give every batch the same route mix, so batch rates differ
    only by speed.
    """
    block = len(workloads.TEMPLATES)
    return block * max(1, round(fixed.qps * BATCH_TARGET_S / block), -(-2 * jobs // block))


def time_build(bench: Bench) -> tuple[Engine, float]:
    """Build one engine; return it with the build's wall time."""
    gc.collect()  # free the previous engine's memory before timing the next
    started = time.perf_counter()
    engine = bench.build()
    return engine, time.perf_counter() - started


def more_builds(bench: Bench, times: list[float]) -> None:
    """Rebuild, discarding each engine, for SETUP_BUDGET_S and at least SETUP_MIN_BUILDS."""
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while len(times) < SETUP_MIN_BUILDS or time.perf_counter() < deadline:
        times.append(time_build(bench)[1])


def quality(fixed: Pass) -> dict[str, tuple[float, str]]:
    """Behaviour of the fixed query set: cost ledger and accuracy."""
    ledgers = [t.ledger for t in fixed.traces if t.error is None]
    n = len(ledgers) or 1
    return {
        "llm_calls_per_query": (sum(l.total_calls for l in ledgers) / n, "calls/query"),
        "prompt_tokens_per_query": (sum(l.prompt_tokens for l in ledgers) / n, "tokens/query"),
        "cost_model_ms": (sum(l.latency_ms for l in ledgers) / n, "model_ms"),
        "micro_f1": (
            micro_f1(
                [set(t.predicted_intents) for t in fixed.traces],
                [q.record.intents for q in fixed.queries],
            ),
            "ratio",
        ),
    }


def route_shares(fixed: Pass) -> dict[str, float]:
    counts = Counter(f"{t.mode}/depth{t.depth}" for t in fixed.traces)
    return {key: counts[key] / len(fixed.traces) for key in sorted(counts)}


def query_times_ms(tracer: tracing.Tracer) -> dict[str, float]:
    """Wall time of each process_query call, by query id."""
    return {s.query: s.duration_ns / 1e6 for s in tracer.spans if s.name == tracing.QUERY_SPAN}


def end_to_end(bench: Bench, seconds: float) -> dict:
    engine, first_build = time_build(bench)
    fixed, digest = bench.fingerprint(engine, "fingerprint")
    # Read before any rebuild, so it is one engine's set-up plus fixed work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batch = timed_batch(fixed, bench.spec.jobs)
    timer = tracing.Tracer()
    tracing.install_query_timer(timer)
    try:
        timed = bench.timed(engine, seconds, batch, "timed")
    finally:
        timer.uninstall()
    engine = None
    builds = [first_build]
    more_builds(bench, builds)
    times = query_times_ms(timer)
    samples = list(times.values())
    tail, beyond = stats.nearest_rank(samples, bench.spec.tail_percentile)
    if beyond < stats.TAIL_MARGIN:
        print(
            f"warning: only {beyond} queries lie beyond p{bench.spec.tail_percentile:g}; "
            "the timed phase was too short for a steady tail"
        )
    metrics = {
        "throughput_qps": (timed.qps, "q/s"),
        # Averaged over batches, so each stretch of the host's speed counts
        # by its length instead of flipping the median of the whole run.
        "query_ms_p50": (statistics.fmean(timed.batch_medians(times)), "ms"),
        "query_ms_tail": (tail, "ms"),
        "setup_s": (statistics.median(builds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics.update(quality(fixed))
    return {
        "metrics": metrics,
        "notes": {
            "digest": digest,
            "fingerprint_queries": len(fixed.queries),
            "route_shares": route_shares(fixed),
            "setup_builds": len(builds),
            "timed_queries": len(samples),
            "timed_batches": len(timed.batches),
            "timed_query_ms_p50_overall": statistics.median(samples),
            "tail": f"p{bench.spec.tail_percentile:g} of {len(samples)} queries, {beyond} beyond it",
            "highest_percentile_with_10_beyond": stats.highest_percentile(samples),
            "timed_batch": batch,
        },
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    # Reference: an untraced engine, exactly as the end-to-end run sees it.
    engine = bench.build()
    fixed, digest = bench.fingerprint(engine, "fingerprint")
    batch = timed_batch(fixed, bench.spec.jobs)
    timer = tracing.Tracer()
    tracing.install_query_timer(timer)
    try:
        untraced = bench.timed(engine, seconds / 2, batch, "untraced")
    finally:
        timer.uninstall()
    engine = fixed = None
    gc.collect()

    # The same phases on a fresh engine with every layer wrapped.
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        engine = bench.build()
        traced_fixed, traced_digest = bench.fingerprint(engine, "traced-fingerprint")
        distinct_texts = len(tracer.embedded_texts)
        traced = bench.timed(engine, seconds / 2, batch, "traced")
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"{bench.spec.name}-s{bench.seed}-spans.jsonl")

    if traced_digest != digest:
        bench.problems.append("traced run wrote different trace bytes than the untraced run")
    grouped = tracing.group_totals(tracer.spans, lambda s: (s.query is None, s.name))
    query = {name: totals for (is_setup, name), totals in grouped.items() if not is_setup}
    setup = {name: totals for (is_setup, name), totals in grouped.items() if is_setup}
    traces = traced_fixed.traces + traced.traces
    ledger_calls = sum(t.ledger.total_calls for t in traces)
    chat_calls = query["backends.chat"].calls if "backends.chat" in query else 0
    if ledger_calls != chat_calls:
        bench.problems.append(
            f"ledgers count {ledger_calls} chat calls, the backend wrapper saw {chat_calls}"
        )
    self_total = sum(entry.self_ns for entry in query.values())
    query_total = sum(query[tracing.QUERY_SPAN].durations_ns)
    if self_total != query_total:
        bench.problems.append(f"layer self times sum to {self_total} ns of {query_total} ns")
    metrics = layer_metrics(query, setup, traced, distinct_texts)
    metrics["tracing.throughput_ratio"] = (traced.qps / untraced.qps, "ratio")
    return {
        "metrics": metrics,
        "notes": {
            "digest": digest,
            "traced_digest": traced_digest,
            "untraced_qps": untraced.qps,
            "traced_qps": traced.qps,
            "traced_queries": len(traces),
            "route_shares": route_shares(traced_fixed),
            "layer_self_ms_sum": self_total / 1e6,
            "traced_query_ms_sum": query_total / 1e6,
            "self_time_shares": {
                name: round(entry.self_ns / self_total, 4)
                for name, entry in sorted(query.items(), key=lambda kv: -kv[1].self_ns)
            },
        },
    }


def layer_metrics(query: dict, setup: dict, traced: Pass, distinct_texts: int) -> dict:
    """Per-layer counts and self times from the traced run's span totals."""
    empty = tracing.LayerTotals()

    def get(name: str) -> tracing.LayerTotals:
        return query.get(name, empty)

    n = get(tracing.QUERY_SPAN).calls

    def per_query(value: float) -> float:
        return stats.ratio(value, n)

    def self_ms(*names: str) -> tuple[float, str]:
        return per_query(sum(get(name).self_ns for name in names) / 1e6), "ms/query"

    def calls(*names: str) -> tuple[float, str]:
        return per_query(sum(get(name).calls for name in names)), "calls/query"

    signals = ("signals.extract_signals", "signals.compute_qci")
    roles = tuple(f"roles.{role}" for role in tracing.ROLES.values())
    embed, search, prune = get("embeddings.embed"), get("vectorstore.search"), get("pruning.prune")
    tree, dedup = get("tree.expand"), get("rerank.deduplicate")
    return {
        "pipeline.self_ms": self_ms(tracing.QUERY_SPAN),
        "pipeline.cores_busy": (stats.ratio(traced.cpu_s, traced.busy_s), "cores"),
        "signals.calls": calls(*signals),
        "signals.self_ms": self_ms(*signals),
        "routing.calls": calls("routing.decide"),
        "routing.self_ms": self_ms("routing.decide"),
        "embeddings.calls": calls("embeddings.embed"),
        "embeddings.self_ms": self_ms("embeddings.embed"),
        "embeddings.repeat_share": (stats.ratio(embed.counts["repeat"], embed.calls), "ratio"),
        "embeddings.distinct_texts": (float(distinct_texts), "texts"),
        "embeddings.setup_s": (setup.get("embeddings.embed", empty).self_ns / 1e9, "s"),
        "vectorstore.search_calls": calls("vectorstore.search"),
        "vectorstore.search_self_ms": self_ms("vectorstore.search"),
        "vectorstore.search_ms_p50": (
            statistics.median(search.durations_ns) / 1e6 if search.calls else 0.0,
            "ms",
        ),
        "vectorstore.rows_scanned_per_query": (per_query(search.counts["rows"]), "rows/query"),
        "vectorstore.build_s": (setup.get("vectorstore.build_index", empty).self_ns / 1e9, "s"),
        "pruning.calls": calls("pruning.prune"),
        "pruning.self_ms": self_ms("pruning.prune"),
        "pruning.candidates": (per_query(prune.counts["candidates"]), "passages/query"),
        "pruning.survivor_ratio": (
            stats.ratio(prune.counts["survivors"], prune.counts["candidates"]),
            "ratio",
        ),
        "pruning.borderline_share": (
            stats.ratio(prune.counts["judged"], prune.counts["candidates"]),
            "ratio",
        ),
        "tree.calls": calls("tree.expand"),
        "tree.self_ms": self_ms("tree.expand"),
        "tree.nodes_per_tree": (stats.ratio(tree.counts["nodes"], tree.calls), "nodes"),
        "tree.pruned_node_share": (
            stats.ratio(tree.counts["pruned"], tree.counts["nodes"]),
            "ratio",
        ),
        "rerank.dedup_self_ms": self_ms("rerank.deduplicate"),
        "rerank.dedup_in": (stats.ratio(dedup.counts["in"], dedup.calls), "passages"),
        "rerank.dedup_kept_ratio": (stats.ratio(dedup.counts["kept"], dedup.counts["in"]), "ratio"),
        "rerank.rescore_self_ms": self_ms("rerank.global_rescore"),
        "rerank.select_self_ms": self_ms("rerank.select_topk"),
        **{f"{role}.calls": calls(role) for role in roles},
        "roles.self_ms": self_ms(*roles),
        "backends.chat_calls": calls("backends.chat"),
        "backends.chat_self_ms": self_ms("backends.chat"),
    }


def blas_threads() -> int | None:
    """OpenBLAS's own thread count as found in this process; the benchmark never sets it."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(config: EngineConfig) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "config_hash": config.config_hash(),
        "git_commit": git_commit(ROOT),
    }


def main(workload: str, seed: int, seconds: float, trace: int) -> int:
    spec = workloads.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    bench = Bench(spec, seed)
    env = environment(bench.config)
    print(f"perfbench {spec.name} seed={seed} seconds={seconds:g} trace={trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(
        f"inputs: {len(bench.corpus)} passages, mode {spec.mode}, "
        f"{spec.jobs} closed-loop client(s)"
    )
    result = (per_layer if trace else end_to_end)(bench, seconds)
    notes = result["notes"]
    print(f"trace digest: sha256:{notes['digest']} ({spec.fingerprint_queries} fingerprint queries)")
    for key, value in notes.items():
        if key != "digest":
            print(f"  {key}: {json.dumps(value)}")
    # Printed but not declared: it is 0 on every healthy run.
    extra = {"failed_share": (stats.ratio(bench.failed, bench.sent), "ratio")}
    for name, (value, unit) in {**result["metrics"], **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not bench.problems
    for problem in bench.problems:
        print(f"CHECK FAILED {problem}")
    record = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "passages": len(bench.corpus),
        **notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "problems": bench.problems,
    }
    (OUT / f"result-{spec.name}-s{seed}-t{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.sent,
                "failed": bench.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1

