"""Command line interface.

Subcommands: index (build and describe the corpus), route (process one
query over the corpus, as run does, and print its plan), run (process a
workload into a trace file), eval (score a trace file against gold labels),
pareto (dominance analysis over report files). Every failure exits nonzero
after printing a single-line JSON error record to stderr; an output file
that cannot be opened fails before any input is read. Flag values
override config file keys, which override defaults; backend endpoint and
model may also come from TREEROUTE_* environment variables.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from .config import EngineConfig, env_overrides
from .dataset import QueryRecord, build_kb, derive_catalog, ingest, load_catalog
from .errors import EngineError
from .metrics import (
    DepthBucket,
    ParetoPoint,
    depth_report,
    dominates,
    macro_f1,
    pareto_frontier,
)
from .pipeline import (
    ExecutionMode,
    build_engine,
    process_query,
    read_traces,
    run_manifest,
    run_workload,
    write_traces,
)
from .routing import DEPTH_BY_LEVEL
from .vectorstore import Passage


class CliError(EngineError):
    """Bad command line usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep failures machine-parseable
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="treeroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the corpus and write its manifest")
    p_index.add_argument("dataset", help="workload file (JSON lines)")
    p_index.add_argument("--catalog", help="intent catalog file (JSON lines)")

    p_route = sub.add_parser("route", help="process one query and print its plan")
    p_route.add_argument("dataset", help="workload file (JSON lines)")
    p_route.add_argument("query", help="query text")
    p_route.add_argument("--catalog", help="intent catalog file (JSON lines)")

    p_run = sub.add_parser("run", help="process a workload into a trace file")
    p_run.add_argument("dataset", help="workload file (JSON lines)")
    p_run.add_argument("--catalog", help="intent catalog file (JSON lines)")
    p_run.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default=ExecutionMode.ADAPTIVE.value,
        help="execution mode",
    )
    p_run.add_argument("--jobs", type=int, help="override run.jobs")

    p_eval = sub.add_parser("eval", help="score a trace file against gold labels")
    p_eval.add_argument("traces", help="trace file from the run command")
    p_eval.add_argument("golds", help="workload file with gold intents")
    p_eval.add_argument("--label", help="system label for the report")
    p_eval.add_argument(
        "--catalog",
        help="intent catalog file (JSON lines); macro-F1 averages over its intents",
    )

    p_pareto = sub.add_parser("pareto", help="dominance analysis over report files")
    p_pareto.add_argument("reports", nargs="+", help="report files from the eval command")
    p_pareto.add_argument("--accuracy-axes", help="comma-separated accuracy axis names")
    p_pareto.add_argument("--cost-axes", help="comma-separated cost axis names")

    # Each subcommand declares only the flags it reads.
    for p in (p_index, p_route, p_run):
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--seed", type=int, help="override run.seed")
    for p in (p_index, p_run, p_eval, p_pareto):
        p.add_argument("--out", help="output file path")
    return parser


def _load_config(
    path: str | None, seed: int | None = None, jobs: int | None = None
) -> EngineConfig:
    config = EngineConfig.from_file(path) if path else EngineConfig()
    config.apply(env_overrides())
    if seed is not None:
        config.run_seed = seed
    if jobs is not None:
        config.run_jobs = jobs
    config.validate()
    return config


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _load_corpus(args: argparse.Namespace):
    result = ingest(args.dataset)
    if args.catalog:
        catalog = load_catalog(args.catalog)
    else:
        catalog = derive_catalog(result.records)
    passages = build_kb(result.records, catalog)
    return result, catalog, passages


def _catalog_source(args: argparse.Namespace) -> str:
    """The catalog path given, or "derived" for one built from the workload's
    own labelled queries, whose scores are not held out."""
    return args.catalog or "derived"


def _corpus_hash(passages: Sequence[Passage]) -> str:
    digest = hashlib.sha256()
    for passage in sorted(passages, key=lambda p: p.id):
        digest.update(passage.id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(passage.text.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def _claim(*paths: Path) -> None:
    """Open each output file for append, so an unwritable one fails before
    any input is read and an existing one is not truncated."""
    for path in paths:
        try:
            with open(path, "ab"):
                pass
        except OSError as exc:
            raise EngineError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_index(args: argparse.Namespace) -> int:
    out = Path(args.out or "index_manifest.json")
    _claim(out)
    config = _load_config(args.config, seed=args.seed)
    result, catalog, passages = _load_corpus(args)
    build_engine(config, passages)  # validates embeddings and ids
    manifest = {
        "queries": len(result.records),
        "dropped_unlabeled": result.dropped_unlabeled,
        "dropped_duplicates": result.dropped_duplicates,
        "passages": len(passages),
        "intent_count": len(catalog),
        "dimension": config.store_dimension,
        "config_hash": config.config_hash(),
        "corpus_hash": _corpus_hash(passages),
        "catalog": _catalog_source(args),
    }
    out.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _emit({"manifest": str(out), **manifest})
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    config = _load_config(args.config, seed=args.seed)
    _, _, passages = _load_corpus(args)
    engine = build_engine(config, passages)
    trace = process_query(engine, QueryRecord(id="route", text=args.query, intents=frozenset()))
    if trace.error:
        raise EngineError(trace.error)
    level_by_depth = {depth: level.value for level, depth in DEPTH_BY_LEVEL.items()}
    _emit(
        {
            "query": args.query,
            "mode": trace.mode,
            "depth": trace.depth,
            "qci": trace.qci,
            "level": level_by_depth[trace.depth] if trace.mode == "tree" else None,
            "signals": trace.signals,
            "tau_simple": engine.routing.tau_simple,
            "warnings": trace.warnings,
        }
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out or "traces.jsonl")
    manifest_path = Path(str(out) + ".manifest.json")
    _claim(out, manifest_path)
    config = _load_config(args.config, seed=args.seed, jobs=args.jobs)
    result, _, passages = _load_corpus(args)
    engine = build_engine(config, passages)
    mode = ExecutionMode(args.mode)
    started = time.time()
    traces = run_workload(engine, result.records, mode)
    finished = time.time()
    write_traces(out, traces)
    manifest = run_manifest(config, mode, len(traces), started, finished)
    manifest["catalog"] = _catalog_source(args)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    n = len(traces)
    _emit(
        {
            "traces": str(out),
            "manifest": str(manifest_path),
            "mode": mode.value,
            "queries": n,
            "dropped_unlabeled": result.dropped_unlabeled,
            "dropped_duplicates": result.dropped_duplicates,
            "failed": sum(1 for t in traces if t.error),
            "mean_depth": (sum(t.depth for t in traces) / n) if n else 0.0,
            "mean_total_calls": (sum(t.ledger.total_calls for t in traces) / n) if n else 0.0,
            "config_hash": config.config_hash(),
            "catalog": manifest["catalog"],
        }
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    out = Path(args.out or "report.json")
    csv_path = out.with_suffix(".csv")
    _claim(out, csv_path)
    traces = read_traces(args.traces)
    if not traces:
        raise CliError(f"no traces in {args.traces}")
    golds_result = ingest(args.golds)
    golds = {record.id: set(record.intents) for record in golds_result.records}
    predictions = [set(t.predicted_intents) for t in traces]
    missing = [t.query_id for t in traces if t.query_id not in golds]
    if missing:
        raise CliError(f"no gold labels for queries: {', '.join(missing[:5])}")
    gold_sets = [golds[t.query_id] for t in traces]
    if args.catalog:
        catalog = [entry.name for entry in load_catalog(args.catalog)]
        if not catalog:
            raise CliError(f"no intents in catalog {args.catalog}")
    else:
        catalog = sorted(set().union(*gold_sets, *predictions))
    report_by_depth = depth_report(traces, golds)
    population = report_by_depth.weighted
    n = len(traces)
    overall = {
        "subset_accuracy": population.subset_accuracy,
        "micro_f1": population.micro_f1,
        "macro_f1": macro_f1(predictions, gold_sets, catalog),
        "mean_latency_ms": population.mean_latency_ms,
        "mean_prompt_tokens": population.mean_prompt_tokens,
        "mean_total_calls": population.mean_total_calls,
        "mean_depth": sum(t.depth for t in traces) / n,
    }
    label = args.label or Path(args.traces).stem
    report = {
        "label": label,
        "query_count": n,
        "failed_traces": sum(1 for t in traces if t.error),
        "overall": overall,
        "depth_report": report_by_depth.as_dict(),
        "pareto_point": {
            "label": label,
            "accuracy_axes": {
                "subset_accuracy": overall["subset_accuracy"],
                "micro_f1": overall["micro_f1"],
                "macro_f1": overall["macro_f1"],
            },
            "cost_axes": {
                "mean_latency_ms": overall["mean_latency_ms"],
                "mean_prompt_tokens": overall["mean_prompt_tokens"],
                "mean_total_calls": overall["mean_total_calls"],
            },
        },
    }
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _write_depth_csv(csv_path, report_by_depth)
    _emit({"report": str(out), "csv": str(csv_path), "label": label, **overall})
    return 0


def _write_depth_csv(path: Path, report) -> None:
    columns = [f.name for f in fields(DepthBucket)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for bucket in report.buckets:
            writer.writerow(bucket.as_dict())
        weighted = report.weighted.as_dict()
        weighted["depth"] = "weighted"
        writer.writerow(weighted)


def _load_point(path: str, accuracy_axes: list[str] | None, cost_axes: list[str] | None) -> ParetoPoint:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read report {path}: {exc}")
    try:
        point = data.get("pareto_point", data)
        label = point.get("label") or Path(path).stem
        accuracy = {k: float(v) for k, v in point["accuracy_axes"].items()}
        cost = {k: float(v) for k, v in point["cost_axes"].items()}
    except (AttributeError, KeyError, TypeError, ValueError):
        raise CliError(f"report {path} has no usable pareto point")
    if accuracy_axes is not None:
        try:
            accuracy = {k: accuracy[k] for k in accuracy_axes}
        except KeyError as exc:
            raise CliError(f"report {path} is missing accuracy axis {exc}")
    if cost_axes is not None:
        try:
            cost = {k: cost[k] for k in cost_axes}
        except KeyError as exc:
            raise CliError(f"report {path} is missing cost axis {exc}")
    return ParetoPoint(label=label, accuracy_axes=accuracy, cost_axes=cost)


def _axes(point: ParetoPoint) -> str:
    return f"accuracy {sorted(point.accuracy_axes)}, cost {sorted(point.cost_axes)}"


def cmd_pareto(args: argparse.Namespace) -> int:
    if args.out:
        _claim(Path(args.out))
    accuracy_axes = args.accuracy_axes.split(",") if args.accuracy_axes else None
    cost_axes = args.cost_axes.split(",") if args.cost_axes else None
    points = [_load_point(path, accuracy_axes, cost_axes) for path in args.reports]
    first_axes = _axes(points[0])
    path_of: dict[str, str] = {}
    for path, point in zip(args.reports, points):
        if point.label in path_of:
            raise CliError(
                f"reports {path_of[point.label]} and {path} share the label {point.label!r}"
            )
        path_of[point.label] = path
        if _axes(point) != first_axes:
            raise CliError(
                f"reports {args.reports[0]} and {path} have different axes: "
                f"{first_axes} and {_axes(point)}"
            )
    frontier = pareto_frontier(points)
    frontier_labels = [p.label for p in frontier]
    rows = []
    for point in points:
        dominated_by = [q.label for q in points if q is not point and dominates(q, point)]
        rows.append(
            {
                "label": point.label,
                "accuracy_axes": dict(point.accuracy_axes),
                "cost_axes": dict(point.cost_axes),
                "on_frontier": point.label in frontier_labels,
                "dominated_by": dominated_by,
            }
        )
    output = {"points": rows, "frontier": frontier_labels}
    if args.out:
        Path(args.out).write_text(json.dumps(output, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _emit(output)
    return 0


_COMMANDS = {
    "index": cmd_index,
    "route": cmd_route,
    "run": cmd_run,
    "eval": cmd_eval,
    "pareto": cmd_pareto,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    command = "cli"
    try:
        args = parser.parse_args(argv)
        command = args.command
        return _COMMANDS[command](args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "command": command}), file=sys.stderr)
        return 2
    except EngineError as exc:
        print(json.dumps({"error": str(exc), "command": command}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
