"""Workload ingestion and knowledge base derivation.

Workloads are line-delimited JSON records with an id, text, intent labels,
and an optional domain. Ingestion drops exact duplicate texts and
unlabeled records, reporting both counts. The knowledge base is one
passage per intent class, built from a supplied catalog or derived from
the workload itself.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import DatasetError
from .vectorstore import Passage

log = logging.getLogger(__name__)

DERIVED_EXAMPLE_LIMIT = 5


@dataclass(frozen=True)
class QueryRecord:
    id: str
    text: str
    intents: frozenset[str]
    domain: str | None = None


@dataclass(frozen=True)
class IntentCatalogEntry:
    name: str
    description: str
    examples: tuple[str, ...] = ()


@dataclass
class IngestResult:
    records: list[QueryRecord]
    dropped_unlabeled: int
    dropped_duplicates: int


def read_json_lines(path: str | Path, kind: str) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed value) for each nonblank line of a JSON-lines file.

    An unreadable file or a line that is not JSON raises DatasetError naming
    the file or the line; kind ("workload", "catalog", "trace") prefixes it.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {kind} file {path}: {exc}")
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{kind} line {line_no}: invalid record: {exc}")
        yield line_no, data


def _parse_record(line_no: int, data: object) -> QueryRecord:
    if not isinstance(data, dict):
        raise DatasetError(f"line {line_no}: record must be an object")
    for key in ("id", "text", "intents"):
        if key not in data:
            raise DatasetError(f"line {line_no}: missing field {key!r}")
    record_id, text, intents = data["id"], data["text"], data["intents"]
    if not isinstance(record_id, str) or not record_id:
        raise DatasetError(f"line {line_no}: id must be a nonempty string")
    if not isinstance(text, str) or not text.strip():
        raise DatasetError(f"line {line_no}: text must be a nonempty string")
    if not isinstance(intents, list) or any(not isinstance(i, str) for i in intents):
        raise DatasetError(f"line {line_no}: intents must be a list of strings")
    domain = data.get("domain")
    if domain is not None and not isinstance(domain, str):
        raise DatasetError(f"line {line_no}: domain must be a string")
    return QueryRecord(
        id=record_id, text=text, intents=frozenset(intents), domain=domain
    )


def ingest(path: str | Path) -> IngestResult:
    """Load a workload file, dropping duplicates and unlabeled records."""
    records: list[QueryRecord] = []
    seen_texts: set[str] = set()
    seen_ids: set[str] = set()
    dropped_unlabeled = 0
    dropped_duplicates = 0
    for line_no, data in read_json_lines(path, "workload"):
        record = _parse_record(line_no, data)
        key = record.text.strip()
        if key in seen_texts:
            dropped_duplicates += 1
            continue
        if not record.intents:
            dropped_unlabeled += 1
            continue
        if record.id in seen_ids:
            raise DatasetError(f"line {line_no}: duplicate id {record.id!r}")
        seen_texts.add(key)
        seen_ids.add(record.id)
        records.append(record)
    return IngestResult(
        records=records,
        dropped_unlabeled=dropped_unlabeled,
        dropped_duplicates=dropped_duplicates,
    )


def load_catalog(path: str | Path) -> list[IntentCatalogEntry]:
    """Load intent catalog entries from a line-delimited JSON file."""
    entries: list[IntentCatalogEntry] = []
    seen: set[str] = set()
    for line_no, data in read_json_lines(path, "catalog"):
        if not isinstance(data, dict) or not isinstance(data.get("name"), str) or not data["name"]:
            raise DatasetError(f"catalog line {line_no}: name must be a nonempty string")
        name = data["name"]
        if name in seen:
            raise DatasetError(f"catalog line {line_no}: duplicate intent {name!r}")
        seen.add(name)
        examples = data.get("examples", [])
        if not isinstance(examples, list) or any(not isinstance(e, str) for e in examples):
            raise DatasetError(f"catalog line {line_no}: examples must be a list of strings")
        entries.append(
            IntentCatalogEntry(
                name=name,
                description=str(data.get("description", name)),
                examples=tuple(examples),
            )
        )
    return entries


def derive_catalog(records: Sequence[QueryRecord]) -> list[IntentCatalogEntry]:
    """One catalog entry per intent, exemplified by its shortest queries."""
    by_intent: dict[str, list[str]] = {}
    for record in records:
        for intent in record.intents:
            by_intent.setdefault(intent, []).append(record.text)
    entries = []
    for name in sorted(by_intent):
        examples = sorted(by_intent[name], key=lambda t: (len(t), t))
        entries.append(
            IntentCatalogEntry(
                name=name,
                description=name.replace("_", " "),
                examples=tuple(examples[:DERIVED_EXAMPLE_LIMIT]),
            )
        )
    return entries


def build_kb(
    records: Sequence[QueryRecord],
    catalog: Sequence[IntentCatalogEntry] | None = None,
) -> list[Passage]:
    """One passage per intent class; empty input yields an empty base."""
    if catalog is None:
        catalog = derive_catalog(records)
    if not catalog:
        log.warning("no catalog entries and no labeled records; knowledge base is empty")
        return []
    passages = []
    for entry in sorted(catalog, key=lambda e: e.name):
        parts = [f"{entry.name}: {entry.description}"]
        if entry.examples:
            parts.append("examples: " + " ; ".join(entry.examples))
        passages.append(
            Passage(
                id=f"kb:{entry.name}",
                text=" | ".join(parts),
                intent_labels=frozenset({entry.name}),
            )
        )
    return passages
