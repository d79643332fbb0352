"""Prompt rendering and response parsing for the five model roles.

Templates are plain text files with $name placeholders, shipped as package
data and overridable with a prompt directory in config; each role accepts
only the placeholders in ROLE_FIELDS, and a template is checked against
them when it loads. The same pass splits the template once into literal
pieces and field slots, so a render fills the slots and joins. A role
call is a rendered prompt plus the payload the stub answers from; what
else a remote model is sent (model, temperature, output budget) belongs
to the remote backend.

A RoleRunner serves one query on one thread: it holds that query's text,
counts each call and its prompt tokens before sending it, and collects the
query's warnings. It is the one place a role call is retried or replaced
by its default: a failed decomposition is retried and then raises
DecompositionError, and a failed judge or reranker call, like every
recoverable parse failure, falls back to a documented default and appends
a warning instead of failing the query. A failed level-assessor or
classifier call raises its BackendError, which fails the query's trace.
Parsers are deliberately forgiving about formatting and strict about
semantics.
"""

from __future__ import annotations

import math
import re
from importlib import resources
from pathlib import Path
from string import Template
from typing import Any, Mapping, Sequence

from .backends import BackendRole, ChatBackend, ChatRequest, estimate_tokens
from .errors import BackendError, ConfigError, DecompositionError, EngineError
from .routing import RoutingRule, SemanticLevel
from .vectorstore import Passage, ScoredPassage

_NUMBERED_LINE = re.compile(r"^\s*(\d+)\s*[.):\-]\s*(.*\S)\s*$", re.MULTILINE)
_NUMBERED_SCORE = re.compile(
    r"^\s*(\d+)\s*[.):\-]?\s*([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)\s*$", re.MULTILINE
)
_LEVEL_WORD = re.compile(r"\b(low|mid|high)\b", re.IGNORECASE)
# The first verdict word, flipped by a negation at most two words before it.
_VERDICT_WORD = re.compile(
    r"(?:\b(not|never|\w+n't)\s+(?:\w+\s+){0,2})?\b(irrelevant|relevant)\b", re.IGNORECASE
)
_INTENT_SEPARATOR = re.compile(r"[,\n;]")
_ITEM_NUMBER = re.compile(r"^\d+\s*[.):\-]\s*")


class ParseError(EngineError):
    """A model response did not contain what the role requires."""


# The placeholders each role's template may use.
ROLE_FIELDS: Mapping[BackendRole, frozenset[str]] = {
    BackendRole.DECOMPOSER: frozenset({"query"}),
    BackendRole.LEVEL_ASSESSOR: frozenset({"query", "snippets"}),
    BackendRole.JUDGE: frozenset({"query", "sub_query", "passage"}),
    BackendRole.RERANKER: frozenset({"query", "candidates"}),
    BackendRole.INTENT_CLASSIFIER: frozenset({"query", "evidence", "catalog"}),
}


# A template split at load: its literal pieces with "" in each field slot,
# and each slot's (position in the pieces, field name).
SplitTemplate = tuple[list[str], list[tuple[int, str]]]


def _split_template(path: object, text: str, role: BackendRole) -> SplitTemplate:
    """Split a role's template into literal pieces and field slots.

    "$$" becomes a literal "$". A "$" that starts no placeholder, or a
    placeholder the role never fills, would fail every render, so either
    raises ConfigError naming its line.
    """
    pieces: list[str] = []
    slots: list[tuple[int, str]] = []
    start = 0
    for match in Template.pattern.finditer(text):
        pieces.append(text[start : match.start()])
        name = match.group("named") or match.group("braced")
        if match.group("escaped") is not None:
            pieces.append("$")
        elif name in ROLE_FIELDS[role]:
            slots.append((len(pieces), name))
            pieces.append("")
        else:
            if name is None:
                problem = "'$' must start a placeholder or be written '$$'"
            else:
                accepted = ", ".join(f"${field}" for field in sorted(ROLE_FIELDS[role]))
                problem = f"unknown placeholder ${name}; {role.value} accepts {accepted}"
            line = text.count("\n", 0, match.start()) + 1
            raise ConfigError(f"prompt template {path} line {line}: {problem}")
        start = match.end()
    pieces.append(text[start:])
    return pieces, slots


class PromptLibrary:
    """Loads one template per role, from a directory or package data."""

    def __init__(self, prompt_dir: str | Path | None = None):
        self._templates: dict[BackendRole, SplitTemplate] = {}
        for role in BackendRole:
            if prompt_dir is not None:
                path = Path(prompt_dir) / f"{role.value}.txt"
                try:
                    text = path.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError) as exc:
                    raise ConfigError(f"backend.prompt_dir: cannot read {path}: {exc}")
            else:
                path = resources.files(__package__).joinpath("prompts", f"{role.value}.txt")
                text = path.read_text(encoding="utf-8")
            self._templates[role] = _split_template(path, text, role)

    def render(self, role: BackendRole, fields: Mapping[str, str]) -> str:
        """The template with each slot filled; a missing field raises KeyError."""
        pieces, slots = self._templates[role]
        parts = pieces.copy()
        for slot, name in slots:
            parts[slot] = fields[name]
        return "".join(parts)


def parse_decomposition(text: str) -> tuple[str, str]:
    """Exactly two nonempty, distinct sub-queries from numbered lines."""
    parts = [part for _, part in _NUMBERED_LINE.findall(text)]
    if len(parts) != 2:
        raise ParseError(f"expected 2 numbered sub-queries, found {len(parts)}")
    if parts[0] == parts[1]:
        raise ParseError("sub-queries must be distinct")
    return parts[0], parts[1]


def parse_level(text: str) -> SemanticLevel | None:
    """First occurrence of low/mid/high as a word, case-insensitive."""
    match = _LEVEL_WORD.search(text)
    if match is None:
        return None
    return SemanticLevel(match.group(1).lower())


def parse_verdict(text: str) -> bool | None:
    """Whether the first "relevant" or "irrelevant" is a keep; None when none appears.

    A "not", "never" or "...n't" up to two words before the word flips it,
    so "not really relevant" rejects and "not irrelevant" keeps.
    """
    match = _VERDICT_WORD.search(text)
    if match is None:
        return None
    negated, word = match.groups()
    return (word.lower() == "relevant") != bool(negated)


def parse_scores(text: str, count: int) -> list[float | None]:
    """Per-candidate scores from numbered lines; None where missing.

    A candidate's first line is its answer. A score past float's range
    (1e999 reads as inf) is no score, so it takes the missing score's path.
    """
    found: dict[int, float | None] = {}
    for number, score in _NUMBERED_SCORE.findall(text):
        index = int(number)
        if 1 <= index <= count and index not in found:
            value = float(score)
            found[index] = value if math.isfinite(value) else None
    return [found.get(i) for i in range(1, count + 1)]


def parse_intents(text: str, catalog: Sequence[str]) -> set[str]:
    """Catalog intents named in the response; anything else is dropped."""
    canonical = {name.lower(): name for name in catalog}
    intents: set[str] = set()
    for raw in _INTENT_SEPARATOR.split(text):
        cleaned = raw.strip().strip("-*").strip().strip(".\"'`").strip()
        cleaned = _ITEM_NUMBER.sub("", cleaned)
        name = canonical.get(cleaned.lower())
        if name is not None:
            intents.add(name)
    return intents


def _numbered(texts: Sequence[str]) -> str:
    if not texts:
        return "(none)"
    return "\n".join(f"{i}. {t}" for i, t in enumerate(texts, start=1))


class RoleRunner:
    """Runs the five role contracts for one query.

    Build one runner per query: every call it makes is counted in
    self.calls and self.prompt_tokens, and every fallback it takes is
    appended to self.warnings.
    """

    def __init__(
        self,
        backend: ChatBackend,
        prompts: PromptLibrary | None = None,
        *,
        query: str,
        fallback_level: SemanticLevel = RoutingRule.fallback_level,
        decompose_retries: int = 1,
    ):
        self.backend = backend
        self.prompts = prompts if prompts is not None else PromptLibrary()
        self.query = query
        self.fallback_level = fallback_level
        self.decompose_retries = decompose_retries
        self.calls = dict.fromkeys(BackendRole, 0)
        self.prompt_tokens = 0
        self.warnings: list[str] = []

    def _call(self, role: BackendRole, fields: dict[str, str], payload: Mapping[str, Any]) -> str:
        """Count the call, then send it: a call that raises still counts."""
        prompt = self.prompts.render(role, fields)
        self.calls[role] += 1
        self.prompt_tokens += estimate_tokens(prompt)
        return self.backend.chat(ChatRequest(role, prompt, payload))

    def decompose(self, node_text: str) -> tuple[str, str]:
        """Two sub-queries; a failed call or parse is retried, then raises."""
        if not node_text:
            raise DecompositionError("cannot decompose an empty query")
        for _ in range(1 + self.decompose_retries):
            try:
                response = self._call(
                    BackendRole.DECOMPOSER, {"query": node_text}, {"query": node_text}
                )
                return parse_decomposition(response)
            except (ParseError, BackendError) as exc:
                last_error = exc
        raise DecompositionError(
            f"decomposition failed after {self.decompose_retries} retry: {last_error}"
        ) from last_error

    def assess_level(self, snippets: Sequence[str], qci: float) -> SemanticLevel:
        """Semantic level of a tree-route query; unparsed text gives the fallback."""
        response = self._call(
            BackendRole.LEVEL_ASSESSOR,
            {"query": self.query, "snippets": _numbered(snippets)},
            {"qci": qci},
        )
        level = parse_level(response)
        if level is None:
            self.warnings.append(
                f"level assessor returned no level, using {self.fallback_level.value}"
            )
            return self.fallback_level
        return level

    def judge(self, sub_query: str, passage: Passage, sim: float) -> bool:
        """Borderline relevance verdict; every failure keeps the passage."""
        try:
            response = self._call(
                BackendRole.JUDGE,
                {"query": self.query, "sub_query": sub_query, "passage": passage.text},
                {"sim": sim},
            )
        except BackendError as exc:
            self.warnings.append(f"judge call failed, retaining passage: {exc}")
            return True
        verdict = parse_verdict(response)
        if verdict is None:
            self.warnings.append("judge returned no verdict, retaining passage")
            return True
        return verdict

    def rerank(self, candidates: Sequence[ScoredPassage]) -> list[float]:
        """One batched scoring call; missing entries default to 0.5.

        If the call fails outright, the retrieval scores stand in.
        """
        try:
            response = self._call(
                BackendRole.RERANKER,
                {
                    "query": self.query,
                    "candidates": _numbered([c.passage.text for c in candidates]),
                },
                {"scores": tuple(c.score for c in candidates)},
            )
        except BackendError as exc:
            self.warnings.append(f"reranker failed, falling back to retrieval scores: {exc}")
            return [c.score for c in candidates]
        scores: list[float] = []
        for position, value in enumerate(parse_scores(response, len(candidates)), start=1):
            if value is None:
                self.warnings.append(f"reranker gave no score for candidate {position}, using 0.5")
                value = 0.5
            scores.append(value)
        return scores

    def classify(self, evidence: Sequence[ScoredPassage], catalog: Sequence[str]) -> set[str]:
        labels = sorted({label for c in evidence for label in c.passage.intent_labels})
        response = self._call(
            BackendRole.INTENT_CLASSIFIER,
            {
                "query": self.query,
                "evidence": _numbered([c.passage.text for c in evidence]),
                "catalog": ", ".join(catalog),
            },
            {"evidence_labels": tuple(labels)},
        )
        intents = parse_intents(response, catalog)
        if not intents:
            self.warnings.append("classifier named no catalog intent")
        return intents
