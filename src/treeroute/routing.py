"""Query routing: pick an execution path and an exploration depth.

Queries with a conjunction or comparison marker always take the tree path;
the rest split on the complexity index into a simple path (below the
threshold) or a hybrid path (at or above it, still depth 0). Tree-path
queries get a depth of 1 to 3 from a semantic level assessment. The
[qtc] config section builds one RoutingRule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

# compute_qci and extract_signals go unused here: perfbench's tracer wraps them in this module.
from .signals import SignalVector, compute_qci, extract_signals  # noqa: F401

MAX_DEPTH = 3


class RouteMode(Enum):
    SIMPLE = "simple"
    HYBRID = "hybrid"
    TREE = "tree"


class SemanticLevel(Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


DEPTH_BY_LEVEL = {
    SemanticLevel.LOW: 1,
    SemanticLevel.MID: 2,
    SemanticLevel.HIGH: 3,
}

# (context snippets, complexity index) -> level of a tree-route query, for
# the query the assessor serves
LevelAssessor = Callable[[Sequence[str], float], SemanticLevel]


@dataclass(frozen=True)
class RoutingRule:
    """The simple-path threshold, the assessor's snippet count and its fallback level."""

    tau_simple: float = 0.10
    assessor_snippets: int = 3
    fallback_level: SemanticLevel = SemanticLevel.MID


@dataclass(frozen=True)
class RoutingDecision:
    mode: RouteMode
    level: SemanticLevel | None
    depth: int


def route(
    signals: SignalVector, qci: float, tau_simple: float = RoutingRule.tau_simple
) -> RouteMode:
    """Total routing rule over the signal vector and complexity index.

    A conjunction or comparison marker forces the tree path regardless of
    the index value; the comparison with the threshold is strict, so a
    query sitting exactly on it is hybrid, not simple.
    """
    if signals.conjunction or signals.comparison:
        return RouteMode.TREE
    if qci < tau_simple:
        return RouteMode.SIMPLE
    return RouteMode.HYBRID


def assign_depth(mode: RouteMode, level: SemanticLevel | None = None) -> int:
    """Map (mode, level) to exploration depth; only tree mode takes a level."""
    if mode is RouteMode.TREE:
        if level is None:
            raise ValueError("tree mode requires a semantic level")
        return DEPTH_BY_LEVEL[level]
    if level is not None:
        raise ValueError(f"{mode.value} mode does not take a semantic level")
    return 0


def decide(
    signals: SignalVector,
    qci: float,
    context_snippets: Sequence[str],
    assessor: LevelAssessor,
    rule: RoutingRule = RoutingRule(),
) -> RoutingDecision:
    """Route a query from its signals and index, then give it a depth.

    The signals and index are the ones the plan step already computed.
    The level assessor is consulted exactly once and only for tree-route
    queries; simple and hybrid queries never touch a backend here. An
    exception from the assessor propagates unchanged.
    """
    mode = route(signals, qci, rule.tau_simple)
    level: SemanticLevel | None = None
    if mode is RouteMode.TREE:
        level = assessor(context_snippets, qci)
    return RoutingDecision(mode=mode, level=level, depth=assign_depth(mode, level))
