from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeroute.routing import (
    DEPTH_BY_LEVEL,
    MAX_DEPTH,
    RouteMode,
    RoutingRule,
    SemanticLevel,
    assign_depth,
    decide,
    route,
)
from treeroute.signals import SignalVector, compute_qci, extract_signals, tokenize


def _sv(conj: int, comp: int) -> SignalVector:
    return SignalVector(wh=0, conjunction=conj, comparison=comp, sequence=0, length=0.0)


def test_structural_markers_force_tree_regardless_of_qci():
    for conj, comp in ((0, 1), (1, 0), (1, 1)):
        for qci in (0.0, 0.05, 0.0999, 0.10, 0.5, 1.0):
            assert route(_sv(conj, comp), qci) is RouteMode.TREE


def test_low_qci_without_markers_is_simple():
    for qci in (0.0, 0.05, 0.0999):
        assert route(_sv(0, 0), qci) is RouteMode.SIMPLE


def test_threshold_is_strict_so_boundary_goes_hybrid():
    assert route(_sv(0, 0), 0.10) is RouteMode.HYBRID
    assert route(_sv(0, 0), 0.5) is RouteMode.HYBRID
    assert route(_sv(0, 0), 1.0) is RouteMode.HYBRID


def test_custom_tau():
    assert route(_sv(0, 0), 0.15, tau_simple=0.2) is RouteMode.SIMPLE
    assert route(_sv(0, 0), 0.2, tau_simple=0.2) is RouteMode.HYBRID


@given(
    st.floats(0, 1, allow_nan=False),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_route_is_total(qci, conj, comp):
    assert route(_sv(conj, comp), qci) in RouteMode


def test_depth_table():
    assert assign_depth(RouteMode.SIMPLE) == 0
    assert assign_depth(RouteMode.HYBRID) == 0
    assert assign_depth(RouteMode.TREE, SemanticLevel.LOW) == 1
    assert assign_depth(RouteMode.TREE, SemanticLevel.MID) == 2
    assert assign_depth(RouteMode.TREE, SemanticLevel.HIGH) == 3


def test_depth_by_level_matches_max_depth():
    assert DEPTH_BY_LEVEL[SemanticLevel.HIGH] == MAX_DEPTH == 3


def test_tree_without_level_is_an_error():
    with pytest.raises(ValueError):
        assign_depth(RouteMode.TREE)


def test_level_on_non_tree_modes_is_an_error():
    for mode, level in itertools.product(
        (RouteMode.SIMPLE, RouteMode.HYBRID), SemanticLevel
    ):
        with pytest.raises(ValueError):
            assign_depth(mode, level)


def _assessor(level: SemanticLevel, calls: list):
    def assess(snippets, qci):
        calls.append((tuple(snippets), qci))
        return level

    return assess


def _decide(text: str, snippets, assessor):
    """decide over the signals and index the plan step computes for text."""
    signals = extract_signals(tokenize(text))
    return decide(signals, compute_qci(signals), snippets, assessor)


def test_decide_skips_assessor_for_simple_and_hybrid():
    calls = []
    assessor = _assessor(SemanticLevel.HIGH, calls)
    assert _decide("cancel my card", [], assessor) == (RouteMode.SIMPLE, 0)
    assert _decide("what is my account balance please today", [], assessor) == (
        RouteMode.HYBRID,
        0,
    )
    assert calls == []


def test_decide_consults_assessor_exactly_once_for_tree():
    calls = []
    signals = extract_signals(tokenize("compare rates and open the account"))
    qci = compute_qci(signals)
    decision = decide(
        signals, qci, ["snippet a", "snippet b"], _assessor(SemanticLevel.MID, calls)
    )
    assert decision == (RouteMode.TREE, DEPTH_BY_LEVEL[SemanticLevel.MID]) == (RouteMode.TREE, 2)
    assert calls == [(("snippet a", "snippet b"), qci)]


def test_decide_qci_matches_signal_arithmetic():
    signals = extract_signals(tokenize("compare savings rates and open the new account"))
    qci = compute_qci(signals)
    mode, _ = decide(signals, qci, [], _assessor(SemanticLevel.MID, []))
    # conj + comp + 8/25 length under default weights.
    assert qci == pytest.approx(0.464, abs=1e-12)
    assert signals.conjunction == 1
    assert signals.comparison == 1
    assert mode is RouteMode.TREE


def test_decide_routes_on_the_given_index():
    signals = extract_signals(tokenize("cancel my card"))
    assert decide(signals, 0.0, [], None) == (RouteMode.SIMPLE, 0)
    assert decide(signals, 0.5, [], None) == (RouteMode.HYBRID, 0)
    assert decide(signals, 0.5, [], None, RoutingRule(tau_simple=0.6)) == (RouteMode.SIMPLE, 0)


def test_decide_lets_the_assessor_exception_through_unchanged():
    failure = RuntimeError("assessor exploded")

    def broken(snippets, qci):
        raise failure

    with pytest.raises(RuntimeError) as raised:
        _decide("compare rates and fees", [], broken)
    assert raised.value is failure
