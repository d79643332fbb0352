from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeroute import signals
from treeroute.signals import (
    QciWeights,
    SignalLexicons,
    SignalVector,
    compute_qci,
    extract_signals,
    tokenize,
)

WORDS = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("What is my account balance?") == (
        "what",
        "is",
        "my",
        "account",
        "balance",
    )


def test_tokenize_drops_empty_fragments():
    assert tokenize("hello ... !!! world") == ("hello", "world")
    assert tokenize("") == ()
    assert tokenize("   \t  ") == ()


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("it's a re-issue") == ("it's", "a", "re-issue")


def test_tokenize_idempotent_on_own_output():
    first = tokenize("Compare rates, then apply!")
    assert tokenize(" ".join(first)) == first


@given(st.lists(WORDS, max_size=12))
def test_tokenize_idempotence_property(words):
    first = tokenize(" ".join(words))
    assert tokenize(" ".join(first)) == first


def _split_and_trim(text: str) -> tuple[str, ...]:
    """Tokenize as whitespace split plus a per-character trim of each fragment."""
    tokens = []
    for fragment in text.lower().split():
        start, end = 0, len(fragment)
        while start < end and not fragment[start].isalnum():
            start += 1
        while end > start and not fragment[end - 1].isalnum():
            end -= 1
        if start < end:
            tokens.append(fragment[start:end])
    return tuple(tokens)


# Unicode whitespace, "_" (a word character but not alphanumeric), "İ"
# (lowercases to "i" plus a combining dot) and "²" (alphanumeric, not a
# decimal digit), among ASCII letters and punctuation.
TOKENIZE_ALPHABET = list(
    " \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000" + "_İ²aZ9'-.,!?éß\u0307"
)


@given(st.one_of(st.text(), st.text(alphabet=TOKENIZE_ALPHABET)))
def test_tokenize_equals_split_and_trim(text):
    assert tokenize(text) == _split_and_trim(text)


def test_str_predicates_match_the_token_regex_on_every_code_point():
    """tokenize finds the token regex's matches piece by piece, which is
    exact only if str.isspace() is the regex's \\s and str.isalnum() its
    [^\\W_], code point by code point, under this Python's Unicode tables."""
    space, alnum = re.compile(r"\s"), re.compile(r"[^\W_]")
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        assert c.isspace() == (space.fullmatch(c) is not None), hex(code)
        assert c.isalnum() == (alnum.fullmatch(c) is not None), hex(code)


def test_edge_punctuation_is_never_alphanumeric():
    # Stripping a character that is alphanumeric would cut a token short.
    assert not any(c.isalnum() for c in signals._EDGE_PUNCTUATION)


# Every edge-stripped character among letters, "_", a combining mark and
# symbols outside the stripped set, which leave a piece to the regex.
EDGE_ALPHABET = list(signals._EDGE_PUNCTUATION + " \taZ9é_\u0307※¶")


@given(st.one_of(st.text(), st.text(alphabet=EDGE_ALPHABET)))
def test_tokenize_equals_the_token_regex(text):
    assert tokenize(text) == tuple(signals._TOKEN.findall(text.lower()))


def test_signal_counts_are_binary_per_category():
    sv = extract_signals(tokenize("compare and compare and compare"))
    assert sv.conjunction == 1
    assert sv.comparison == 1


def test_membership_is_whole_token_not_substring():
    sv = extract_signals(tokenize("android handling comparable thereafter"))
    assert (sv.wh, sv.conjunction, sv.comparison, sv.sequence) == (0, 0, 0, 0)


def test_boundary_punctuation_still_matches():
    sv = extract_signals(tokenize("compare, and..."))
    assert sv.conjunction == 1
    assert sv.comparison == 1


def test_length_signal_saturates_at_threshold():
    text = " ".join(["word"] * 30)
    assert extract_signals(tokenize(text)).length == 1.0


def test_length_signal_fraction():
    sv = extract_signals(tokenize("cancel my card"))
    assert sv.length == pytest.approx(3 / 25, abs=1e-12)


# Frozen by hand from the weight vector (0.25, 0.20, 0.20, 0.15, 0.20):
# conj + comp + 8 tokens -> 0.20 + 0.20 + 0.20 * 0.32 = 0.464
# wh + 5 tokens          -> 0.25 + 0.20 * 0.20 = 0.29
def test_qci_frozen_values():
    weights = QciWeights()
    high = SignalVector(wh=0, conjunction=1, comparison=1, sequence=0, length=0.32)
    low = SignalVector(wh=1, conjunction=0, comparison=0, sequence=0, length=0.20)
    assert compute_qci(high, weights) == pytest.approx(0.464, abs=1e-12)
    assert compute_qci(low, weights) == pytest.approx(0.29, abs=1e-12)


def test_qci_end_to_end_frozen_example():
    weights = QciWeights()
    sv = extract_signals(tokenize("compare savings rates and open the new account"))
    assert (sv.wh, sv.conjunction, sv.comparison, sv.sequence) == (0, 1, 1, 0)
    assert compute_qci(sv, weights) == pytest.approx(0.464, abs=1e-12)


def test_qci_matches_brute_force_sum():
    rng = random.Random(7)
    weights = QciWeights()
    for _ in range(1000):
        sv = SignalVector(
            wh=rng.randint(0, 1),
            conjunction=rng.randint(0, 1),
            comparison=rng.randint(0, 1),
            sequence=rng.randint(0, 1),
            length=rng.random(),
        )
        expected = (
            weights.wh * sv.wh
            + weights.conjunction * sv.conjunction
            + weights.comparison * sv.comparison
            + weights.sequence * sv.sequence
            + weights.length * sv.length
        )
        assert abs(compute_qci(sv, weights) - expected) < 1e-12


@given(
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.floats(0, 1, allow_nan=False),
)
def test_qci_bounded_for_default_weights(wh, conj, comp, seq, length):
    sv = SignalVector(wh=wh, conjunction=conj, comparison=comp, sequence=seq, length=length)
    assert 0.0 <= compute_qci(sv, QciWeights()) <= 1.0


@given(st.lists(WORDS, max_size=15))
def test_appending_conjunction_never_lowers_qci(words):
    weights = QciWeights()
    before = compute_qci(extract_signals(tokenize(" ".join(words))), weights)
    after = compute_qci(
        extract_signals(tokenize(" ".join(words + ["and"]))), weights
    )
    assert after >= before - 1e-12


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="qci.weights"):
        QciWeights(wh=0.5)


def test_weights_must_be_nonnegative():
    with pytest.raises(ValueError, match="qci.weights.wh"):
        QciWeights(wh=-0.1, conjunction=0.45, comparison=0.3, sequence=0.15)


def test_default_weights_validate():
    QciWeights()


def test_nan_weight_is_rejected():
    with pytest.raises(ValueError, match="qci.weights.wh"):
        QciWeights(wh=float("nan"))


def test_default_lexicons_contents():
    assert "which" in SignalLexicons.wh_terms
    assert "while" in SignalLexicons.conjunction_terms
    assert "versus" in SignalLexicons.comparison_terms
    assert SignalLexicons.length_threshold == 25


def test_lexicons_reject_empty_sets():
    with pytest.raises(ValueError):
        SignalLexicons(wh_terms=frozenset())


def test_lexicons_reject_nonpositive_threshold():
    with pytest.raises(ValueError):
        SignalLexicons(length_threshold=0)


def test_custom_lexicon_changes_signals():
    lexicons = SignalLexicons(sequence_terms=frozenset({"zorp"}))
    sv = extract_signals(tokenize("zorp the card"), lexicons)
    assert sv.sequence == 1
    assert extract_signals(tokenize("first do this"), lexicons).sequence == 0
