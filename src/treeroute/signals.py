"""Surface signal extraction and the query complexity index.

A query is scored with five cheap lexical signals: presence of an
interrogative word, a conjunction, a comparison marker, a sequence marker,
and a normalized length. The weighted sum of these signals is the
complexity index in [0, 1] that drives path routing.
"""

from __future__ import annotations

import re
import string
from dataclasses import asdict, dataclass

@dataclass(frozen=True)
class SignalVector:
    """Four binary structure markers plus a length signal, each in [0, 1]."""

    wh: int
    conjunction: int
    comparison: int
    sequence: int
    length: float

    def as_dict(self) -> dict[str, float]:
        return {
            "wh": float(self.wh),
            "conjunction": float(self.conjunction),
            "comparison": float(self.comparison),
            "sequence": float(self.sequence),
            "length": self.length,
        }


@dataclass(frozen=True)
class QciWeights:
    """Per-signal weights; must be non-negative and sum to 1."""

    wh: float = 0.25
    conjunction: float = 0.20
    comparison: float = 0.20
    sequence: float = 0.15
    length: float = 0.20

    def __post_init__(self) -> None:
        # Phrased so that NaN fails both checks.
        for name, value in self.as_dict().items():
            if not value >= 0:
                raise ValueError(f"qci.weights.{name}: must be >= 0, got {value}")
        total = sum(self.as_dict().values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"qci.weights: must sum to 1.0, got {total!r}")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class SignalLexicons:
    """Marker term sets plus the token count at which length saturates."""

    wh_terms: frozenset[str] = frozenset(
        {"what", "when", "where", "who", "whom", "whose", "which", "why", "how"}
    )
    conjunction_terms: frozenset[str] = frozenset({"and", "or", "but", "while"})
    comparison_terms: frozenset[str] = frozenset({"compare", "versus", "better", "difference"})
    sequence_terms: frozenset[str] = frozenset({"first", "then", "after", "before", "next"})
    length_threshold: int = 25

    def __post_init__(self) -> None:
        for name in ("wh", "conjunction", "comparison", "sequence"):
            if not getattr(self, f"{name}_terms"):
                raise ValueError(f"qci.lexicon.{name}: must be nonempty")
        if self.length_threshold <= 0:
            raise ValueError(f"qci.length_threshold: must be > 0, got {self.length_threshold}")


# A run of non-whitespace that starts and ends alphanumeric: [^\W_] is
# exactly the characters str.isalnum() accepts.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")
# ASCII and common typographic punctuation, stripped from a piece's edges
# without the regex.
_EDGE_PUNCTUATION = string.punctuation + "«»‘’‚“”„…–—¡¿、。，！？：；"


def piece_token(piece: str) -> str | None:
    """The token in one lowercased whitespace piece, or None when it has none.

    The token is _TOKEN's match in the piece: str.isspace() agrees with the
    regex's \\s and str.isalnum() with its [^\\W_] on every code point
    (tests/test_signals.py checks all of them under the running Python), so
    a piece holds at most one match, from its first alphanumeric character
    to its last. An alphanumeric piece is its own match, and so is every
    token. Any other piece is stripped of _EDGE_PUNCTUATION, none of which
    is alphanumeric; when both ends of what is left are alphanumeric, that
    is the match, and only otherwise does the piece go to the regex.
    """
    if piece.isalnum():
        return piece
    piece = piece.strip(_EDGE_PUNCTUATION)
    if piece and piece[0].isalnum() and piece[-1].isalnum():
        return piece
    match = _TOKEN.search(piece)
    return match[0] if match else None


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, split on whitespace, take each piece's token (piece_token).

    Pieces with no alphanumeric character give no token, so punctuation-only
    fragments never produce tokens. The result is _TOKEN's matches in the
    lowercased text.
    """
    return tuple(filter(None, map(piece_token, text.lower().split())))


def extract_signals(
    tokens: tuple[str, ...], lexicons: SignalLexicons = SignalLexicons()
) -> SignalVector:
    """Compute the five-signal vector by token set membership.

    Each binary signal fires when any token is in the corresponding lexicon;
    length is token count over the threshold, capped at 1.
    """
    present = set(tokens)
    return SignalVector(
        wh=int(bool(present & lexicons.wh_terms)),
        conjunction=int(bool(present & lexicons.conjunction_terms)),
        comparison=int(bool(present & lexicons.comparison_terms)),
        sequence=int(bool(present & lexicons.sequence_terms)),
        length=min(len(tokens) / lexicons.length_threshold, 1.0),
    )


def compute_qci(signals: SignalVector, weights: QciWeights = QciWeights()) -> float:
    """Weighted sum of the signal vector; in [0, 1] for valid weights."""
    return (
        weights.wh * signals.wh
        + weights.conjunction * signals.conjunction
        + weights.comparison * signals.comparison
        + weights.sequence * signals.sequence
        + weights.length * signals.length
    )
