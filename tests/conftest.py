from __future__ import annotations

import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from treeroute.backends import BackendRole, StubChatBackend
from treeroute.config import EngineConfig
from treeroute.dataset import IntentCatalogEntry, QueryRecord, build_kb
from treeroute.pipeline import Engine, build_engine

INTENTS = {
    "activate_card": "turn on a newly issued card",
    "cancel_card": "permanently cancel a payment card",
    "check_balance": "report the current account balance",
    "compare_rates": "compare interest rates across products",
    "dispute_charge": "contest a transaction on the account",
    "freeze_card": "temporarily block a payment card",
    "open_savings": "open a new savings account",
    "replace_card": "order a replacement payment card",
}

# Template families chosen to exercise every route: no markers (simple),
# wh or sequence markers (hybrid), conjunction/comparison mixes whose
# complexity lands in each assessor band (tree at depths 1, 2, 3).
TEMPLATES = [
    ("cancel my card", {"cancel_card"}),
    ("freeze this card", {"freeze_card"}),
    ("what is my account balance", {"check_balance"}),
    ("how do i dispute this charge", {"dispute_charge"}),
    ("first check my balance then freeze my card", {"check_balance", "freeze_card"}),
    ("freeze my card and order a replacement", {"freeze_card", "replace_card"}),
    (
        "compare savings rates and open the new account",
        {"compare_rates", "open_savings"},
    ),
    (
        "which card is better and how do i activate it or replace it today",
        {"activate_card", "replace_card"},
    ),
]


def build_workload(n: int) -> list[QueryRecord]:
    """Deterministic synthetic workload cycling through the template mix."""
    records = []
    for i in range(n):
        base, intents = TEMPLATES[i % len(TEMPLATES)]
        records.append(
            QueryRecord(
                id=f"q{i:04d}",
                text=f"{base} ref {i:04d}",
                intents=frozenset(intents),
                domain="banking",
            )
        )
    return records


def scalar_fold(row, query) -> float:
    """The engine's similarity as a scalar loop: a left-to-right float sum
    of row[j] * query[j] over the query's nonzero coordinates j, from +0.0,
    unclamped."""
    total = 0.0
    for j in np.flatnonzero(query).tolist():
        total += float(row[j]) * float(query[j])
    return total


def stored_passages(store) -> tuple:
    """The store's passages, in row order."""
    return store._passages


def stored_row(store, passage_id: str) -> np.ndarray:
    """The passage's stored row as a dense vector, read from the index
    layout the vectorstore module docstring fixes; an unknown id raises
    KeyError."""
    (row,) = store.rows([passage_id])
    index = store._index
    entries = slice(index.row_ptr[row], index.row_ptr[row + 1])
    vector = np.zeros(store.dimension)
    vector[index.columns[entries].astype(np.intp)] = index.values[index.by_row[entries]]
    return vector


def toy_catalog() -> list[IntentCatalogEntry]:
    return [
        IntentCatalogEntry(
            name=name,
            description=description,
            examples=tuple(
                text for text, intents in TEMPLATES if name in intents
            ),
        )
        for name, description in sorted(INTENTS.items())
    ]


def make_engine(config: EngineConfig | None = None, **overrides: object) -> Engine:
    # replace() raises TypeError for a field EngineConfig does not have.
    config = replace(config or EngineConfig(), **overrides)
    return build_engine(config, build_kb([], toy_catalog()))


@pytest.fixture
def engine() -> Engine:
    return make_engine()


@pytest.fixture
def workload() -> list[QueryRecord]:
    return build_workload(40)


class CountingBackend:
    """Delegates to the stub and counts the chat calls that reach it."""

    def __init__(self):
        self.inner = StubChatBackend()
        self.calls = 0
        self._counting = threading.Lock()

    def chat(self, request):
        # Concurrent clients share one backend.
        with self._counting:
            self.calls += 1
        return self.inner.chat(request)


class RecordingBackend(CountingBackend):
    """Counts like CountingBackend and keeps every request it was sent."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def chat(self, request):
        self.requests.append(request)
        return super().chat(request)


def assessor_snippets(backend: RecordingBackend) -> str:
    """The context snippets of the one level-assessor prompt backend was sent."""
    (prompt,) = [r.prompt for r in backend.requests if r.role is BackendRole.LEVEL_ASSESSOR]
    return re.search(r"Context snippets:\n(.*?)\n\n", prompt, re.DOTALL).group(1)
