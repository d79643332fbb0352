"""Chat model backends, the prompt token estimate and the latency cost model.

Every model interaction in the engine is a single chat exchange tagged
with one of five roles. A request is the role, the rendered prompt (what
a remote model sees) and a small structured payload (what the stub keys
its transform on). The remote backend sends a chat-completions request
and owns everything else a remote model is sent: the model name, a
temperature per role and an output token budget per role. It reads one
reply shape, choices[0].message.content as a string; any other reply is
a BackendError, sent once and not retried. The stub backend answers each
role with a deterministic transform of the payload so full runs work
offline and reproduce exactly. It still answers in plain text, so
response parsing is exercised on every path. build_engine makes the
remote backend exactly when backend.endpoint is set, and the stub
otherwise.

Every call goes through RoleRunner._call, which counts it and its prompt
tokens for the query before sending it, so a call that raises still counts.
ChatRequest is a typing.NamedTuple equal to the tuple (role, prompt, payload).

A batch's clients take turns (pipeline.run_workload): holding() gives a
client thread its batch's turn, and waiting() hands the turn on for the
length of a network wait. Both remote clients wait inside waiting(), and
each client thread has at most one request out, so run.jobs bounds the
requests in flight; a custom backend or embedding provider that waits
must wait inside waiting() too, or it keeps the turn while it waits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Protocol, TypeVar
from typing import runtime_checkable

import requests

from .errors import BackendError
from .signals import SignalLexicons, tokenize

T = TypeVar("T")


_held = threading.local()  # .turn: the turn this thread holds, or None


@contextmanager
def holding(turn: threading.Lock) -> Iterator[None]:
    """Hold turn for the body; a waiting() inside it hands the turn on."""
    with turn:
        _held.turn = turn
        try:
            yield
        finally:
            _held.turn = None


@contextmanager
def waiting() -> Iterator[None]:
    """Hand this thread's turn on while the body waits, and take it back after.

    Outside holding(), and inside another waiting(), it does nothing.
    """
    turn = getattr(_held, "turn", None)
    if turn is None:
        yield
        return
    _held.turn = None
    turn.release()
    try:
        yield
    finally:
        turn.acquire()
        _held.turn = turn


def estimate_tokens(text: str) -> int:
    """Cheap cost proxy: character count over four, floored."""
    return len(text) // 4


class BackendRole(Enum):
    DECOMPOSER = "decomposer"
    LEVEL_ASSESSOR = "level_assessor"
    JUDGE = "judge"
    RERANKER = "reranker"
    INTENT_CLASSIFIER = "intent_classifier"

    # Members are singletons, kept as the same object by pickle and deepcopy,
    # so identity is an exact hash; Enum's own hashes the name in Python code
    # on every role-keyed lookup.
    __hash__ = object.__hash__


class ChatRequest(NamedTuple):
    """One chat exchange: the rendered prompt plus structured stub inputs."""

    role: BackendRole
    prompt: str
    payload: Mapping[str, Any]


@runtime_checkable
class ChatBackend(Protocol):
    def chat(self, request: ChatRequest) -> str: ...


@dataclass(frozen=True)
class CostModel:
    """Synthetic latency of a query, the only latency a trace records."""

    base_ms: float = 5.0
    per_retrieval_ms: float = 15.0
    per_llm_call_ms: float = 300.0

    def latency_ms(self, retrievals: int, llm_calls: int) -> float:
        return self.base_ms + self.per_retrieval_ms * retrievals + self.per_llm_call_ms * llm_calls


@dataclass(frozen=True)
class StubBehavior:
    """Knobs for the deterministic stub backend.

    Level bands partition the complexity index; the judge verdict is a
    threshold on the similarity the pruner hands over. The pruner only
    judges similarities in [lo, hi) with hi <= 1, so a threshold of 0
    makes the judge always keep and a threshold of 1 always discard.
    """

    assessor_low: float = 0.35
    assessor_high: float = 0.55
    judge_threshold: float = 0.5
    conjunction_terms: frozenset[str] = SignalLexicons.conjunction_terms

    def __post_init__(self) -> None:
        if not 0.0 <= self.assessor_low:
            raise ValueError(f"stub.assessor_low: must be >= 0, got {self.assessor_low}")
        if not self.assessor_low <= self.assessor_high <= 1.0:
            bounds = f"[stub.assessor_low ({self.assessor_low}), 1]"
            raise ValueError(f"stub.assessor_high: must be in {bounds}, got {self.assessor_high}")


def stub_decompose(
    text: str, conjunction_terms: frozenset[str] = SignalLexicons.conjunction_terms
) -> tuple[str, str]:
    """Split text into two sub-queries; always succeeds, always distinct.

    Prefers splitting at the first conjunction token with nonempty sides,
    then falls back to a half split, then to appending disambiguators for
    texts too short to divide.
    """
    tokens = tokenize(text)
    for i, token in enumerate(tokens):
        if token in conjunction_terms and 0 < i < len(tokens) - 1:
            return " ".join(tokens[:i]), " ".join(tokens[i + 1 :])
    if len(tokens) >= 2:
        mid = (len(tokens) + 1) // 2
        left, right = " ".join(tokens[:mid]), " ".join(tokens[mid:])
        if left != right:
            return left, right
    base = " ".join(tokens) if tokens else text.strip() or "query"
    return f"{base} details", f"{base} context"


class StubChatBackend:
    """Offline backend answering each role with a deterministic rule."""

    def __init__(self, behavior: StubBehavior = StubBehavior()):
        self.behavior = behavior
        self._handlers = {
            BackendRole.DECOMPOSER: self._decompose,
            BackendRole.LEVEL_ASSESSOR: self._assess,
            BackendRole.JUDGE: self._judge,
            BackendRole.RERANKER: self._rerank,
            BackendRole.INTENT_CLASSIFIER: self._classify,
        }

    def chat(self, request: ChatRequest) -> str:
        return self._handlers[request.role](request.payload)

    def _decompose(self, payload: Mapping[str, Any]) -> str:
        first, second = stub_decompose(
            str(payload.get("query", "")), self.behavior.conjunction_terms
        )
        return f"1. {first}\n2. {second}"

    def _assess(self, payload: Mapping[str, Any]) -> str:
        qci = float(payload.get("qci", 0.0))
        if qci < self.behavior.assessor_low:
            return "Low"
        if qci < self.behavior.assessor_high:
            return "Mid"
        return "High"

    def _judge(self, payload: Mapping[str, Any]) -> str:
        sim = float(payload.get("sim", 0.0))
        return "Relevant" if sim >= self.behavior.judge_threshold else "Irrelevant"

    def _rerank(self, payload: Mapping[str, Any]) -> str:
        scores = payload.get("scores", ())
        return "\n".join(f"{i}. {float(s)!r}" for i, s in enumerate(scores, start=1))

    def _classify(self, payload: Mapping[str, Any]) -> str:
        labels = payload.get("evidence_labels", ())
        return ", ".join(labels) if labels else "none"


# Output token budget per role; only the remote backend sends it.
MAX_OUTPUT_TOKENS: Mapping[BackendRole, int] = {
    BackendRole.DECOMPOSER: 256,
    BackendRole.LEVEL_ASSESSOR: 16,
    BackendRole.JUDGE: 16,
    BackendRole.RERANKER: 512,
    BackendRole.INTENT_CLASSIFIER: 256,
}


def post_json(
    endpoint: str,
    body: Mapping[str, Any],
    timeout_s: float,
    role: str,
    parse: Callable[[object], T],
) -> T:
    """POST a JSON body and parse the reply, retrying once.

    A 4xx other than 429 means the request itself is wrong, so it is not
    sent again. A failed connection, a timeout, 429, 5xx, or a reply that
    is not JSON or that parse rejects with ValueError is retried once; a
    BackendError from parse is not.
    """
    last_error: Exception | None = None
    for _ in range(2):
        try:
            response = requests.post(endpoint, json=body, timeout=timeout_s)
            status = response.status_code
            if 400 <= status < 500 and status != 429:
                raise BackendError(role, f"request rejected with HTTP {status}")
            response.raise_for_status()
            return parse(response.json())
        except (requests.RequestException, ValueError) as exc:
            last_error = exc
    raise BackendError(role, f"request failed after retry: {last_error}")


class RemoteChatBackend:
    """HTTP chat client; one retry per call."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        temperatures: Mapping[BackendRole, float],
        timeout_ms: int = 30_000,
    ):
        if not endpoint:
            raise ValueError("remote chat backend requires an endpoint")
        # A role without a temperature fails here, with a KeyError.
        self.temperatures = {role: temperatures[role] for role in BackendRole}
        for role, temperature in self.temperatures.items():
            if temperature < 0:
                raise ValueError(f"temperature for {role.value} must be >= 0, got {temperature}")
        self.endpoint = endpoint
        self.model = model
        self.timeout_s = timeout_ms / 1000.0

    def chat(self, request: ChatRequest) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.temperatures[request.role],
            "max_tokens": MAX_OUTPUT_TOKENS[request.role],
        }
        parse = partial(_reply_text, request.role.value)
        with waiting():
            return post_json(self.endpoint, body, self.timeout_s, request.role.value, parse)


def _reply_text(role: str, data: object) -> str:
    """A chat-completions reply's choices[0].message.content; any other reply is an error."""
    try:
        text = data["choices"][0]["message"]["content"]
    except (TypeError, LookupError):
        text = None
    if not isinstance(text, str):
        raise BackendError(role, "unrecognized response shape")
    return text
