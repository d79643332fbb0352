from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from conftest import build_workload, make_engine

from treeroute.backends import (
    MAX_OUTPUT_TOKENS,
    BackendRole,
    ChatBackend,
    ChatRequest,
    RemoteChatBackend,
    StubBehavior,
    StubChatBackend,
    estimate_tokens,
    holding,
    stub_decompose,
    waiting,
)
from treeroute.errors import BackendError
from treeroute.pipeline import process_query
from treeroute.roles import RoleRunner
from treeroute.vectorstore import Passage, ScoredPassage

# A distinct temperature per role: 0.0, 0.1, 0.2 (judge), 0.3, 0.4.
_TEMPERATURES = {role: i / 10 for i, role in enumerate(BackendRole)}


def _request(role=BackendRole.JUDGE, content="hello world", payload=None):
    return ChatRequest(role, content, payload or {})


def test_estimate_tokens_floor_division():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abc") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcdefg") == 1
    assert estimate_tokens("a" * 10) == 2
    assert estimate_tokens("a" * 401) == 100


def test_runner_counts_calls_and_prompt_tokens():
    class Recording:
        def __init__(self):
            self.prompts = []

        def chat(self, request):
            self.prompts.append(request.prompt)
            return "Relevant"

    backend = Recording()
    runner = RoleRunner(backend, query="hello world")
    passage = Passage(id="p1", text="some passage text")
    runner.judge("sub one", passage, 0.5)
    runner.judge("sub two", passage, 0.5)
    runner.rerank([ScoredPassage(passage, 0.5)])
    assert runner.calls == {
        BackendRole.DECOMPOSER: 0,
        BackendRole.LEVEL_ASSESSOR: 0,
        BackendRole.JUDGE: 2,
        BackendRole.RERANKER: 1,
        BackendRole.INTENT_CLASSIFIER: 0,
    }
    # Tokens are floored per prompt, then summed.
    assert len(backend.prompts) == 3
    assert runner.prompt_tokens == sum(len(prompt) // 4 for prompt in backend.prompts) > 0


def test_role_call_records_before_dispatch():
    class Exploding:
        def chat(self, request):
            raise BackendError("intent_classifier", "boom")

    runner = RoleRunner(Exploding(), query="hello world")
    with pytest.raises(BackendError):
        runner.classify([], ["cancel_card"])
    # Failed transport still counts as an issued call.
    assert sum(runner.calls.values()) == 1
    assert runner.calls[BackendRole.INTENT_CLASSIFIER] == 1


def test_stub_decompose_prefers_conjunction_split():
    assert stub_decompose("freeze my card and order a replacement") == (
        "freeze my card",
        "order a replacement",
    )


def test_stub_decompose_uses_first_valid_conjunction():
    assert stub_decompose("a and b or c") == ("a", "b or c")


def test_stub_decompose_ignores_edge_conjunctions():
    # A leading conjunction cannot split; half split takes over.
    assert stub_decompose("and more") == ("and", "more")


def test_stub_decompose_half_split_rounds_up():
    assert stub_decompose("alpha beta gamma") == ("alpha beta", "gamma")
    assert stub_decompose("alpha beta gamma delta") == ("alpha beta", "gamma delta")


def test_stub_decompose_single_token_augments():
    assert stub_decompose("balance") == ("balance details", "balance context")


def test_stub_decompose_identical_halves_augment():
    assert stub_decompose("echo echo") == ("echo echo details", "echo echo context")


def test_stub_decompose_empty_text():
    first, second = stub_decompose("")
    assert first == "query details"
    assert second == "query context"
    assert first != second


def test_stub_decompose_always_distinct_nonempty():
    for text in ("", "x", "a a a", "and", "one two three four five"):
        first, second = stub_decompose(text)
        assert first and second and first != second


def test_stub_assessor_bands():
    backend = StubChatBackend()
    for qci, expected in (
        (0.0, "Low"),
        (0.3499, "Low"),
        (0.35, "Mid"),
        (0.5499, "Mid"),
        (0.55, "High"),
        (1.0, "High"),
    ):
        answer = backend.chat(_request(BackendRole.LEVEL_ASSESSOR, payload={"qci": qci}))
        assert answer == expected, qci


def test_stub_judge_threshold_mode():
    backend = StubChatBackend()
    assert backend.chat(_request(payload={"sim": 0.5})) == "Relevant"
    assert backend.chat(_request(payload={"sim": 0.4999})) == "Irrelevant"


def test_stub_judge_fixed_modes():
    # The pruner only judges similarities in [lo, hi) with hi <= 1, so
    # thresholds 0 and 1 fix the verdict for every judged candidate.
    always_yes = StubChatBackend(StubBehavior(judge_threshold=0.0))
    always_no = StubChatBackend(StubBehavior(judge_threshold=1.0))
    for sim in (0.0, 0.35, 0.7, 0.9999):
        assert always_yes.chat(_request(payload={"sim": sim})) == "Relevant"
        assert always_no.chat(_request(payload={"sim": sim})) == "Irrelevant"


def test_stub_reranker_echoes_scores_with_full_precision():
    backend = StubChatBackend()
    answer = backend.chat(
        _request(BackendRole.RERANKER, payload={"scores": (0.25, 1 / 3, 0.9)})
    )
    lines = answer.splitlines()
    assert lines[0] == f"1. {0.25!r}"
    assert lines[1] == f"2. {(1 / 3)!r}"
    assert lines[2] == f"3. {0.9!r}"


def test_stub_classifier_joins_labels():
    backend = StubChatBackend()
    answer = backend.chat(
        _request(
            BackendRole.INTENT_CLASSIFIER,
            payload={"evidence_labels": ("cancel_card", "freeze_card")},
        )
    )
    assert answer == "cancel_card, freeze_card"
    assert backend.chat(_request(BackendRole.INTENT_CLASSIFIER, payload={})) == "none"


def test_stub_behavior_validation():
    with pytest.raises(ValueError):
        StubBehavior(assessor_low=0.6, assessor_high=0.5)


def test_stub_satisfies_backend_protocol():
    assert isinstance(StubChatBackend(), ChatBackend)


# The first word of each packaged prompt template names its role.
_ROLE_BY_FIRST_WORD = {
    "Split": BackendRole.DECOMPOSER,
    "Rate": BackendRole.LEVEL_ASSESSOR,
    "Decide": BackendRole.JUDGE,
    "Score": BackendRole.RERANKER,
    "Identify": BackendRole.INTENT_CLASSIFIER,
}
# Replies that parse, for the "roles" shape.
_ROLE_REPLIES = {
    BackendRole.DECOMPOSER: "1. freeze my card\n2. order a replacement",
    BackendRole.LEVEL_ASSESSOR: "Low",
    BackendRole.JUDGE: "Relevant",
    BackendRole.RERANKER: "1. 0.9",
    BackendRole.INTENT_CLASSIFIER: "freeze_card",
}


# Replies to requests the client never sends: a completions body, and
# bodies of other chat APIs.
_OTHER_SHAPES = {
    "completion": {"choices": [{"text": "Relevant"}]},
    "bare": {"response": "Relevant"},
    "message": {"message": {"content": "Relevant"}},
    "text": {"text": "Relevant"},
}


def _role_of(body: dict) -> BackendRole:
    return _ROLE_BY_FIRST_WORD[body["messages"][0]["content"].split()[0]]


class _ChatHandler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 502
    shape = "chat"
    bodies: list[dict] = []
    lock = threading.Lock()

    def do_POST(self):
        cls = type(self)
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        with cls.lock:
            cls.bodies.append(body)
            should_fail = cls.fail_first > 0
            if should_fail:
                cls.fail_first -= 1
        if should_fail:
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        if cls.shape == "chat":
            payload = {"choices": [{"message": {"content": "Relevant"}}]}
        elif cls.shape == "roles":
            payload = {"choices": [{"message": {"content": _ROLE_REPLIES[_role_of(body)]}}]}
        else:
            payload = _OTHER_SHAPES.get(cls.shape, {"mystery": 1})
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.fail_first = 0
    _ChatHandler.fail_status = 502
    _ChatHandler.shape = "chat"
    _ChatHandler.bodies = []
    yield f"http://127.0.0.1:{server.server_port}/chat"
    server.shutdown()
    server.server_close()


def _remote(endpoint, model="m", **kwargs):
    return RemoteChatBackend(endpoint, model, _TEMPERATURES, timeout_ms=5000, **kwargs)


def test_remote_chat_happy_path(chat_server):
    backend = _remote(chat_server, model="remote-model")
    answer = backend.chat(_request(payload={"ignored": True}))
    assert answer == "Relevant"
    body = _ChatHandler.bodies[0]
    assert body["model"] == "remote-model"
    assert body["messages"] == [{"role": "user", "content": "hello world"}]
    assert body["temperature"] == _TEMPERATURES[BackendRole.JUDGE] == 0.2
    assert body["max_tokens"] == MAX_OUTPUT_TOKENS[BackendRole.JUDGE] == 16
    assert "payload" not in body


@pytest.mark.parametrize("shape", sorted(_OTHER_SHAPES))
def test_remote_chat_rejects_other_shapes_without_retry(chat_server, shape):
    _ChatHandler.shape = shape
    with pytest.raises(BackendError, match="judge: unrecognized response shape"):
        _remote(chat_server).chat(_request())
    assert len(_ChatHandler.bodies) == 1


def test_remote_chat_retries_once(chat_server):
    _ChatHandler.fail_first = 1
    assert _remote(chat_server).chat(_request()) == "Relevant"
    assert len(_ChatHandler.bodies) == 2


def test_remote_chat_fails_after_retry(chat_server):
    _ChatHandler.fail_first = 2
    with pytest.raises(BackendError) as excinfo:
        _remote(chat_server).chat(_request())
    assert excinfo.value.role == "judge"
    assert len(_ChatHandler.bodies) == 2


@pytest.mark.parametrize("status, sent", [(400, 1), (401, 1), (404, 1), (429, 2), (503, 2)])
def test_remote_chat_retries_only_transient_statuses(chat_server, status, sent):
    _ChatHandler.fail_first = 2
    _ChatHandler.fail_status = status
    with pytest.raises(BackendError, match=str(status)):
        _remote(chat_server).chat(_request())
    assert len(_ChatHandler.bodies) == sent


def test_remote_chat_unknown_shape(chat_server):
    _ChatHandler.shape = "weird"
    with pytest.raises(BackendError, match="shape"):
        _remote(chat_server).chat(_request())


def test_waiting_hands_the_held_turn_on_and_takes_it_back():
    turn = threading.Lock()
    with waiting():  # this thread holds no turn: nothing to hand on
        pass
    with holding(turn):
        assert turn.locked()
        with waiting():
            assert not turn.locked()
            with waiting():  # handed on already
                assert not turn.locked()
            assert not turn.locked()
        assert turn.locked()
        with pytest.raises(BackendError):
            with waiting():
                raise BackendError("judge", "failed while waiting")
        assert turn.locked()
    assert not turn.locked()
    with waiting():  # the turn is no longer this thread's
        assert not turn.locked()


def test_remote_chat_validation():
    with pytest.raises(ValueError):
        _remote("")
    with pytest.raises(ValueError):
        _remote("http://x", max_in_flight=0)


def test_chat_request_validation():
    # A request carries only role, prompt and payload; what the remote model
    # is sent besides is checked once, when the client is built.
    assert _request().prompt == "hello world"
    with pytest.raises(ValueError, match="judge"):
        RemoteChatBackend("http://x", "m", {**_TEMPERATURES, BackendRole.JUDGE: -0.1})
    without_judge = {r: t for r, t in _TEMPERATURES.items() if r is not BackendRole.JUDGE}
    with pytest.raises(KeyError):
        RemoteChatBackend("http://x", "m", without_judge)


def test_chat_request_is_an_immutable_tuple_of_its_fields():
    payload = {"sim": 0.4}
    by_position = ChatRequest(BackendRole.JUDGE, "prompt", payload)
    by_keyword = ChatRequest(payload=payload, prompt="prompt", role=BackendRole.JUDGE)
    assert by_position == by_keyword == (BackendRole.JUDGE, "prompt", payload)
    assert ChatRequest._fields == ("role", "prompt", "payload")
    for name in ChatRequest._fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)


def test_remote_chat_concurrent_calls(chat_server):
    backend = _remote(chat_server, max_in_flight=2)
    with ThreadPoolExecutor(max_workers=6) as pool:
        answers = list(pool.map(lambda _: backend.chat(_request()), range(12)))
    assert answers == ["Relevant"] * 12
    assert len(_ChatHandler.bodies) == 12


def test_config_reaches_every_remote_request(chat_server):
    _ChatHandler.shape = "roles"
    engine = make_engine(
        backend_kind="remote", backend_endpoint=chat_server, apm_judge_temperature=0.7
    )
    assert engine.config.backend_model == ""
    trace = process_query(engine, build_workload(8)[5])
    assert trace.error is None and trace.depth >= 1
    temperatures = engine.config.temperatures()
    assert temperatures[BackendRole.JUDGE] == 0.7
    for body in _ChatHandler.bodies:
        role = _role_of(body)
        assert body["model"] == ""
        assert body["temperature"] == temperatures[role]
        assert body["max_tokens"] == MAX_OUTPUT_TOKENS[role]
    assert {_role_of(body) for body in _ChatHandler.bodies} == set(BackendRole)
    assert len(_ChatHandler.bodies) == trace.ledger.total_calls
