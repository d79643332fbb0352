from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import threading
import weakref
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from conftest import build_workload, make_engine, stored_passages, stored_row
from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import cli, embeddings, signals, vectorstore
from treeroute.backends import RemoteChatBackend, StubChatBackend
from treeroute.config import ENV_KEYS
from treeroute.embeddings import (
    DEFAULT_DIMENSION,
    EmbeddingProvider,
    HashedBagEmbedder,
    Nonzeros,
    RemoteEmbedder,
)
from treeroute.errors import BackendError
from treeroute.pipeline import run_workload
from treeroute.signals import tokenize
from treeroute.vectorstore import Passage, build_index


def test_default_dimension():
    assert HashedBagEmbedder().dimension == DEFAULT_DIMENSION == 768


def test_vectors_are_unit_norm():
    embedder = HashedBagEmbedder(dimension=64)
    for text in ("cancel my card", "a", "", "   ", "one two three four five"):
        assert np.linalg.norm(embedder.embed(text)) == pytest.approx(1.0, abs=1e-9)


def test_deterministic_across_instances():
    a = HashedBagEmbedder(dimension=128, seed=3).embed("compare savings rates")
    b = HashedBagEmbedder(dimension=128, seed=3).embed("compare savings rates")
    assert np.array_equal(a, b)


def test_seed_changes_vectors():
    a = HashedBagEmbedder(dimension=128, seed=0).embed("compare savings rates")
    b = HashedBagEmbedder(dimension=128, seed=1).embed("compare savings rates")
    assert not np.array_equal(a, b)


def test_contributions_are_nonnegative_so_cosines_are_too():
    embedder = HashedBagEmbedder(dimension=32)
    texts = ["alpha beta", "gamma", "delta epsilon zeta", "unrelated words here"]
    for a in texts:
        for b in texts:
            assert embedder.embed(a) @ embedder.embed(b) >= 0.0


def test_token_overlap_raises_similarity():
    embedder = HashedBagEmbedder()
    compare_rates = embedder.embed("compare interest rates")
    compare_fees = embedder.embed("compare account fees")
    unrelated = embedder.embed("walk the dog tonight")
    assert compare_rates @ compare_fees > compare_rates @ unrelated


def test_tokenization_normalizes_before_hashing():
    embedder = HashedBagEmbedder()
    assert np.array_equal(
        embedder.embed("Cancel my card!"), embedder.embed("cancel   my card")
    )


def _state(embedder: HashedBagEmbedder) -> dict:
    # The bounded token table is the embedder's only mutable state; the
    # token-table tests below check its bound and contents.
    return {key: value for key, value in vars(embedder).items() if key != "_coordinate"}


def test_embed_is_pure_and_readonly():
    embedder = HashedBagEmbedder(dimension=16)
    state = copy.deepcopy(_state(embedder))
    first = embedder.embed("hello")
    assert embedder.embed("hello").tobytes() == first.tobytes()
    with pytest.raises(ValueError):
        first[0] = 9.0
    assert _state(embedder) == state


def _uncached_embed(text: str, dimension: int, seed: int) -> np.ndarray:
    """The hashed bag with one SHA-256 per token occurrence and no table."""
    vector = np.zeros(dimension)
    for token in tokenize(text) or ("",):
        digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
        vector[int.from_bytes(digest[:8], "big") % dimension] += 1.0
    return vector / np.linalg.norm(vector)


_TABLE_TEXTS = [
    "cancel my card",
    "card card card cancel",
    "",
    "   ",
    "!!!",
    "café crème brûlée",
    "naïve Straße ÆØÅ",
    "日本語 テキスト 日本語",
    "emoji 🙂 and 🙂 again",
]


def test_token_table_vectors_equal_the_uncached_hash():
    for dimension, seed in ((768, 0), (64, 7), (1, 3)):
        embedder = HashedBagEmbedder(dimension=dimension, seed=seed)
        # The second pass reads every coordinate from the table.
        for _ in range(2):
            for text in _TABLE_TEXTS:
                expected = _uncached_embed(text, dimension, seed)
                assert embedder.embed(text).tobytes() == expected.tobytes()
        assert embedder._coordinate.cache_info().hits > 0


def test_token_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(embeddings, "TOKEN_TABLE_SIZE", 4)
    embedder = HashedBagEmbedder(dimension=32)
    for i in range(20):
        text = f"token{i} other{i} card rate {i}"
        assert embedder.embed(text).tobytes() == _uncached_embed(text, 32, 0).tobytes()
        assert embedder._coordinate.cache_info().currsize <= 4


def test_embedders_with_different_seeds_share_no_table_entries():
    a = HashedBagEmbedder(dimension=128, seed=0)
    b = HashedBagEmbedder(dimension=128, seed=1)
    text = "compare savings rates"
    a.embed(text)
    # b has seen none of these tokens, whatever a has.
    b.embed(text)
    assert b._coordinate.cache_info().hits == 0
    assert b.embed(text).tobytes() == _uncached_embed(text, 128, 1).tobytes()
    assert a.embed(text).tobytes() == _uncached_embed(text, 128, 0).tobytes()


def test_dropped_embedder_is_freed_without_gc():
    # The token table must hold no reference back to the embedder.
    embedder = HashedBagEmbedder(dimension=64)
    embedder.embed("cancel my card")
    ref = weakref.ref(embedder)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del embedder
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _densify(nonzeros, count: int, dimension: int) -> np.ndarray:
    """The count x dimension block that holds nonzeros and zeros elsewhere."""
    block = np.zeros((count, dimension))
    block[nonzeros.rows, nonzeros.columns] = nonzeros.values
    return block


# Empty, punctuation-only and repeated-token texts among ordinary ones.
_block_texts = st.one_of(
    st.sampled_from(_TABLE_TEXTS + ["...", "?!", "card card card card", "a a b"]),
    st.lists(st.sampled_from(["card", "rate", "café", "!", "日本"]), max_size=8).map(" ".join),
)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.one_of(
        st.lists(_block_texts, min_size=1, max_size=1),
        st.lists(_block_texts, min_size=33, max_size=33),
        st.lists(_block_texts, max_size=40),
    ),
    dimension=st.sampled_from([1, 7, 64, 768]),
    seed=st.integers(0, 3),
)
def test_embed_many_rows_have_the_bits_of_embed(texts, dimension, seed):
    embedder = HashedBagEmbedder(dimension=dimension, seed=seed)
    rows, columns, values = nonzeros = embedder.embed_many(texts)
    assert isinstance(nonzeros, Nonzeros)
    assert values.dtype == np.float64
    assert len(rows) == len(columns) == len(values)
    assert not any(array.flags.writeable for array in nonzeros)
    # Row-major order with columns ascending within a row: the keys ascend strictly.
    keys = rows * dimension + columns
    assert (np.diff(keys) > 0).all()
    assert ((0 <= columns) & (columns < dimension)).all()
    # A fresh embedder, so embed fills its own token table.
    single = HashedBagEmbedder(dimension=dimension, seed=seed)
    for row, text in zip(_densify(nonzeros, len(texts), dimension), texts):
        assert row.tobytes() == single.embed(text).tobytes()


# Letters of both cases, digits, "_", every edge-stripped character (the
# typographic quotes among them), apostrophes and mixed whitespace.
_PIECE_ALPHABET = list(
    "aZé9" + "_" + signals._EDGE_PUNCTUATION + "'’‘“”" + " \t\n\xa0\u3000"
)
_piece_texts = st.one_of(
    st.text(alphabet=_PIECE_ALPHABET, max_size=40),
    # No token at all: punctuation and whitespace only.
    st.text(alphabet=list(signals._EDGE_PUNCTUATION + "_ \t\n\xa0"), max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(_piece_texts, min_size=1, max_size=12),
    dimension=st.sampled_from([1, 7, 768]),
    seed=st.integers(0, 3),
)
def test_the_piece_table_gives_the_bits_of_whole_text_tokenize(texts, dimension, seed):
    for text in texts:
        pieces = [signals.piece_token(piece) for piece in text.lower().split()]
        tokens = tuple(token for token in pieces if token is not None)
        assert tokens == tokenize(text) == tuple(signals._TOKEN.findall(text.lower()))
    embedder = HashedBagEmbedder(dimension=dimension, seed=seed)
    # Twice, so the second pass reads every piece from the table.
    for _ in range(2):
        block = _densify(embedder.embed_many(texts), len(texts), dimension)
        for row, text in zip(block, texts):
            expected = _uncached_embed(text, dimension, seed).tobytes()
            assert embedder.embed(text).tobytes() == expected
            assert row.tobytes() == expected


def test_a_hashed_bag_build_never_calls_embed(monkeypatch):
    def refuse(self, text):
        raise AssertionError(f"embed called on {text!r}")

    monkeypatch.setattr(HashedBagEmbedder, "embed", refuse)
    passages = [Passage(id=f"p{i:02d}", text=f"passage {i}") for i in range(40)]
    store = build_index(passages, HashedBagEmbedder(dimension=16))
    assert store.size == 40


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        HashedBagEmbedder(dimension=0)


def test_provider_protocol():
    assert isinstance(HashedBagEmbedder(), EmbeddingProvider)
    assert isinstance(RemoteEmbedder("http://127.0.0.1:1/embed", model="m"), EmbeddingProvider)


def _server_vector(text: str, dimension: int) -> list[float]:
    """The embedding the test server gives text: positive, and parallel to no other length's."""
    return [float(len(text) + i + 1) for i in range(dimension)]


# JSON 1e400 parses to inf; an integer of 401 digits is as far out of range.
_NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "huge": 10**400}


class _EmbedHandler(BaseHTTPRequestHandler):
    fail_first = 0
    fail_status = 500
    shape = "ordered"  # how a reply is shaped; zero and _NON_FINITE spoil its last row
    dimension = 8
    requests_seen = 0
    short_request: int | None = None  # the one request that "short" spoils, or every one
    inputs: list = []  # the input of every request, in arrival order
    bad_input: str | None = None  # a text whose vector starts with bad_element
    bad_element: object = {}

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        assert "input" in body and "model" in body
        cls.inputs.append(body["input"])
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        data = json.dumps(self._reply(body["input"])).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply(self, texts):
        cls = type(self)
        if cls.shape == "weird":
            return {"surprise": True}
        rows = [
            {"index": i, "embedding": _server_vector(text, cls.dimension)}
            for i, text in enumerate(texts)
        ]
        for row, text in zip(rows, texts):
            if text == cls.bad_input:
                row["embedding"][0] = cls.bad_element
        if cls.shape == "reversed":
            rows.reverse()
        elif cls.shape == "short" and cls.short_request in (None, cls.requests_seen):
            rows.pop()
        elif cls.shape == "zero":
            rows[-1]["embedding"] = [0.0] * cls.dimension
        elif cls.shape in _NON_FINITE:
            rows[-1]["embedding"][0] = _NON_FINITE[cls.shape]
        elif cls.shape == "bool_index":
            rows[0]["index"] = bool(rows[0]["index"])
        return {"data": rows}

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.fail_first = 0
    _EmbedHandler.fail_status = 500
    _EmbedHandler.shape = "ordered"
    _EmbedHandler.requests_seen = 0
    _EmbedHandler.short_request = None
    _EmbedHandler.inputs = []
    _EmbedHandler.bad_input = None
    _EmbedHandler.bad_element = {}
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()


def _remote(endpoint):
    return RemoteEmbedder(endpoint, model="m", dimension=8, timeout_ms=5000)


def test_remote_happy_path_normalizes(embed_server):
    vector = _remote(embed_server).embed("hello")
    assert vector.shape == (8,)
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-9)
    assert vector[7] > vector[0] > 0


def test_remote_embed_is_one_request_for_a_one_text_list(embed_server):
    client = _remote(embed_server)
    vector = client.embed("hello")
    assert _EmbedHandler.inputs == [["hello"]]
    assert not vector.flags.writeable
    row = _densify(client.embed_many(["hello"]), 1, client.dimension)[0]
    assert vector.tobytes() == row.tobytes()


def test_remote_retries_transport_failure_once(embed_server):
    _EmbedHandler.fail_first = 1
    vector = _remote(embed_server).embed("hello")
    assert vector.shape == (8,)
    assert _EmbedHandler.requests_seen == 2


def test_remote_gives_up_after_one_retry(embed_server):
    _EmbedHandler.fail_first = 2
    with pytest.raises(BackendError, match="embedding"):
        _remote(embed_server).embed("hello")
    assert _EmbedHandler.requests_seen == 2


@pytest.mark.parametrize("status, sent", [(400, 1), (503, 2)])
def test_remote_retries_only_transient_statuses(embed_server, status, sent):
    _EmbedHandler.fail_first = 2
    _EmbedHandler.fail_status = status
    with pytest.raises(BackendError, match=str(status)):
        _remote(embed_server).embed("hello")
    assert _EmbedHandler.requests_seen == sent


def test_remote_rejects_unknown_shape(embed_server):
    _EmbedHandler.shape = "weird"
    with pytest.raises(BackendError, match="shape"):
        _remote(embed_server).embed("hello")


def test_remote_reads_no_bool_as_an_index(embed_server):
    _EmbedHandler.shape = "bool_index"
    with pytest.raises(BackendError, match="no embedding with index 0"):
        _remote(embed_server).embed("hello")


def test_remote_rejects_zero_vector(embed_server):
    _EmbedHandler.shape = "zero"
    with pytest.raises(BackendError, match="zero"):
        _remote(embed_server).embed("hello")


@pytest.mark.parametrize("shape", sorted(_NON_FINITE))
def test_remote_rejects_non_finite_vector_without_retry(embed_server, shape):
    _EmbedHandler.shape = shape
    with pytest.raises(BackendError, match="non-finite"):
        _remote(embed_server).embed("hello")
    assert _EmbedHandler.requests_seen == 1


@pytest.mark.parametrize("element", [{}, "0.5", "abc", True, False, None, [1.0]])
def test_remote_non_number_element_is_retried_then_a_backend_error(embed_server, element):
    _EmbedHandler.bad_input = "hello"
    _EmbedHandler.bad_element = element
    with pytest.raises(BackendError, match="non-number"):
        _remote(embed_server).embed("hello")
    assert _EmbedHandler.requests_seen == 2


def test_non_number_query_embedding_fails_its_trace_not_the_batch(embed_server):
    engine = make_engine(embed_endpoint=embed_server, store_dimension=8)
    good, bad = build_workload(2)
    _EmbedHandler.bad_input = bad.text
    traces = run_workload(engine, [good, bad])
    assert [t.query_id for t in traces] == [good.id, bad.id]
    assert traces[0].error is None
    assert "non-number" in traces[1].error


@pytest.mark.parametrize("embed, chat", [(False, False), (True, False), (False, True), (True, True)])
def test_a_client_is_remote_exactly_when_its_endpoint_is_set(embed_server, embed, chat):
    # build_engine sends no chat request, so the chat endpoint is never called.
    engine = make_engine(
        embed_endpoint=embed_server if embed else "",
        backend_endpoint="http://127.0.0.1:1/chat" if chat else "",
        store_dimension=8,
    )
    assert type(engine.embedder) is (RemoteEmbedder if embed else HashedBagEmbedder)
    assert type(engine.backend) is (RemoteChatBackend if chat else StubChatBackend)
    assert (_EmbedHandler.requests_seen > 0) == embed


def test_the_embed_endpoint_variable_alone_selects_the_remote_embedder(
    embed_server, monkeypatch, tmp_path
):
    for name in ENV_KEYS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("TREEROUTE_EMBED_ENDPOINT", embed_server)
    path = tmp_path / "engine.ini"
    path.write_text("[store]\ndimension = 8\n", encoding="utf-8")
    engine = make_engine(cli._load_config(str(path)))
    assert type(engine.embedder) is RemoteEmbedder
    assert engine.embedder.endpoint == embed_server
    assert type(engine.backend) is StubChatBackend
    assert _EmbedHandler.requests_seen > 0


def test_remote_rejects_wrong_dimension(embed_server):
    client = RemoteEmbedder(embed_server, model="m", dimension=99, timeout_ms=5000)
    with pytest.raises(BackendError, match="dimension"):
        client.embed("hello")


def _remote_passages(n):
    # Text lengths vary, so the server's rows differ.
    return [Passage(id=f"p{i:03d}", text="word " * (1 + i % 5) + str(i)) for i in range(n)]


@pytest.mark.parametrize("n", [1, 32, 70, vectorstore.BUILD_BLOCK_ROWS + 40])
def test_a_remote_build_sends_one_list_request_per_block(embed_server, n):
    # A request carries at most 32 texts, whatever the build's block size.
    client = _remote(embed_server)
    passages = _remote_passages(n)
    store = build_index(passages, client)
    texts = [p.text for p in passages]
    assert _EmbedHandler.requests_seen == math.ceil(n / 32)
    assert _EmbedHandler.inputs == [texts[start : start + 32] for start in range(0, n, 32)]
    for passage in passages:
        assert stored_row(store, passage.id).tobytes() == client.embed(passage.text).tobytes()


def test_a_short_reply_inside_a_block_fails_the_build_and_sends_no_more(embed_server):
    # The second request of the first block answers 31 rows for 32 texts.
    assert vectorstore.BUILD_BLOCK_ROWS >= 3 * 32
    _EmbedHandler.shape = "short"
    _EmbedHandler.short_request = 2
    with pytest.raises(BackendError, match="expected 32 embeddings, got 31"):
        build_index(_remote_passages(vectorstore.BUILD_BLOCK_ROWS + 40), _remote(embed_server))
    assert _EmbedHandler.requests_seen == 2


def test_a_remote_block_is_read_in_index_order(embed_server):
    _EmbedHandler.shape = "reversed"
    client = _remote(embed_server)
    texts = ["a", "bb", "ccc"]
    block = _densify(client.embed_many(texts), len(texts), client.dimension)
    for row, text in zip(block, texts):
        assert row.tobytes() == client.embed(text).tobytes()


@pytest.mark.parametrize(
    "shape, message", [("short", "expected 32 embeddings, got 31"), ("nan", "non-finite")]
)
def test_a_bad_remote_block_fails_the_build(embed_server, monkeypatch, shape, message):
    monkeypatch.setattr(vectorstore, "BUILD_BLOCK_ROWS", 32)
    _EmbedHandler.shape = shape
    with pytest.raises(BackendError, match=message):
        build_index(_remote_passages(40), _remote(embed_server))
    # The first block fails and is not sent again.
    assert _EmbedHandler.requests_seen == 1


def test_an_endpoint_serving_token_counts_returns_the_local_bits(monkeypatch):
    """The hashed bag's integer count rows, sent as JSON through the remote
    parser, come back as embed_many's nonzeros bit for bit, and the two
    build the same index: an integer sum of squares is exact in any order,
    so np.linalg.norm and the bag's own norm agree."""
    local = HashedBagEmbedder()
    rng = np.random.default_rng(1)
    vocabulary = [f"w{i}" for i in range(400)]
    texts = [p.text for p in stored_passages(make_engine().store)] + [
        " ".join(rng.choice(vocabulary[: rng.integers(1, 400)], size=rng.integers(1, 600)))
        for _ in range(64)
    ]

    def counts(text):
        coordinates = [local._coordinate(token) for token in tokenize(text) or ("",)]
        return np.bincount(coordinates, minlength=local.dimension).tolist()

    def serve_counts(endpoint, body, timeout_s, role, parse):
        rows = [{"index": i, "embedding": counts(text)} for i, text in enumerate(body["input"])]
        return parse(json.loads(json.dumps({"data": rows})))

    monkeypatch.setattr(embeddings, "post_json", serve_counts)
    remote = RemoteEmbedder("http://unused", model="m", dimension=local.dimension)
    for got, expected in zip(remote.embed_many(texts), local.embed_many(texts)):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    passages = [Passage(id=f"p{i:03d}", text=text) for i, text in enumerate(texts)]
    built = (build_index(passages, provider)._index for provider in (remote, local))
    for got, expected in zip(*built):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_remote_requires_endpoint():
    with pytest.raises(ValueError):
        RemoteEmbedder("", model="m")
