"""Embedding providers.

Two providers implement the same contract: embed(text) maps one text to a
read-only unit-norm float64 vector of a fixed dimension, and
embed_many(texts) maps a block of texts to its rows in one of two shapes:
a read-only float64 array of len(texts) x dimension, or a Nonzeros, the
block's nonzero entries in row-major order. Either way row i has the bits
of embed(texts[i]). A query takes embed; build_index takes embed_many, one
block of vectorstore.BUILD_BLOCK_ROWS passages at a time. The engine
compares vectors only through the vector store's fold.

The hashed bag-of-tokens provider is fully deterministic and needs no
network; its vector is a pure function of the text. Its embed_many returns
a Nonzeros, a handful of entries per row, so a build never fills a dense
block. Both embed and embed_many read the lowercased text's whitespace
pieces through one bounded table of TOKEN_TABLE_SIZE entries: piece ->
the coordinate of its token (signals.piece_token, the rule tokenize
applies piece by piece), or NO_TOKEN when it has none; never a vector. A
piece seen before skips both the token rule and its SHA-256. A token is
its own piece, so the table gives each token its coordinate, and "" the
empty bag's. The vector store memoizes repeated searches. The remote
provider calls an HTTP embedding endpoint with one request shape, a list
input: embed is embed_many of a one-text list, and embed_many sends its
texts in requests of at most REMOTE_BATCH_TEXTS and returns one dense
block. Every vector returned by a provider is L2-normalized, which the
vector store relies on.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache, partial
from typing import NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from .backends import post_json, waiting
from .errors import BackendError
from .signals import piece_token

DEFAULT_DIMENSION = 768
# Distinct whitespace pieces whose coordinate one hashed-bag embedder
# remembers; read when the embedder is made.
TOKEN_TABLE_SIZE = 65_536
# What the piece table holds for a piece with no token.
NO_TOKEN = -1
# The remote wire's batch size: the most texts one embedding request
# carries. vectorstore.BUILD_BLOCK_ROWS is a multiple of it, so a remote
# build of n passages sends ceil(n / 32) requests.
REMOTE_BATCH_TEXTS = 32


class Nonzeros(NamedTuple):
    """A block's nonzero entries in row-major order, columns ascending within
    a row. Every value has a bit set: a +0.0 is no entry, as in a dense block."""

    rows: np.ndarray  # each entry's row within the block
    columns: np.ndarray
    values: np.ndarray  # float64


@runtime_checkable
class EmbeddingProvider(Protocol):
    """Anything that can turn text into a unit-norm vector, one text or a block.

    embed_many returns a dense len(texts) x dimension block or the block's
    Nonzeros; row i has the bits of embed(texts[i]) either way.
    """

    dimension: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray | Nonzeros: ...


class HashedBagEmbedder:
    """Deterministic token-bag embedding for offline runs and tests.

    Each token is hashed, together with the seed, onto one coordinate and
    contributes a unit of mass there; the accumulated vector is then
    L2-normalized. Contributions are non-negative, so cosine similarity
    between any two texts is in [0, 1] and grows with token overlap.

    Worker threads may share one embedder: the piece table is a
    functools.lru_cache, which is thread-safe. It wraps a partial over a
    module-level function, not a bound method, so it holds no reference
    back to the embedder.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 0):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self._coordinate = lru_cache(maxsize=TOKEN_TABLE_SIZE)(
            partial(_piece_coordinate, seed, dimension)
        )

    def embed(self, text: str) -> np.ndarray:
        coordinates = [c for c in map(self._coordinate, text.lower().split()) if c != NO_TOKEN]
        # An empty token bag still has to produce a unit vector.
        counts = np.bincount(coordinates or [self._coordinate("")], minlength=self.dimension)
        # Integer counts give an exact squared norm, so this is the float
        # vector divided by its np.linalg.norm, bit for bit.
        vector = counts / math.sqrt(counts @ counts)
        vector.setflags(write=False)
        return vector

    def embed_many(self, texts: Sequence[str]) -> Nonzeros:
        # Each text's pieces are dropped once looked up, so a block never
        # holds its pieces' strings at once.
        coordinates: list[int] = []
        lengths = []
        for text in texts:
            pieces = text.lower().split()
            coordinates += map(self._coordinate, pieces)
            lengths.append(len(pieces))
        coordinates = np.array(coordinates, dtype=np.intp)
        rows = np.repeat(np.arange(len(texts)), lengths)
        found = coordinates != NO_TOKEN
        rows = rows[found]
        # An empty token bag still has to produce a unit vector.
        empty = np.flatnonzero(np.bincount(rows, minlength=len(texts)) == 0)
        blank = empty * self.dimension + self._coordinate("")
        keys = np.concatenate((rows * self.dimension + coordinates[found], blank))
        # Sorted distinct keys are the block's nonzeros in row-major order.
        keys, counts = np.unique(keys, return_counts=True)
        rows, columns = np.divmod(keys, self.dimension)
        # Each row's sum of squares is an exact integer, as in embed, so
        # each value gets embed's bits.
        norms = np.sqrt(np.bincount(rows, weights=counts * counts))
        nonzeros = Nonzeros(rows, columns, counts / norms[rows])
        for array in nonzeros:
            array.setflags(write=False)
        return nonzeros


def _piece_coordinate(seed: int, dimension: int, piece: str) -> int:
    """The coordinate of piece's token, or NO_TOKEN when it has none; the
    empty bag's "" gets its own coordinate."""
    token = piece_token(piece) if piece else ""
    return NO_TOKEN if token is None else _token_coordinate(seed, dimension, token)


def _token_coordinate(seed: int, dimension: int, token: str) -> int:
    """The coordinate a hashed-bag embedder with this seed gives token."""
    digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


class RemoteEmbedder:
    """Embedding client for an HTTP endpoint; retries a transient failure once.

    embed_many sends {"model", "input": [text, ...]} and reads
    {"data": [{"index": i, "embedding": [...]}, ...]}, one entry per text
    in any order; a wrong count or a missing index fails the whole call.
    embed_many sends REMOTE_BATCH_TEXTS texts a request, in order, and
    stops at the first failed one; embed sends the request for a one-text
    list.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        dimension: int = DEFAULT_DIMENSION,
        timeout_ms: int = 30_000,
    ):
        if not endpoint:
            raise ValueError("remote embedding provider requires an endpoint")
        self.endpoint = endpoint
        self.model = model
        self.dimension = dimension
        self.timeout_s = timeout_ms / 1000.0

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One request per REMOTE_BATCH_TEXTS texts, sent in order; the first
        failed request fails the whole call."""
        starts = range(0, len(texts), REMOTE_BATCH_TEXTS)
        blocks = [self._request(texts[start : start + REMOTE_BATCH_TEXTS]) for start in starts]
        block = np.concatenate(blocks or [np.empty((0, self.dimension))])
        block.setflags(write=False)
        return block

    def _request(self, texts: Sequence[str]) -> np.ndarray:
        body = {"model": self.model, "input": list(texts)}
        parse = partial(self._to_block, len(texts))
        with waiting():
            return post_json(self.endpoint, body, self.timeout_s, "embedding", parse)

    def _to_block(self, count: int, data: object) -> np.ndarray:
        """A reply's count embeddings in index order, each checked by _unit."""
        items = data.get("data") if isinstance(data, dict) else None
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise BackendError("embedding", "unrecognized response shape")
        if len(items) != count:
            raise BackendError("embedding", f"expected {count} embeddings, got {len(items)}")
        # A bool is no index, though Python counts True as 1.
        by_index = {
            item["index"]: item.get("embedding")
            for item in items
            if type(item.get("index")) is int
        }
        block = np.empty((count, self.dimension))
        for row in range(count):
            values = by_index.get(row)
            if not isinstance(values, list):
                raise BackendError("embedding", f"no embedding with index {row}")
            block[row] = self._unit(values)
        block.setflags(write=False)
        return block

    def _unit(self, values: list) -> np.ndarray:
        """values as a float64 vector of the provider's dimension, divided by its norm."""
        # Only a JSON number is a coordinate: a string, bool, null, list or
        # object fails with a ValueError, which post_json retries once.
        if not all(type(value) in (int, float) for value in values):
            raise ValueError("embedding holds a non-number")
        try:
            vector = np.asarray(values, dtype=np.float64)
        except OverflowError:
            # An integer past float64's range, as 1e400 parses to inf.
            raise BackendError("embedding", "endpoint returned a vector with a non-finite norm")
        if vector.shape != (self.dimension,):
            raise BackendError(
                "embedding",
                f"expected dimension {self.dimension}, got {vector.shape}",
            )
        norm = float(np.linalg.norm(vector))
        # NaN and inf entries, and finite ones that overflow, make the norm
        # non-finite; search would rank such a vector in no defined order.
        if not np.isfinite(norm):
            raise BackendError(
                "embedding", "endpoint returned a vector with a non-finite norm"
            )
        if norm == 0.0:
            raise BackendError("embedding", "endpoint returned a zero vector")
        return vector / norm

