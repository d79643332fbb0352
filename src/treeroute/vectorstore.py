"""Exact in-memory vector store over unit-norm embeddings.

The store keeps only the nonzero entries of its rows, one row per passage
in ascending passage id order, each value once as a float64, grouped by
column: for col_ptr[j] <= k < col_ptr[j + 1], values[k] is the entry of
row rows[k] in column j, rows ascending. For row_ptr[r] <= e <
row_ptr[r + 1], row r holds values[by_row[e]] in column columns[e],
columns ascending. In a dense block an entry counts as nonzero when any of
its bits is set, so a stored -0.0 keeps its sign. A hashed-bag passage has
a handful of nonzeros out of 768; a dense row of 768 costs 2.25 times its
dense bytes (per entry a float64, two int32 and a uint16).

build_index reads the provider's rows block by block: one embed_many call
per BUILD_BLOCK_ROWS passages (a remote provider splits the call into
requests of its own size), which returns the block's Nonzeros. A dense
matrix given to VectorStore is read in the same blocks, each through
embeddings.dense_nonzeros, so the build never holds a dense matrix, and
every block goes through the same checks. A block that is no Nonzeros, a
row or column out of range, arrays of unequal length, keys (row *
dimension + column) that do not strictly ascend, values that do not
convert to float64 or a value whose bits are all zero fails the build
with a ValueError naming its block's passages. Too few blocks fail it
naming the passages left without one, and too many saying that a block
falls past the last passage. A non-finite value fails it with a
ValueError naming its passage, so every stored row is finite.

Search, the pruning gate and dedup compute similarities with one ordered
fold, the only one in the engine (the gate reads a plain table of
embeddings into a store of its own first): for each nonzero coordinate j
of the query, in ascending order, add row r's entry in column j times
q[j] to r's sum, starting from zero. fold() returns that sum for every
row, unclamped. Only stored entries are read; a skipped one would add a
product of zero (stored rows and provider queries are finite), and adding
a zero never changes a sum that starts at +0.0. So the bits of a
similarity depend only on the two vectors, never on the BLAS build, the
thread split or a passage's row.

Search folds the query's columns over every row: all at once when the
stored entries under them number at most the row count (a hashed-bag
query), else column by column (a dense query on a dense store), so no
temporary outgrows the row count. All at once, each column's entries and
rows are read as one contiguous slice, the slices joined in ascending
column order, and one bincount folds them. Then it takes an exact
top-k of the scores clamped to [-1, 1] (the only clamp on a similarity,
since search scores reach the traces). Below n rows it first takes a
floor: the smallest of the maxima of k equal blocks of n // k rows,
capped at 1. Those maxima are k distinct rows at or above the floor, so
the k-th best clamped score is too, and only the rows at or above the
floor (every row, when the floor is -1 or below, or when k >= n) are
clamped and partitioned. The row index breaks ties, so results are
stable under re-indexing in any order.

The gate folds the original query over every row once per tree, with
fold(), and each node reads its candidates' similarities from that vector
at their rows(), so the root's gate similarities equal its hit scores
before the clamp. Dedup takes gram(), the fold similarity of every pair
of the given rows, in one bincount for hashed bags: its [i, j] has the
bits of fold(row j) at row i and equals its [j, i]. No dedup value
reaches the traces.

The store never changes after build_index(), so search memoizes its
result on the query vector's dtype, bytes and k in a functools.lru_cache
of SEARCH_CACHE_SIZE entries, read when the store is built: a repeated
query skips the fold and returns the same scores bit for bit, and
store._memo.cache_info() counts hits and misses. The cache wraps a
module-level function over the index and passages, never a bound method,
so it holds no reference back to the store and a dropped store is freed
at once, without waiting for the cycle collector. A hit is a ScoredPassage,
a typing.NamedTuple equal to the tuple (passage, score, source). Beyond
size and dimension, a store answers only rows(), fold(), gram() and search().
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingProvider, Nonzeros, dense_nonzeros

DEFAULT_SEARCH_K = 32
SEARCH_CACHE_SIZE = 1024
# Passages embedded by one embed_many call and read as one block during a
# build (a remote provider sends it as requests of
# embeddings.REMOTE_BATCH_TEXTS, which divides this size);
# each block's nonzeros become one chunk, so the build holds a few arrays
# per block, never a dense matrix or arrays per row. A sweep of
# perfbench/run.py --workload kb50k-standard-j2 --seed 1 --seconds 5
# (hashed-bag Nonzeros blocks through the piece table; a shared 2-core
# x86_64 host, Python 3.11; medians of 4 runs, 10 at 128-512):
#   rows      32     64    128    256    512   1024   2048
#   setup_s  0.258  0.269  0.205  0.206  0.191  0.182  0.178
#   RSS MB   84.8   84.0   84.0   84.1   84.3   84.8   86.3
# In-process builds of the same corpus took 185-204 ms at 128, 169-172 at
# 256, 155-158 at 512 and 155-173 at 1024, so 512 is the knee that keeps
# peak RSS below 32's.
BUILD_BLOCK_ROWS = 512


@dataclass(frozen=True)
class Passage:
    """One retrievable text with optional intent labels."""

    id: str
    text: str
    intent_labels: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("passage id must be nonempty")
        if not self.text:
            raise ValueError(f"passage {self.id}: text must be nonempty")


class ScoredPassage(NamedTuple):
    """A passage with a relevance score and the score's provenance."""

    passage: Passage
    score: float
    source: str = "cosine"


class _Index(NamedTuple):
    """The nonzero entries of a store's rows; the module docstring gives the layout."""

    values: np.ndarray  # float64, grouped by column
    rows: np.ndarray  # int32, the row of each value
    col_ptr: np.ndarray  # int64, dimension + 1 bounds into values
    by_row: np.ndarray  # int32 positions in values, grouped by row
    columns: np.ndarray  # the column of each by_row entry, in the smallest uint
    row_ptr: np.ndarray  # int64, row count + 1 bounds into by_row


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges starts[i]:starts[i] + lengths[i]."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def _fold(bins: np.ndarray, products: np.ndarray, n: int) -> np.ndarray:
    """Sum of each bin's products in input order, from zero, as float64."""
    # bincount adds each weight to its bin in input order; with no weights
    # at all it returns integers.
    return np.bincount(bins, weights=products, minlength=n).astype(np.float64, copy=False)


def _checked(block: Nonzeros, count: int, dimension: int) -> Nonzeros:
    """block with float64 values, or a ValueError if it is no Nonzeros of
    count rows and dimension columns whose every value has a bit set."""
    if not isinstance(block, Nonzeros):
        raise ValueError(f"embeddings are {type(block).__name__}, not Nonzeros")
    rows, columns = np.asarray(block.rows), np.asarray(block.columns)
    try:
        values = np.asarray(block.values, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ValueError(f"nonzeros values do not convert to float64: {error}") from None
    if not (rows.ndim == 1 and rows.shape == columns.shape == values.shape):
        raise ValueError("nonzeros arrays have unequal lengths")
    if rows.dtype.kind not in "iu" or columns.dtype.kind not in "iu":
        raise ValueError("nonzeros rows and columns are not integers")
    # A uint64 index past the intp range wraps negative, so it reads as out of range.
    rows, columns = rows.astype(np.intp, copy=False), columns.astype(np.intp, copy=False)
    try:
        keys = np.ravel_multi_index((rows, columns), (count, dimension))
    except ValueError:
        raise ValueError(
            f"nonzeros hold a row outside [0, {count}) or a column outside [0, {dimension})"
        ) from None
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError("nonzeros are not in strictly ascending row-major order")
    # dense_nonzeros drops an entry whose bits are all zero, so a Nonzeros
    # may not hold one: the same rows build the same index either way.
    if not values.view(np.uint64).all():
        raise ValueError("nonzeros hold a value whose bits are all zero")
    return Nonzeros(rows, columns, values)


def _nonzeros(
    passages: Sequence[Passage], blocks: Iterable[Nonzeros], dimension: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The rows' nonzero entries in row-major order: row_ptr, their columns
    in the smallest uint, and their values as one chunk per block of rows."""
    column_type = np.min_scalar_type(dimension - 1)
    row_ptr = np.zeros(len(passages) + 1, dtype=np.int64)
    column_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    starts = range(0, len(passages), BUILD_BLOCK_ROWS)
    for start, block in zip_longest(starts, blocks):
        if start is None:
            raise ValueError(
                f"{len(passages)} passages fill {len(starts)} blocks of {BUILD_BLOCK_ROWS} rows;"
                " a further block falls past the last passage"
            )
        chunk = passages[start : start + BUILD_BLOCK_ROWS]
        if block is None:
            raise ValueError(f"passages {chunk[0].id}..{passages[-1].id}: no block of embeddings")
        try:
            in_row, columns, values = _checked(block, len(chunk), dimension)
        except ValueError as error:
            raise ValueError(f"passages {chunk[0].id}..{chunk[-1].id}: {error}") from None
        counts = np.bincount(in_row, minlength=len(chunk))
        row_ptr[start + 1 : start + len(chunk) + 1] = row_ptr[start] + np.cumsum(counts)
        finite = np.isfinite(values)
        if not finite.all():
            passage = chunk[in_row[np.argmin(finite)]]
            raise ValueError(f"passage {passage.id}: embedding holds a non-finite value")
        column_chunks.append(columns.astype(column_type))
        value_chunks.append(values)
    return row_ptr, np.concatenate(column_chunks or [np.empty(0, column_type)]), value_chunks


def _blocks(rows: Sequence) -> Iterator:
    """rows in slices of BUILD_BLOCK_ROWS."""
    starts = range(0, len(rows), BUILD_BLOCK_ROWS)
    return (rows[start : start + BUILD_BLOCK_ROWS] for start in starts)


def _pack(
    passages: Sequence[Passage], blocks: Iterable[Nonzeros], dimension: int
) -> _Index:
    """Read blocks of BUILD_BLOCK_ROWS rows, one row per passage, into the sparse layout."""
    # Each block and its temporaries are freed before the next block is
    # read, and all of them before any index array is made.
    row_ptr, columns, value_chunks = _nonzeros(passages, blocks, dimension)
    col_ptr = np.zeros(dimension + 1, dtype=np.int64)
    np.cumsum(np.bincount(columns, minlength=dimension), out=col_ptr[1:])
    # A stable sort by column keeps each column's rows ascending.
    order = np.argsort(columns, kind="stable")
    by_row = np.empty(len(order), dtype=np.int32)
    by_row[order] = np.arange(len(order), dtype=np.int32)
    del order
    value_rows = np.empty(len(by_row), dtype=np.int32)
    value_rows[by_row] = np.repeat(np.arange(len(passages), dtype=np.int32), np.diff(row_ptr))
    values = np.empty(len(by_row))
    for start, chunk in zip(row_ptr[::BUILD_BLOCK_ROWS], value_chunks):
        values[by_row[start : start + len(chunk)]] = chunk
    index = _Index(values, value_rows, col_ptr, by_row, columns, row_ptr)
    for array in index:
        array.setflags(write=False)
    return index


class VectorStore:
    """Immutable passage index; build it once with build_index().

    Passages must be in strictly ascending id order, as build_index()
    leaves them: search breaks score ties by row index. matrix holds one
    row per passage, read in order and in blocks of BUILD_BLOCK_ROWS rows:
    a dense n x d array, read in slices through dense_nonzeros, or an
    iterable of such blocks' Nonzeros (the last may be shorter), given with
    their dimension. No dense copy is kept. A non-finite value raises
    ValueError naming its passage.
    """

    def __init__(
        self,
        passages: Sequence[Passage],
        matrix: np.ndarray | Iterable[Nonzeros],
        dimension: int | None = None,
    ):
        self._passages = tuple(passages)
        for before, after in zip(self._passages, self._passages[1:]):
            if not before.id < after.id:
                raise ValueError(
                    f"passage ids must ascend strictly: {before.id!r} before {after.id!r}"
                )
        if dimension is None:
            if matrix.ndim != 2 or len(matrix) != len(self._passages):
                raise ValueError(
                    f"matrix has shape {matrix.shape}, passages need {len(self._passages)} rows"
                )
            dimension = matrix.shape[1]
            blocks = map(dense_nonzeros, _blocks(matrix))
        else:
            blocks = matrix
        self._index = _pack(self._passages, blocks, dimension)
        self._row_by_id = {p.id: i for i, p in enumerate(self._passages)}
        # A batch's clients share one store. Two misses on the same key may
        # both scan; they cache equal results.
        self._memo = lru_cache(maxsize=SEARCH_CACHE_SIZE)(
            partial(_scan, self._index, self._passages)
        )

    @property
    def size(self) -> int:
        return len(self._passages)

    @property
    def dimension(self) -> int:
        return len(self._index.col_ptr) - 1

    def rows(self, passage_ids: Sequence[str]) -> np.ndarray:
        """The given passages' rows, in order; an unknown id raises KeyError."""
        return np.fromiter(
            map(self._row_by_id.__getitem__, passage_ids), dtype=np.intp, count=len(passage_ids)
        )

    def fold(self, vector: np.ndarray) -> np.ndarray:
        """Every row's unclamped fold similarity to vector, in row order, read-only.

        It is the fold search ranks by, so each value has the bits of the
        row's search score before the clamp.
        """
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"vector has shape {vector.shape}, store dimension is {self.dimension}"
            )
        scores = _column_fold(self._index, vector, self.size)
        scores.setflags(write=False)
        return scores

    def gram(self, passage_ids: Sequence[str]) -> np.ndarray:
        """The m x m unclamped fold similarities of the given passages to each other.

        [i, j] folds passage i's stored entries against row j, in ascending
        column order, with the bits of fold(row j) at passage i's row. It
        equals [j, i] bit for bit: only the columns the two rows share add
        a nonzero product, and a zero product never changes a sum that
        starts at +0.0. Ids may repeat.
        """
        index = self._index
        given = self.rows(passage_ids)
        starts = index.row_ptr[given]
        lengths = index.row_ptr[given + 1] - starts
        # Positions in by_row of their stored entries, by passage in the
        # given order and columns ascending.
        entries = _segments(starts, lengths)
        m = len(lengths)
        columns = index.columns[entries].astype(np.intp)
        values = index.values[index.by_row[entries]]
        owners = np.repeat(np.arange(m), lengths)
        # The given rows as columns, so one gather reads every row's entry
        # in a column.
        rows = np.zeros((self.dimension, m))
        rows[columns, owners] = values
        # A block of passages makes about m x dimension products, as many as
        # the rows hold: all passages at once for hashed bags, one at a time
        # for dense rows.
        step = max(1, m * self.dimension // max(len(entries), 1))
        bounds = [0, *np.cumsum(lengths).tolist()]
        gram = np.empty(m * m)
        for top in range(0, m, step):
            bottom = min(top + step, m)
            block = slice(bounds[top], bounds[bottom])
            products = rows[columns[block]]
            products *= values[block, None]
            bins = (owners[block, None] - top) * m + np.arange(m)
            gram[top * m : bottom * m] = _fold(bins.ravel(), products.ravel(), (bottom - top) * m)
        return gram.reshape(m, m)

    def search(self, query_embedding: np.ndarray, k: int = DEFAULT_SEARCH_K) -> list[ScoredPassage]:
        """Top-k passages by cosine, ties broken by ascending passage id.

        A query vector and k seen before get the memoized hits in a new list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if query_embedding.shape != (self.dimension,):
            raise ValueError(
                f"query embedding has shape {query_embedding.shape}, "
                f"store dimension is {self.dimension}"
            )
        if not self._passages:
            return []
        # The shape check above makes the bytes and dtype a faithful key.
        return list(self._memo(query_embedding.dtype.str, query_embedding.tobytes(), k))


def _column_fold(index: _Index, vector: np.ndarray, n: int) -> np.ndarray:
    """Every row's unclamped fold similarity to vector; no temporary exceeds n entries."""
    columns = np.flatnonzero(vector)
    starts = index.col_ptr[columns]
    ends = index.col_ptr[columns + 1]
    lengths = ends - starts
    if len(columns) and int(lengths.sum()) <= n:
        # Few stored entries under the query, as for a hashed bag: fold
        # them all at once, each column read as one contiguous slice. A
        # query with no nonzero column has no slice to join; the loop below
        # leaves its scores at zero.
        spans = [slice(start, end) for start, end in zip(starts.tolist(), ends.tolist())]
        products = np.concatenate([index.values[span] for span in spans])
        products *= np.repeat(vector[columns], lengths)
        return _fold(np.concatenate([index.rows[span] for span in spans]), products, n)
    # Many entries, as for a dense query: add one column at a time. A
    # column's rows are distinct, and a full column holds every row in order.
    scores = np.zeros(n)
    buffer = np.empty(n)
    for j, start, length in zip(columns.tolist(), starts.tolist(), lengths.tolist()):
        term = np.multiply(index.values[start : start + length], vector[j], out=buffer[:length])
        if length == n:
            scores += term
        else:
            scores[index.rows[start : start + length]] += term
    return scores


def _scan(
    index: _Index, passages: tuple[Passage, ...], dtype: str, data: bytes, k: int
) -> tuple[ScoredPassage, ...]:
    n = len(passages)
    scores = _column_fold(index, np.frombuffer(data, dtype), n)
    # The k block maxima are k distinct rows at or above the floor, so the
    # k-th score is too: only rows at or above it can place. Clamped, every
    # score above 1 ties at 1, and every row ties at -1 with a floor of -1.
    floor = min(scores[: n - n % k].reshape(k, -1).max(axis=1).min(), 1.0) if k < n else -1.0
    pool = np.flatnonzero(scores >= floor) if floor > -1.0 else np.arange(n)
    pooled = np.clip(scores[pool], -1.0, 1.0)
    # Every row tied with the k-th score competes for the last places.
    last = max(len(pool) - k, 0)
    kept = pooled >= np.partition(pooled, last)[last]
    pool, pooled = pool[kept], pooled[kept]
    order = np.lexsort((pool, -pooled))[:k]
    ranked = map(passages.__getitem__, pool[order].tolist())
    return tuple(map(ScoredPassage, ranked, pooled[order].tolist()))


def build_index(passages: Iterable[Passage], provider: EmbeddingProvider) -> VectorStore:
    """Embed and index passages; rejects duplicate ids and non-finite rows by name.

    Passages are sorted by id before embedding so the resulting store is
    identical regardless of input order. Each passage is embedded once, in
    one embed_many call per block of BUILD_BLOCK_ROWS passages, and only
    its nonzeros are kept.
    """
    ordered = sorted(passages, key=lambda p: p.id)
    blocks = (provider.embed_many([p.text for p in chunk]) for chunk in _blocks(ordered))
    return VectorStore(ordered, blocks, provider.dimension)
