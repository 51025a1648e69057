"""Embedding providers and an exact flat dense index.

Similarity is the dot product of float32 embedding vectors. Search is
exact: every row is scored, and the top k come in descending score order
with ties broken by ascending document id. The ids are always those of one
float32 mat-vec per query, `select_topk(matrix @ q, k)`.

A block of queries is scored with one GEMM, whose rows can differ from that
mat-vec in the last bits. Higham's bound (*Accuracy and Stability of
Numerical Algorithms*, 3.1) puts either computed dot product within
`gamma_d * |m| * |q|` of the exact one, for any summation order, with or
without FMA, where `gamma_d = d*u / (1 - d*u)` and `u = 2**-24`. So the GEMM
and mat-vec scores of one row differ by at most twice that. When every gap
between a query's k+1 best GEMM scores exceeds twice that difference, the
mat-vec ranks the same k rows first, in the same order, with no ties, and
the GEMM order is kept. Any other query (ties, near ties, non-finite
scores) is scored again with its own mat-vec.

`embed` calls a provider on EMBED_BLOCK texts at a time and copies each
block into one float32 matrix, so embedding a corpus holds the matrix and
one block's vectors, never a vector object per document. Providers:

* HttpEmbedder  - POST {endpoint}/v1/embeddings {"texts": [s]} -> {"vectors": [[f]]}
* FileEmbedder  - precomputed JSONL of {"text": s, "vector": [f]}, exact-text keyed
* HashEmbedder  - deterministic bag-of-token random projections (for tests/mocks)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from .httpjson import JsonSession, post_with_retries
from .jsonl import STRING, InputError, read_numbered_rows
from .metrics import word_tokens


class EmbeddingError(RuntimeError):
    """Embedding lookup or endpoint failure."""


class EmbeddingFileError(EmbeddingError, InputError):
    """A line of an embedding file is bad."""


class EmbeddingShapeError(EmbeddingError, ValueError):
    """A provider's vectors are not all one length, so they form no matrix."""


class EmbeddingProvider(Protocol):
    def __call__(self, texts: list[str]) -> list[np.ndarray]: ...


# Texts per client call, in `embed` and `per_distinct_text` alike. Over HTTP,
# 256-text blocks raised the client's peak RSS where 64 did not, and 64
# already removes almost every call.
EMBED_BLOCK = 64


# The most bytes of a block's scores that `search` copies and partitions at
# once. The scores stay one (rows, n) buffer, so the GEMM keeps whole blocks
# (smaller GEMMs were much slower on wide indexes); only the partition's copy
# is bounded, which keeps a second full-size buffer out of peak RSS. An index
# of at most 2,048 docs still partitions a 64-row block at once.
_PARTITION_BYTES = 512 * 1024


# float32's unit roundoff, and its smallest normal number: an absolute
# d * _TINY per dot product covers products that underflow
_UNIT_ROUNDOFF = 2.0 ** -24
_TINY = float(np.finfo(np.float32).tiny)


def _gamma(d: int) -> float:
    """Higham's gamma_d in float32: the relative error bound of a d-term dot product."""
    du = d * _UNIT_ROUNDOFF
    return du / (1.0 - du) if du < 1.0 else math.inf


@dataclass(frozen=True)
class FlatIndex:
    doc_ids: tuple[str, ...]
    matrix: np.ndarray  # float32, one row per doc, sorted by doc id
    dim: int
    _scratch: list[np.ndarray] = field(default_factory=list, init=False, repr=False,
                                       compare=False)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def _block_scratch(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """A float32 (rows, n) buffer for a block's GEMM scores, and a float32
        buffer of at most _PARTITION_BYTES (one row if a row is larger, and
        no more rows than the block) that `search` partitions the scores in,
        a sub-block at a time. Both are kept with the index and grown to the
        largest block so far, so a block search allocates no temporaries of
        that size, which the allocator would unmap and fault in again on
        every block."""
        n = len(self)
        part_rows = min(rows, max(1, _PARTITION_BYTES // (4 * n)))
        if not self._scratch:
            self._scratch[:] = [np.empty((0, n), dtype=np.float32)] * 2
        if len(self._scratch[0]) < rows:
            self._scratch[0] = np.empty((rows, n), dtype=np.float32)
        if len(self._scratch[1]) < part_rows:
            self._scratch[1] = np.empty((part_rows, n), dtype=np.float32)
        return self._scratch[0][:rows], self._scratch[1][:part_rows]

    @cached_property
    def row_norm_bound(self) -> float:
        """An upper bound on the largest row norm, computed once per index.

        The sums of squares are float32 (`einsum`, no float64 copy of the
        matrix). Each is at least `1 - gamma_d` of the exact sum, less
        `d * tiny` for squares that underflow, so undoing both bounds the
        exact norm from above.
        """
        squares = float(np.einsum("ij,ij->i", self.matrix, self.matrix).max())
        return math.sqrt((squares + self.dim * _TINY) / (1.0 - _gamma(self.dim)))


class HashEmbedder:
    """Deterministic embeddings from token-level random projections.

    Each distinct lowercase word token (`metrics.word_tokens`) maps to a
    fixed unit gaussian vector seeded by its sha256; a text embeds as the
    L2-normalized sum over its distinct tokens, added in sorted token order.
    Token overlap with a document then drives the dot product, which is what
    makes this mock useful for retrieval fixtures.

    The token vectors live in one float32 table, a row per distinct token
    seen so far (4 * dim bytes each). A call appends a row for each token it
    has not seen, resizing the table in place, and sums its block's texts
    together: with the texts ordered longest first, the texts that have a
    token at a position are a prefix of the block, and one gather and one
    add per position add that token's rows to them. Each text thus adds its
    rows one after another from zeros, as a loop of `vec += row` would, so
    its vector never depends on which texts came before it or share its
    block. Calls are single-threaded: one instance must not be called from
    two threads at once.
    """

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._rows: dict[str, int] = {}
        self._table = np.empty((0, dim), dtype=np.float32)

    def _add_tokens(self, tokens: list[str]) -> None:
        start, stop = len(self._rows), len(self._rows) + len(tokens)
        # in place: a large table is remapped rather than copied, and no
        # view of it outlives a call
        self._table.resize((stop, self.dim), refcheck=False)
        draw = np.empty(self.dim)  # one token's float64 draw, cast into its row
        for row, token in enumerate(tokens, start):
            seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
            np.random.default_rng(seed).standard_normal(out=draw)
            self._table[row] = draw
            self._rows[token] = row
        new = self._table[start:stop]
        new /= _norms(new)[:, None]

    def __call__(self, texts: list[str]) -> list[np.ndarray]:
        token_lists = [sorted(set(map(str.lower, word_tokens(text)))) for text in texts]
        rows = self._rows
        unseen = set().union(*token_lists).difference(rows)
        if unseen:
            self._add_tokens(sorted(unseen))
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(texts))
        order = np.argsort(-lengths, kind="stable")  # longest first
        # (position, text in `order`) -> the row of that text's token there
        present = np.arange(lengths.max(initial=0))[:, None] < lengths[order]
        index = np.zeros(present.shape, dtype=np.intp)
        index.T[present.T] = [rows[t] for i in order.tolist() for t in token_lists[i]]
        sums = np.zeros((len(texts), self.dim), dtype=np.float32)  # zeros for no tokens
        for position, count in enumerate(present.sum(axis=1).tolist()):
            sums[:count] += self._table[index[position, :count]]
        norms = _norms(sums)[:, None]
        vecs = np.empty_like(sums)
        vecs[order] = np.divide(sums, norms, out=sums, where=norms > 0)
        return list(vecs)


def _norms(matrix: np.ndarray) -> np.ndarray:
    """Each row's float32 L2 norm, bit for bit `np.linalg.norm(row)`:
    `sqrt(row.dot(row))`, one BLAS dot per row."""
    return np.sqrt(np.array([row.dot(row) for row in matrix], dtype=np.float32))


class FileEmbedder:
    """Precomputed embeddings keyed by exact text.

    A bad line, a text that is not a string, or a vector that is not a list
    of numbers finite in float32 (the check `HttpEmbedder` makes) raises
    EmbeddingFileError naming `<path>:<line>` as the file loads; a text
    the file lacks raises EmbeddingFileError naming `<path>` when it is
    asked for.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self.table = {}
        fields = {"text": STRING, "vector": None}
        for line, row in read_numbered_rows(path, EmbeddingFileError, fields):
            if (vec := _float32_vector(row["vector"])) is None:
                raise EmbeddingFileError(
                    f"{path}:{line}: vector {row['vector']!r} is not a list of finite numbers"
                )
            self.table[row["text"]] = vec

    def __call__(self, texts: list[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            vec = self.table.get(text)
            if vec is None:
                raise EmbeddingFileError(
                    f"{self.path}: no precomputed embedding for text: {text[:60]!r}"
                )
            out.append(vec)
        return out


class HttpEmbedder:
    """Client for the /v1/embeddings wire protocol."""

    def __init__(self, endpoint: str, timeout: float = 60.0, session=None):
        self.session = session or JsonSession(endpoint, timeout)

    def __call__(self, texts: list[str]) -> list[np.ndarray]:
        payload = post_with_retries(
            self.session, "/v1/embeddings", {"texts": texts}, EmbeddingError
        )
        vectors = payload.get("vectors") if isinstance(payload, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbeddingError(f"bad embedding payload for {len(texts)} texts")
        out = [_float32_vector(v) for v in vectors]
        if any(v is None for v in out):
            raise EmbeddingError(
                f"bad embedding payload for {len(texts)} texts: an entry is not a finite number"
            )
        return out


def _float32_vector(entries) -> np.ndarray | None:
    """A JSON list of numbers as a float32 vector, or None when it is not one:
    a string, null or list entry, a number outside float32's finite range (or
    an integer of more than 64 bits), or a list of booleans."""
    if not isinstance(entries, list):
        return None
    try:
        vec = np.array(entries)
    except ValueError:  # lists of unequal lengths
        return None
    if vec.ndim != 1 or vec.dtype.kind not in "iuf":
        return None
    with np.errstate(over="ignore"):
        vec = vec.astype(np.float32)
    return vec if np.isfinite(vec).all() else None


def per_distinct_text(client, texts: Iterable[str]) -> dict:
    """`client`'s result for each distinct text, keyed by text in first-seen order.

    `client` takes a list of texts and returns one result per text; it is
    called on EMBED_BLOCK distinct texts at a time. A result count other than
    the block's raises ValueError. Client errors propagate: an outage is not
    an empty result.
    """
    distinct = list(dict.fromkeys(texts))
    results: dict = {}
    for start in range(0, len(distinct), EMBED_BLOCK):
        block = distinct[start:start + EMBED_BLOCK]
        results.update(zip(block, client(block), strict=True))
    return results


def embed(provider: EmbeddingProvider, texts: Sequence[str]) -> np.ndarray:
    """One float32 row per text, order preserved.

    The provider is called on EMBED_BLOCK texts at a time, and each block is
    copied into the matrix, so a row never depends on the block size as long
    as the provider's vectors do not. A wrong vector count raises
    EmbeddingError, and vectors of mixed dimensions within or across blocks
    raise EmbeddingShapeError (an EmbeddingError and a ValueError, like
    `search`'s shape errors). Provider errors propagate; no partial matrix is
    returned.
    """
    if not texts:
        raise ValueError("texts must be non-empty")
    matrix = None
    for start in range(0, len(texts), EMBED_BLOCK):
        block = list(texts[start:start + EMBED_BLOCK])
        vectors = provider(block)
        if len(vectors) != len(block):
            raise EmbeddingError("provider returned the wrong number of vectors")
        dims = {np.shape(v) for v in vectors}
        if matrix is not None:
            dims.add(matrix.shape[1:])
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise EmbeddingShapeError(
                f"texts {start}-{start + len(block) - 1}: embedding dims {sorted(dims)}"
            )
        if matrix is None:
            matrix = np.empty((len(texts), *dims.pop()), dtype=np.float32)
        matrix[start:start + len(block)] = vectors
    return matrix


def build_flat_index(doc_ids: Sequence[str], vectors) -> FlatIndex:
    """Assemble an immutable flat index; rows are sorted by document id.

    `vectors` is the float32 matrix `embed` returns, taken as it is and made
    read-only, or a list of equal-length vectors. Rows are reordered (one
    copy) only when `doc_ids` are not already sorted. Sorting makes the
    search tie-break (ascending doc id) fall out of positional order, so
    top-k selection never compares id strings.
    """
    if len(doc_ids) != len(vectors):
        raise ValueError(f"{len(doc_ids)} ids but {len(vectors)} vectors")
    if not doc_ids:
        raise ValueError("cannot build an empty index")
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("duplicate doc ids in index")
    if not isinstance(vectors, np.ndarray):
        dims = {int(np.asarray(v).shape[0]) for v in vectors}
        if len(dims) != 1:
            raise ValueError(f"mixed embedding dims: {sorted(dims)}")
    matrix = np.asarray(vectors, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError(f"embeddings must form a matrix, got shape {matrix.shape}")
    ids = tuple(doc_ids)
    if any(a > b for a, b in zip(ids, ids[1:])):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        matrix = matrix[order]
        ids = tuple(ids[i] for i in order)
    if not np.isfinite(matrix).all():
        raise ValueError("embeddings must be finite")
    matrix.setflags(write=False)
    return FlatIndex(doc_ids=ids, matrix=matrix, dim=matrix.shape[1])


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k best scores (desc score, asc index on ties).

    The order of a stable `argsort(-scores)[:k]`, without sorting every row:
    `np.partition` finds the k-th best score, and only the rows at or above
    it are sorted. Scores must be finite (`search` rejects non-finite
    queries).
    """
    n = scores.shape[0]
    m = min(k, n)
    kth = np.partition(scores, n - m)[n - m]
    rows = np.flatnonzero(scores >= kth)
    return rows[np.lexsort((rows, -scores[rows]))][:m]


def search(index: FlatIndex, queries, k: int) -> list[tuple[str, ...]]:
    """Top-k doc ids for each query vector of a block, in block order.

    `queries` holds one vector per row, as `embed` returns them. Each
    query's ids and their order are exactly `select_topk(index.matrix @ q,
    k)`: descending score, ties by ascending doc id. A one-row block runs
    that mat-vec. A larger block is scored with one GEMM, and a query keeps
    the GEMM order only when every gap between its k+1 best GEMM scores
    exceeds `4 * gamma_d * |q| * max|m|`, inflated for the float64 rounding
    of that margin and for underflow, which certifies the mat-vec's top k
    and order (see the module docstring). A query with a smaller gap, a
    tie, a non-finite score or a norm product near float32 overflow is
    scored by its own mat-vec. Raises ValueError for a block of the wrong
    dimension or with a non-finite entry.

    A larger block is scored into the index's scratch buffers
    (`FlatIndex._block_scratch`), so one index must not be searched from two
    threads at once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    block = np.asarray(queries, dtype=np.float32)
    if block.ndim != 2 or block.shape[1] != index.dim:
        raise ValueError(f"query block shape {block.shape} does not match index dim {index.dim}")
    if not np.isfinite(block).all():
        raise ValueError("query vectors must be finite")
    ids = index.doc_ids
    if len(block) == 1:
        return [tuple(ids[i] for i in select_topk(index.matrix @ block[0], k))]

    n = len(index)
    kept, ranked = min(k, n), min(k + 1, n)
    scores, work = index._block_scratch(len(block))
    np.matmul(block, index.matrix.T, out=scores)
    # each query's k+1 best GEMM scores, ascending, partitioned in `work` a
    # sub-block at a time
    top = np.empty((len(block), ranked), dtype=np.float32)
    for start in range(0, len(block), len(work)):
        sub = scores[start:start + len(work)]
        part = work[:len(sub)]
        np.copyto(part, sub)
        part.partition(n - ranked, axis=1)
        top[start:start + len(sub)] = part[:, n - ranked:]
    top.sort(axis=1)
    gaps = np.diff(top.astype(np.float64), axis=1)
    scale = np.sqrt(np.einsum("ij,ij->i", block, block, dtype=np.float64)) * index.row_norm_bound
    # 1 + 2**-20 covers the float64 rounding of the norms, the margin and the gaps
    margin = 4.0 * (_gamma(index.dim) * scale + index.dim * _TINY) * (1.0 + 2.0 ** -20)
    # below 2**126 no partial sum of either product can overflow, so the bound holds
    certified = ((gaps > margin[:, None]).all(axis=1) & np.isfinite(top).all(axis=1)
                 & (scale < 2.0 ** 126))
    out = []
    for q, row_scores, kth, ok in zip(block, scores, top[:, ranked - kept], certified):
        if ok:
            rows = np.flatnonzero(row_scores >= kth)
            rows = rows[np.argsort(row_scores[rows])[::-1]]
        else:
            rows = select_topk(index.matrix @ q, k)
        out.append(tuple(ids[i] for i in rows))
    return out
