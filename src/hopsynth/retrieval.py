"""Embedding providers and an exact flat dense index.

Similarity is the dot product of float32 embedding vectors. Search is
exact: every row is scored, and the top k come in descending score order
with ties broken by ascending document id. The ids are always those of one
float32 mat-vec per query, `select_topk(matrix @ q, k)`.

A block of queries is scored with one GEMM, `M @ Q.T` into an (n, rows)
buffer, whose scores can differ from that mat-vec in the last bits.
Higham's bound (*Accuracy and Stability of Numerical Algorithms*, 3.1)
puts a float32 dot product of a row m and a query q within
`b_m = gamma_d * sum_i |m_i| |q_i| + d * tiny` of the exact one, for any
summation order, with or without FMA, where `gamma_d = d*u / (1 - d*u)`,
`u = 2**-24` and `d * tiny` covers products that underflow; the sum is at
most `|m| * |q|`, so `b_m <= spread / 2` with `spread = 2 * (gamma_d *
|q| * max|m| + d * tiny)`. The bound holds for the mat-vec and for the
GEMM alike, whatever order and blocking the BLAS uses, so it does not
depend on the GEMM's orientation. A query is certified in two steps:

* Global margin. Every gap between its k+1 best GEMM scores exceeds
  `2 * spread`: each side of a gap moves by at most `spread` from GEMM to
  mat-vec, so the mat-vec ranks the same k rows first, in the same order,
  with no ties, and the GEMM order is kept. Most queries pass this; it
  needs nothing but the GEMM scores.
* Exact candidates. Otherwise its K = k + _SPARE best GEMM rows are scored
  exactly: the products of float32 values are exact in float64 (48 of 53
  significand bits, far from float64's range limits), and their float64
  sum lies within `d * 2**-53 * sum_i |m_i| |q_i|` of the exact dot
  product, below `2**-29 * b_m`; the bounds, gaps and the `|q| * max|m|`
  bound are float64 sums and products a few `2**-53` off. Inflating every
  bound by `1 + 2**-20` covers all of it, so a float64 score is treated as
  exact. Ordered by exact score, descending, ties to the lower row, the
  candidates certify the mat-vec's top k when
  (i) each gap between consecutive exact scores among the first k exceeds
  `b_a + b_b`, so their mat-vec scores keep that strict order;
  (ii) the k-th exact score minus `b_k` exceeds every other candidate's
  exact score plus its `b`; and
  (iii) it also exceeds the K-th best GEMM score plus `spread`. A row
  outside the candidates has a GEMM score no higher than the K-th, and its
  mat-vec score lies within `2 * b_m <= spread` of its GEMM score (each is
  within `b_m` of the exact one), so (iii) puts every such row below the
  k-th in the mat-vec. (iii) compares with GEMM scores only through the
  bound, so it holds under any GEMM orientation.

Any other query (exact ties, near ties, a norm product near float32
overflow) is scored again with its own mat-vec, `select_topk(M @ q, k)`.

A block's K best GEMM scores per query are found without sorting or
partitioning its scores (`_best_columns`). Row j of the (n, rows) buffer
is in class `j mod C`, with `C = min(n, max(_CLASSES, K))`; one max over
the leading axis of the buffer's full slabs of C rows gives each class's
maximum per query, and a query's floor is its K-th largest class maximum.
At least K of its scores reach the floor, so each of its K best does, and
only the rows of classes whose maximum reaches the floor, and the rows
after the last full slab, are compared with it. The scores that reach it,
about K per query, are sorted, so the K best and their rows, ties to the
lower row, are exactly a stable argsort's.

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

from .httpjson import ENCODER, JsonSession, post_with_retries
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


# The fewest column classes `search` selects a block's scores by (see the
# module docstring). The class maxima cost one pass over the scores, and a
# query's K chosen classes hold about K * n / C rows to compare with its
# floor: a few hundred at k = 7 on 2,000 to 16,000 docs.
_CLASSES = 128

# Candidates beyond the k-th that the exact rule scores, K = k + _SPARE. On
# 67,907 verify queries at 16,000 docs and k = 7, K = k + 1 left 3.61% to
# their own mat-vec, k + 5 2.82% and k + 17 no fewer.
_SPARE = 5


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

    def _block_scratch(self, rows: int) -> np.ndarray:
        """A float32 (n, rows) view for a block's GEMM scores.

        The view's memory is one flat buffer kept with the index and grown
        to the largest n * rows so far, so a smaller block reuses it and a
        block search allocates no temporary of that size, which the
        allocator would unmap and fault in again on every block."""
        size = len(self) * rows
        if not self._scratch or self._scratch[0].size < size:
            self._scratch[:] = [np.empty(size, dtype=np.float32)]
        return self._scratch[0][:size].reshape(len(self), rows)

    @cached_property
    def id_array(self) -> np.ndarray:
        """`doc_ids` as an object array, so a block's ids are one fancy index."""
        return np.array(self.doc_ids, dtype=object)

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

    A token's vector is `np.random.default_rng(seed).standard_normal(dim)`
    for its seed, normalized. A call derives the generator states of all its
    new tokens together (`_seed_words`, `_pcg64_state`) and draws each from
    one reused `PCG64` and `Generator`, which skips seeding a generator per
    token; each call first checks the derivation against NumPy's own
    `PCG64(seed).state` for a fixed seed, and raises RuntimeError if they
    differ, so a NumPy that seeds differently fails rather than embeds
    differently.

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
        # each token's seed, then the fixed seed the derivation is checked on
        digests = b"".join(hashlib.sha256(t.encode("utf-8")).digest()[:8] for t in tokens)
        words = _seed_words(np.frombuffer(digests + _CHECK_SEED.to_bytes(8, "big"), dtype=">u8"))
        if _pcg64_state(words[-1].tolist()) != np.random.PCG64(_CHECK_SEED).state:
            raise RuntimeError("NumPy's PCG64 seeding differs from the one HashEmbedder derives")
        # in place: a large table is remapped rather than copied, and no
        # view of it outlives a call
        self._table.resize((stop, self.dim), refcheck=False)
        bits = np.random.PCG64()
        normal = np.random.Generator(bits)
        draw = np.empty(self.dim)  # one token's float64 draw, cast into its row
        for row, token_words in enumerate(words[:-1], start):
            bits.state = _pcg64_state(token_words.tolist())
            normal.standard_normal(out=draw)
            self._table[row] = draw
        self._rows.update(zip(tokens, range(start, stop)))
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


# NumPy's SeedSequence constants (NEP 19) and PCG64's multiplier (O'Neill,
# "PCG", 2014), which `_seed_words` and `_pcg64_state` reproduce, and the seed
# `HashEmbedder` checks that reproduction on
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_CHECK_SEED = 0x0123456789ABCDEF


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for each 64-bit
    seed, as one (len(seeds), 4) uint64 array.

    A seed is its two 32-bit words, low first, in a pool of four (a seed
    below 2**32 is one word, and the missing one mixes as a 0 word does).
    The hashing constants advance the same way for every seed, so each step
    is one uint32 array operation over all seeds, which wraps as the C code
    does.
    """
    seeds = seeds.astype(np.uint64)
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    entropy = [seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zeros, zeros]
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(value) for value in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(_SS_MIX_L) * pool[dst]
                         - np.uint32(_SS_MIX_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((len(seeds), 8), dtype="<u4")
    hash_const = _SS_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8")


def _pcg64_state(words: list[int]) -> dict:
    """The `PCG64.state` that PCG's setseq seeding gives from a seed
    sequence's four 64-bit words: a 128-bit initial state and stream."""
    state_hi, state_lo, stream_hi, stream_lo = words
    inc = ((stream_hi << 65) | (stream_lo << 1) | 1) & _MASK128
    state = ((((state_hi << 64) | state_lo) + inc) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


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
        data = ENCODER.encode({"texts": texts}).encode("ascii")
        payload = post_with_retries(self.session, "/v1/embeddings", data, EmbeddingError)
        vectors = payload.get("vectors") if isinstance(payload, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbeddingError(f"bad embedding payload for {len(texts)} texts")
        out = [_float32_vector(v) for v in vectors]
        if any(v is None for v in out):
            raise EmbeddingError(
                f"bad embedding payload for {len(texts)} texts: an entry is not a finite number"
            )
        return out

    def close(self) -> None:
        self.session.close()


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
    read-only, or anything `np.asarray` makes a matrix of, such as a list of
    equal-length vectors (a ragged list raises its ValueError). Rows are
    reordered (one copy) only when `doc_ids` are not already sorted. Sorting
    makes the search tie-break (ascending doc id) fall out of positional
    order, so top-k selection never compares id strings.
    """
    if len(doc_ids) != len(vectors):
        raise ValueError(f"{len(doc_ids)} ids but {len(vectors)} vectors")
    if not doc_ids:
        raise ValueError("cannot build an empty index")
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("duplicate doc ids in index")
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
    that mat-vec. A larger block is scored with one GEMM, `index.matrix @
    block.T`, and each query's K = k + _SPARE best GEMM scores are found by
    column class; the query's order is then certified in two steps (see the
    module docstring). First the global margin: every gap between its k+1
    best GEMM scores exceeds `4 * gamma_d * |q| * max|m|`, and the GEMM
    order is kept. Otherwise its K candidates are scored exactly in float64
    and the exact-candidate rule is tried. A query that passes neither, or
    has a norm product near float32 overflow, is scored by its own mat-vec.
    An empty block gives `[]`. Raises ValueError for a block of the wrong
    dimension or with a non-finite entry.

    A larger block is scored into the index's scratch buffer
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
    if len(block) == 0:
        return []
    if len(block) == 1:
        return [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ block[0], k))]

    n, dim = len(index), index.dim
    kept, ranked = min(k, n), min(k + _SPARE, n)
    scores = index._block_scratch(len(block))
    np.matmul(index.matrix, block.T, out=scores)
    cols, top = _best_columns(scores, ranked)
    scale = np.sqrt(np.einsum("ij,ij->i", block, block, dtype=np.float64)) * index.row_norm_bound
    # a row's float32 score, GEMM or mat-vec, lies within gamma_d * sum_i
    # |q_i| |m_i| + d * tiny of its exact score, and that sum is at most
    # `scale`; 1 + 2**-20 covers the float64 rounding of the sums, the
    # bounds, the gaps and the exact scores themselves
    slack = 1.0 + 2.0 ** -20
    spread = 2.0 * (_gamma(dim) * scale + dim * _TINY)
    # below 2**126 no partial sum of either product can overflow, so the bound holds
    sound = np.isfinite(top).all(axis=1) & (scale < 2.0 ** 126)
    gaps = -np.diff(top[:, :min(k + 1, n)].astype(np.float64), axis=1)
    certified = sound & (gaps > 2.0 * slack * spread[:, None]).all(axis=1)
    rows = cols[:, :kept]
    retry = np.flatnonzero(sound & ~certified)
    if len(retry):
        candidates = cols[retry]
        vectors, query = index.matrix[candidates], block[retry]
        exact = np.einsum("rkd,rd->rk", vectors, query, dtype=np.float64)
        bound = slack * (_gamma(dim) * np.einsum("rkd,rd->rk", np.abs(vectors), np.abs(query),
                                                 dtype=np.float64) + dim * _TINY)
        order = np.lexsort((candidates, -exact), axis=1)
        candidates, exact, bound = (np.take_along_axis(a, order, axis=1)
                                    for a in (candidates, exact, bound))
        last, last_bound = exact[:, kept - 1:kept], bound[:, kept - 1:kept]
        # (i) the first k in order, (ii) the k-th above every other candidate
        passed = ((exact[:, :kept - 1] - exact[:, 1:kept] > bound[:, :kept - 1] + bound[:, 1:kept])
                  .all(axis=1)
                  & (last - exact[:, kept:] > last_bound + bound[:, kept:]).all(axis=1))
        if ranked < n:  # (iii) the k-th above every row outside the candidates
            passed &= last[:, 0] - top[retry, -1] > last_bound[:, 0] + slack * spread[retry]
        certified[retry] = passed
        rows[retry[passed]] = candidates[passed, :kept]
    for r in np.flatnonzero(~certified).tolist():
        rows[r] = select_topk(index.matrix @ block[r], k)
    return list(map(tuple, index.id_array[rows].tolist()))


def _best_columns(scores: np.ndarray, ranked: int) -> tuple[np.ndarray, np.ndarray]:
    """For each column of an (n, rows) score block, its `ranked` best scores,
    descending, and their rows, ties to the lower row: a stable
    `argsort(-scores[:, r])[:ranked]` for each query r, as (rows, ranked)
    arrays.

    Row j is in class `j mod C`. A max over the leading axis of the first
    `n // C` slabs of C rows gives each (class, query) maximum, and a query's
    floor is its `ranked`-th largest class maximum: at least `ranked` of its
    scores reach the floor, so every one of its `ranked` best does. Only the
    classes whose maximum reaches a query's floor can hold such a score, so
    only their rows, and the rows past the last full slab, are compared
    with the floor, and the scores that reach it are sorted.
    """
    n, rows = scores.shape
    classes = min(n, max(_CLASSES, ranked))
    full = n - n % classes
    slabs = scores[:full].reshape(-1, classes * rows)  # [s, c * rows + r]: row s * C + c
    maxima = slabs.max(axis=0)
    floor = np.partition(maxima.reshape(classes, rows), classes - ranked, axis=0)[classes - ranked]
    cells = np.flatnonzero(maxima >= np.tile(floor, classes))  # (class, query) pairs
    in_cells = slabs[:, cells]
    slab, cell = np.divmod(np.flatnonzero(in_cells >= floor[cells % rows]), len(cells))
    tail, tail_query = np.divmod(np.flatnonzero(scores[full:] >= floor), rows)
    found = np.concatenate([slab * classes + cells[cell] // rows, full + tail])
    query = np.concatenate([cells[cell] % rows, tail_query])
    value = np.concatenate([in_cells[slab, cell], scores[full + tail, tail_query]])
    # by query, then descending score; each query's first `ranked`. A query's
    # hits come out in ascending row (slab-major, then class; the tail last)
    # and the sort is stable, so a tie goes to the lower row
    order = np.lexsort((-value, query))
    counts = np.bincount(query, minlength=rows)
    keep = order[((np.cumsum(counts) - counts)[:, None] + np.arange(ranked)).reshape(-1)]
    return found[keep].reshape(rows, ranked), value[keep].reshape(rows, ranked)
