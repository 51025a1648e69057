"""Embedding providers and an exact flat dense index.

Similarity is the dot product of float32 embedding vectors. Search is
exact: every row is scored, the top k are returned in descending score
order with ties broken by ascending document id. Providers:

* HttpEmbedder  - POST {endpoint}/v1/embeddings {"texts": [s]} -> {"vectors": [[f]]}
* FileEmbedder  - precomputed JSONL of {"text": s, "vector": [f]}, exact-text keyed
* HashEmbedder  - deterministic bag-of-token random projections (for tests/mocks)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from ._kernels import select_topk
from .httpjson import JsonSession, post_with_retries
from .metrics import tokenize


class EmbeddingError(RuntimeError):
    """Embedding lookup or endpoint failure."""


class EmbeddingProvider(Protocol):
    def __call__(self, texts: list[str]) -> list[np.ndarray]: ...


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float


@dataclass(frozen=True)
class FlatIndex:
    doc_ids: tuple[str, ...]
    matrix: np.ndarray  # float32, one row per doc, sorted by doc id
    dim: int

    def __len__(self) -> int:
        return len(self.doc_ids)


class HashEmbedder:
    """Deterministic embeddings from token-level random projections.

    Each distinct lowercase token maps to a fixed unit gaussian vector seeded
    by its hash; a text embeds as the L2-normalized sum over its distinct
    tokens. Token overlap with a document then drives the dot product, which
    is what makes this mock useful for retrieval fixtures.
    """

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is None:
            seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim).astype(np.float32)
            vec /= np.linalg.norm(vec)
            cached = self._token_cache[token] = vec
        return cached

    def __call__(self, texts: list[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            tokens = {t.lower() for t in tokenize(text) if any(c.isalnum() for c in t)}
            vec = np.zeros(self.dim, dtype=np.float32)
            for token in sorted(tokens):
                vec += self._token_vector(token)
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec = vec / norm
            out.append(vec.astype(np.float32))
        return out


class FileEmbedder:
    """Precomputed embeddings keyed by exact text."""

    def __init__(self, path: str | Path):
        self.table: dict[str, np.ndarray] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            self.table[row["text"]] = np.asarray(row["vector"], dtype=np.float32)

    def __call__(self, texts: list[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            vec = self.table.get(text)
            if vec is None:
                raise EmbeddingError(f"no precomputed embedding for text: {text[:60]!r}")
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
        return [np.asarray(v, dtype=np.float32) for v in vectors]


def embed(provider: EmbeddingProvider, texts: Sequence[str]) -> list[np.ndarray]:
    """One float32 vector per text, order preserved."""
    if not texts:
        raise ValueError("texts must be non-empty")
    vectors = provider(list(texts))
    if len(vectors) != len(texts):
        raise EmbeddingError("provider returned the wrong number of vectors")
    return vectors


def build_flat_index(doc_ids: Sequence[str], vectors: Sequence[np.ndarray]) -> FlatIndex:
    """Assemble an immutable flat index; rows are sorted by document id.

    Sorting makes the search tie-break (ascending doc id) fall out of
    positional order, so top-k selection never compares id strings.
    """
    if len(doc_ids) != len(vectors):
        raise ValueError(f"{len(doc_ids)} ids but {len(vectors)} vectors")
    if not doc_ids:
        raise ValueError("cannot build an empty index")
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError("duplicate doc ids in index")
    dims = {int(np.asarray(v).shape[0]) for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"mixed embedding dims: {sorted(dims)}")
    dim = dims.pop()
    order = sorted(range(len(doc_ids)), key=lambda i: doc_ids[i])
    matrix = np.vstack([np.asarray(vectors[i], dtype=np.float32) for i in order])
    if not np.isfinite(matrix).all():
        raise ValueError("embeddings must be finite")
    matrix.setflags(write=False)
    return FlatIndex(doc_ids=tuple(doc_ids[i] for i in order), matrix=matrix, dim=dim)


def search(index: FlatIndex, query_vec: np.ndarray, k: int) -> list[ScoredDoc]:
    """Exact top-k by dot product; ties broken by ascending doc id.

    Scores come from one mat-vec per query: a blocked GEMM (`Q @ M.T`) can
    differ from `M @ q` in the last bits, which changes near-tie order.
    Raises ValueError for a non-finite query vector.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query_vec, dtype=np.float32)
    if query.shape != (index.dim,):
        raise ValueError(f"query dim {query.shape} does not match index dim {index.dim}")
    if not np.isfinite(query).all():
        raise ValueError("query vector must be finite")
    scores = index.matrix @ query
    rows = select_topk(scores, k)
    return [ScoredDoc(index.doc_ids[i], float(scores[i])) for i in rows]
