"""Exact top-k selection for the flat index.

`select_topk` orders by descending score with ties broken by ascending row
index, exactly as a stable `argsort(-scores)[:k]` does, without sorting
every row: `np.partition` finds the k-th best score, and only the rows at
or above it are sorted. Scores must be finite (`retrieval.search` rejects
non-finite queries). `benchmarks/bench_search.py` times it against the
stable argsort.
"""

from __future__ import annotations

import numpy as np


def numba_enabled() -> bool:
    # Always False: there is no numba kernel; perfbench/run.py still records this.
    return False


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k best scores (desc score, asc index on ties)."""
    n = scores.shape[0]
    m = min(k, n)
    kth = np.partition(scores, n - m)[n - m]
    rows = np.flatnonzero(scores >= kth)
    return rows[np.lexsort((rows, -scores[rows]))][:m]
