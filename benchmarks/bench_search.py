#!/usr/bin/env python3
"""Benchmark flat-index search: per-query mat-vec against block search.

For each index size it times two ways of finding every query's top k:
one mat-vec plus `select_topk` per query, and `retrieval.search` over
blocks of `retrieval.EMBED_BLOCK` queries (one GEMM per block, with a
mat-vec only for the queries whose order the GEMM cannot certify). It
asserts that both give the same ids in the same order, reports the share
of queries that fell back to the mat-vec, and checks that `select_topk`
agrees with a stable argsort on the raw and on coarsely rounded (tie-heavy)
scores. Rows are unit gaussian vectors; each query is the normalized sum of
two random rows plus noise, so it has near-matching rows as real queries
do. Run:

    python3 benchmarks/bench_search.py --sizes 2000 8000 --dim 256 --k 7

One BLAS thread (`OPENBLAS_NUM_THREADS=1`) matches the benchmark's workers.
The last line printed is one JSON object with every figure.
"""

import argparse
import json
import time

import numpy as np

from hopsynth import retrieval
from hopsynth.retrieval import select_topk
from hopsynth.retrieval import EMBED_BLOCK, build_flat_index, search


def argsort_topk(scores, k):
    return np.argsort(-scores, kind="stable")[:k]


def bench(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def unit(rows):
    return (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).astype(np.float32)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000])
    parser.add_argument("--dim", type=int, default=256)
    parser.add_argument("--k", type=int, default=7)
    parser.add_argument("--queries", type=int, default=4_096)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    k = args.k
    results = []
    print(f"{'n':>8} {'queries':>8} {'mat-vec s':>10} {'block s':>8} {'speedup':>8} "
          f"{'fallback':>9}")
    for n in args.sizes:
        index = build_flat_index([f"d{i:07d}" for i in range(n)],
                                 list(unit(rng.standard_normal((n, args.dim)))))
        picks = rng.integers(0, n, size=(args.queries, 2))
        noise = rng.standard_normal((args.queries, args.dim)) / np.sqrt(args.dim)
        queries = unit(index.matrix[picks[:, 0]] + index.matrix[picks[:, 1]] + noise)
        blocks = [queries[s:s + EMBED_BLOCK] for s in range(0, len(queries), EMBED_BLOCK)]

        def per_query():
            return [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, k))
                    for q in queries]

        def per_block():
            return [ids for block in blocks for ids in search(index, block, k)]

        fallbacks = []
        retrieval.select_topk = lambda scores, k: fallbacks.append(k) or select_topk(scores, k)
        try:
            found = per_block()
        finally:
            retrieval.select_topk = select_topk
        if found != per_query():
            raise SystemExit(f"block search disagrees with the per-query mat-vec at n={n}")
        scores = index.matrix @ queries[0]
        for decimals in (None, 1, 0):
            tied = scores if decimals is None else np.round(scores, decimals)
            if not np.array_equal(select_topk(tied, k), argsort_topk(tied, k)):
                raise SystemExit(f"select_topk disagrees with argsort at n={n}, round={decimals}")

        t_matvec = bench(per_query, args.repeats)
        t_block = bench(per_block, args.repeats)
        row = {"n": n, "queries": args.queries, "matvec_s": round(t_matvec, 4),
               "block_s": round(t_block, 4), "speedup": round(t_matvec / t_block, 2),
               "fallback_frac": round(len(fallbacks) / args.queries, 4)}
        results.append(row)
        print(f"{n:>8} {args.queries:>8} {t_matvec:>10.3f} {t_block:>8.3f} "
              f"{row['speedup']:>7.1f}x {row['fallback_frac']:>9.1%}")
    print(json.dumps({"dim": args.dim, "k": k, "block": EMBED_BLOCK, "sizes": results}))


if __name__ == "__main__":
    main()
