#!/usr/bin/env python3
"""Benchmark flat-index search: block search against one mat-vec per query.

For each index size it finds every query's top k two ways: one mat-vec
plus `select_topk` per query (the reference), and `retrieval.search` over
blocks of `retrieval.EMBED_BLOCK` queries (one GEMM per block, with a
mat-vec only for the queries whose order the GEMM cannot certify). It
asserts that both give the same ids in the same order, and checks that
`select_topk` agrees with a stable argsort on the raw and on coarsely
rounded (tie-heavy) scores. Rows are unit gaussian vectors; each query is
the normalized sum of two random rows plus noise, so it has near-matching
rows as real queries do.

The reference, block search and a pass of block search's parts are timed
in alternating passes, `--repeats` of each. `ratio` is the median, over
the repeats, of a block pass over the reference pass next to it, with its
quartiles, so a drift of the host's speed between passes moves it less
than either side's time. A block's time is split into the GEMM (into the
index's scratch buffer), the selection (`_best_columns`), the fallbacks
(one reference mat-vec per query that fell back) and the rest, which is
certification: the margins, the exact candidate scores and the ids. Run:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_search.py --sizes 2000 8000

One BLAS thread matches the benchmark's workers. The last line printed is
one JSON object with every figure.
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


def seconds(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def unit(rows):
    return (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).astype(np.float32)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000])
    parser.add_argument("--dim", type=int, default=256)
    parser.add_argument("--k", type=int, default=7)
    parser.add_argument("--queries", type=int, default=4_096)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    k = args.k
    results = []
    print(f"{'n':>7} {'queries':>7} {'mat-vec s':>9} {'block s':>8} {'ratio':>6} {'q1-q3':>11} "
          f"{'gemm':>6} {'select':>6} {'certify':>7} {'fallback':>8} {'fell back':>9}")
    for n in args.sizes:
        index = build_flat_index([f"d{i:07d}" for i in range(n)],
                                 list(unit(rng.standard_normal((n, args.dim)))))
        picks = rng.integers(0, n, size=(args.queries, 2))
        noise = rng.standard_normal((args.queries, args.dim)) / np.sqrt(args.dim)
        queries = unit(index.matrix[picks[:, 0]] + index.matrix[picks[:, 1]] + noise)
        blocks = [queries[s:s + EMBED_BLOCK] for s in range(0, len(queries), EMBED_BLOCK)]
        ranked = min(k + retrieval._SPARE, n)

        def per_query():
            return [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, k))
                    for q in queries]

        def per_block():
            return [ids for block in blocks for ids in search(index, block, k)]

        def gemm_and_selection():
            """(GEMM s, selection s) of every block, as `search` runs them."""
            gemm = selection = 0.0
            for block in blocks:
                started = time.perf_counter()
                scores = index._block_scratch(len(block))
                np.matmul(index.matrix, block.T, out=scores)
                scored = time.perf_counter()
                retrieval._best_columns(scores, ranked)
                gemm, selection = gemm + scored - started, selection + time.perf_counter() - scored
            return gemm, selection

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

        passes = [(seconds(per_query), seconds(per_block), gemm_and_selection())
                  for _ in range(args.repeats)]
        t_matvec = float(np.median([p[0] for p in passes]))
        t_block = float(np.median([p[1] for p in passes]))
        ratio_q1, ratio, ratio_q3 = np.percentile([p[1] / p[0] for p in passes], [25, 50, 75])
        t_gemm = float(np.median([p[2][0] for p in passes]))
        t_select = float(np.median([p[2][1] for p in passes]))
        t_fallback = len(fallbacks) * t_matvec / args.queries
        t_certify = t_block - t_gemm - t_select - t_fallback
        row = {"n": n, "queries": args.queries, "matvec_s": round(t_matvec, 4),
               "block_s": round(t_block, 4), "ratio": round(float(ratio), 4),
               "ratio_q1": round(float(ratio_q1), 4), "ratio_q3": round(float(ratio_q3), 4),
               "gemm_s": round(t_gemm, 4), "select_s": round(t_select, 4),
               "certify_s": round(t_certify, 4), "fallback_s": round(t_fallback, 4),
               "fallback_frac": round(len(fallbacks) / args.queries, 4)}
        results.append(row)
        print(f"{n:>7} {args.queries:>7} {t_matvec:>9.3f} {t_block:>8.3f} {ratio:>6.3f} "
              f"{ratio_q1:>5.3f}-{ratio_q3:<5.3f} {t_gemm:>6.3f} {t_select:>6.3f} "
              f"{t_certify:>7.3f} {t_fallback:>8.3f} {row['fallback_frac']:>9.2%}")
    print(json.dumps({"dim": args.dim, "k": k, "block": EMBED_BLOCK, "repeats": args.repeats,
                      "sizes": results}))


if __name__ == "__main__":
    main()
