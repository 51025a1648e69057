#!/usr/bin/env python3
"""Benchmark flat-index search: block search against one mat-vec per query.

For each index size it finds every query's top `K` = 7 two ways: one mat-vec
plus `select_topk` per query (the reference), and `retrieval.search` over
blocks of `retrieval.EMBED_BLOCK` queries (one GEMM per block, with a
mat-vec only for the queries whose order the GEMM cannot certify). It
asserts that both give the same ids in the same order, and checks that
`select_topk` agrees with a stable argsort on the raw and on coarsely
rounded (tie-heavy) scores. Rows are unit gaussian vectors; each query is
the normalized sum of two random rows plus noise, so it has near-matching
rows as real queries do.

Block search and the reference are timed by `layerbench.alternate`,
`--repeats` passes of each. In the same passes a block's time is split
into the GEMM (into the index's scratch buffer), the selection
(`_best_columns`), the fallbacks (one reference mat-vec per query that
fell back) and the rest, which is certification: the margins, the exact
candidate scores and the ids. The GEMM and the selection are read from
timing wrappers on `FlatIndex._block_scratch` and `_best_columns`, whose
own cost (about half a microsecond per block) counts as certification. Run:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_search.py --sizes 2000 8000

One BLAS thread matches the benchmark's workers. `hopsynth` is imported
from PYTHONPATH. It ends with `layerbench.report`'s table and JSON line.
"""

import argparse
import time

import numpy as np

from hopsynth import retrieval
from hopsynth.retrieval import select_topk
from hopsynth.retrieval import EMBED_BLOCK, build_flat_index, search
from layerbench import alternate, report

DIM = 256  # vector width, the default embeddings.dim
K = 7  # ids per query, the default verify.k and eval.k


def argsort_topk(scores, k):
    return np.argsort(-scores, kind="stable")[:k]


def unit(rows):
    return (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).astype(np.float32)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000])
    parser.add_argument("--queries", type=int, default=4_096)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    rows = []
    for n in args.sizes:
        index = build_flat_index([f"d{i:07d}" for i in range(n)],
                                 list(unit(rng.standard_normal((n, DIM)))))
        picks = rng.integers(0, n, size=(args.queries, 2))
        noise = rng.standard_normal((args.queries, DIM)) / np.sqrt(DIM)
        queries = unit(index.matrix[picks[:, 0]] + index.matrix[picks[:, 1]] + noise)
        blocks = [queries[s:s + EMBED_BLOCK] for s in range(0, len(queries), EMBED_BLOCK)]

        def per_query():
            return [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, K))
                    for q in queries]

        def per_block():
            return [ids for block in blocks for ids in search(index, block, K)]

        fallbacks = []
        retrieval.select_topk = lambda scores, k: fallbacks.append(k) or select_topk(scores, k)
        try:
            found = per_block()
        finally:
            retrieval.select_topk = select_topk
        if found != per_query():
            raise SystemExit(f"block search disagrees with the per-query mat-vec at {n} docs")
        scores = index.matrix @ queries[0]
        for decimals in (None, 1, 0):
            tied = scores if decimals is None else np.round(scores, decimals)
            if not np.array_equal(select_topk(tied, K), argsort_topk(tied, K)):
                raise SystemExit(f"select_topk disagrees with argsort: {n} docs, round={decimals}")

        # per GEMM block of every block pass: (GEMM start, selection start, selection end)
        marks = []
        block_scratch, best_columns = retrieval.FlatIndex._block_scratch, retrieval._best_columns

        def scratch(self, rows):
            view = block_scratch(self, rows)
            marks.append(time.perf_counter())
            return view

        def selection(scores, ranked):
            marks.append(time.perf_counter())
            best = best_columns(scores, ranked)
            marks.append(time.perf_counter())
            return best

        retrieval.FlatIndex._block_scratch, retrieval._best_columns = scratch, selection
        try:
            timing = alternate(per_block, per_query, args.repeats)
        finally:
            retrieval.FlatIndex._block_scratch, retrieval._best_columns = (block_scratch,
                                                                           best_columns)
        spans = np.diff(np.reshape(marks, (args.repeats, -1, 3)), axis=2).sum(axis=1)
        t_gemm, t_select = np.median(spans, axis=0)
        t_fallback = len(fallbacks) * timing["ref_s"] / args.queries
        t_certify = timing["s"] - t_gemm - t_select - t_fallback
        rows.append({"docs": n, "layer": "search", "queries": args.queries, "block": EMBED_BLOCK,
                     **timing, "gemm_s": round(t_gemm, 6), "select_s": round(t_select, 6),
                     "certify_s": round(t_certify, 6), "fallback_s": round(t_fallback, 6),
                     "fallback_frac": round(len(fallbacks) / args.queries, 4)})
    report(args, rows)


if __name__ == "__main__":
    main()
