#!/usr/bin/env python3
"""Benchmark flat-index top-k: partition selection vs stable argsort.

For each size it times the scoring mat-vec, `select_topk` and the stable
argsort reference it must match, and checks that the two selections agree
on the raw scores and on coarsely rounded (tie-heavy) copies. Run:

    python3 benchmarks/bench_search.py --sizes 10000 100000 1000000 --dim 256 --k 7

The matrix takes sizes x dim x 4 bytes (1 GB at one million rows and 256
dims); pass a smaller --dim to bound memory.
"""

import argparse
import time

import numpy as np

from hopsynth._kernels import select_topk


def argsort_topk(scores, k):
    return np.argsort(-scores, kind="stable")[:k]


def bench(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    parser.add_argument("--dim", type=int, default=256)
    parser.add_argument("--k", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'n':>10} {'matvec ms':>10} {'select ms':>10} {'argsort ms':>11} {'speedup':>8}")
    for n in args.sizes:
        matrix = rng.standard_normal((n, args.dim)).astype(np.float32)
        query = rng.standard_normal(args.dim).astype(np.float32)
        scores = matrix @ query
        for decimals in (None, 1, 0):
            tied = scores if decimals is None else np.round(scores, decimals)
            if not np.array_equal(select_topk(tied, args.k), argsort_topk(tied, args.k)):
                raise SystemExit(f"select_topk disagrees with argsort at n={n}, round={decimals}")
        t_matvec = bench(lambda: matrix @ query, args.repeats)
        t_select = bench(lambda: select_topk(scores, args.k), args.repeats)
        t_argsort = bench(lambda: argsort_topk(scores, args.k), args.repeats)
        print(
            f"{n:>10} {1e3 * t_matvec:>10.3f} {1e3 * t_select:>10.3f} "
            f"{1e3 * t_argsort:>11.3f} {t_argsort / t_select:>7.1f}x"
        )
        del matrix


if __name__ == "__main__":
    main()
