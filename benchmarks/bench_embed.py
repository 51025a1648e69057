#!/usr/bin/env python3
"""Benchmark the hash embedder: `embed(HashEmbedder(dim), corpus)` against the reference.

For each `--sizes` value it writes the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`) to a temporary file, loads it with
`pipeline.build_store` and embeds its documents in doc-id order, as
`pipeline.build_index` does. Two providers embed the same texts through
`retrieval.embed`: `HashEmbedder` and `tests/oracles.py`'s
`OracleHashEmbedder`, which adds one token vector at a time. The script
asserts that both give the same bytes. "cold" times a fresh embedder, which
pays for every token vector of the corpus, as a run does once; "warm" embeds
the corpus again with the same embedder. Times are the best of `--repeats`.
`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's embedder against this checkout's reference:

    PYTHONPATH=src python3 benchmarks/bench_embed.py --sizes 2000 8000 --dim 256

The last line printed is one JSON object with every figure.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import hopsynth
from hopsynth.config import PipelineConfig
from hopsynth.pipeline import build_store
from hopsynth.retrieval import HashEmbedder, embed

ROOT = Path(__file__).resolve().parent.parent


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def measure(make_provider, texts, repeats):
    """(best cold s, best warm s, matrix, last provider) of `embed` with fresh providers."""
    cold = warm = float("inf")
    for _ in range(repeats):
        provider = make_provider()
        seconds, matrix = timed(lambda: embed(provider, texts))
        cold = min(cold, seconds)
        warm = min(warm, timed(lambda: embed(provider, texts))[0])
    return cold, warm, matrix, provider


def corpus_texts(make_corpus, n_docs, workdir):
    path = workdir / f"corpus-{n_docs}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in make_corpus(n_docs, seed=7):
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    store = build_store(path, PipelineConfig(seed=7))
    path.unlink()
    return [store.documents[doc_id].text for doc_id in sorted(store.documents)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000])
    parser.add_argument("--dim", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from inputs import make_corpus
    from oracles import OracleHashEmbedder

    results = []
    print(f"{'docs':>8} {'tokens':>8} {'cold s':>8} {'ref cold s':>11} {'warm s':>8} "
          f"{'ref warm s':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            texts = corpus_texts(make_corpus, n, Path(tmp))
            cold, warm, matrix, _ = measure(lambda: HashEmbedder(args.dim), texts, args.repeats)
            ref_cold, ref_warm, expected, reference = measure(
                lambda: OracleHashEmbedder(args.dim), texts, args.repeats)
            if matrix.tobytes() != expected.tobytes():
                raise SystemExit(f"HashEmbedder differs from the reference at {n} docs")
            tokens = len(reference._token_cache)
            row = {"docs": n, "distinct_tokens": tokens, "cold_s": round(cold, 4),
                   "ref_cold_s": round(ref_cold, 4), "warm_s": round(warm, 4),
                   "ref_warm_s": round(ref_warm, 4)}
            results.append(row)
            print(f"{n:>8} {tokens:>8} {cold:>8.3f} {ref_cold:>11.3f} {warm:>8.3f} "
                  f"{ref_warm:>11.3f}")
    print(json.dumps({"hopsynth": hopsynth.__file__, "dim": args.dim, "sizes": results}))


if __name__ == "__main__":
    main()
