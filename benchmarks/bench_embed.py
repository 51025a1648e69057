#!/usr/bin/env python3
"""Benchmark the hash embedder: `embed(HashEmbedder(DIM), corpus)` against the reference.

For each `--sizes` value it loads the benchmark's seeded corpus
(`layerbench.seeded_store`) and embeds its documents in doc-id order, as
`pipeline.build_index` does. Two providers embed the same texts through
`retrieval.embed`: `HashEmbedder` and `tests/oracles.py`'s
`OracleHashEmbedder`, which adds one token vector at a time. The script
asserts that both give the same bytes. The "cold" row embeds with a fresh
provider in every pass, which pays for every token vector of the corpus, as
a run does once; the "warm" row embeds the corpus again with a provider
that has seen it. Vectors are `DIM` = 256 wide, the default
`embeddings.dim`. Each row is timed by `layerbench.alternate`, `--repeats`
passes of each side. `hopsynth` is imported from PYTHONPATH, so the same
script times any checkout's embedder against this checkout's reference:

    PYTHONPATH=src python3 benchmarks/bench_embed.py --sizes 2000 8000

It ends with `layerbench.report`'s table and JSON line.
"""

import argparse

from hopsynth.config import PipelineConfig
from hopsynth.retrieval import HashEmbedder, embed
from layerbench import alternate, report, seeded_store
# tests/oracles.py, which importing layerbench put on sys.path
from oracles import OracleHashEmbedder

DIM = 256


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rows = []
    for n in args.sizes:
        store = seeded_store(n, PipelineConfig(seed=7))
        texts = [store.documents[doc_id].text for doc_id in sorted(store.documents)]
        provider, reference = HashEmbedder(DIM), OracleHashEmbedder(DIM)
        if embed(provider, texts).tobytes() != embed(reference, texts).tobytes():
            raise SystemExit(f"HashEmbedder differs from the reference at {n} docs")
        tokens = len(reference._token_cache)
        for name, timing in [
            ("cold", alternate(lambda: embed(HashEmbedder(DIM), texts),
                               lambda: embed(OracleHashEmbedder(DIM), texts), args.repeats)),
            ("warm", alternate(lambda: embed(provider, texts), lambda: embed(reference, texts),
                               args.repeats)),
        ]:
            rows.append({"docs": n, "layer": "embed", "cache": name, "distinct_tokens": tokens,
                         **timing})
    report(args, rows)


if __name__ == "__main__":
    main()
