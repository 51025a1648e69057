#!/usr/bin/env python3
"""Benchmark pair sampling: `sample_pairs` over every anchor, and `stage_pair`.

For each `--sizes` value it loads the benchmark's seeded corpus
(`layerbench.seeded_store`) under each topic labeler of `--labelers`. Under
`file` the records keep their round-robin topics, so a cluster holds a
tenth of the corpus. Under `keyword` the records' topics are dropped first,
as in a corpus that carries none; the seeded texts hold no keyword, so
every document shares one cluster. It then times, by
`layerbench.alternate`, `PASSES` passes of each side:

- `sample_pairs` over every anchor, in doc-id order as `stage_pair` calls it,
  against `tests/oracles.py`'s `oracle_sample_pairs`, which shuffles each
  anchor's whole topic cluster as the sampler once did; the script asserts
  that both give the same pairs;
- `pipeline.stage_pair` (mqa, heuristic recognizer) against the same
  `sample_pairs` loop, so its ratio is the stage's cost over the sampling
  it holds; the stage adds the answer candidates and the recognizer.

`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's sampler against this checkout's reference:

    PYTHONPATH=src python3 benchmarks/bench_pairing.py --sizes 2000 8000 16000

The reference is slow under `keyword`: at 16,000 docs it shuffles a
16,000-member cluster per anchor, so the default run takes minutes. The
last line printed is one JSON object with every figure.
"""

import argparse
import json

import hopsynth
from hopsynth.config import PipelineConfig
from hopsynth.pairing import sample_pairs
from hopsynth.pipeline import stage_pair
from layerbench import HEADER, alternate, cells, seeded_store
# tests/oracles.py, which importing layerbench put on sys.path
from oracles import oracle_sample_pairs

# passes of each side; the reference's quadratic cost under `keyword` keeps it small
PASSES = 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000, 16_000])
    parser.add_argument("--labelers", nargs="+", default=["file", "keyword"])
    args = parser.parse_args()

    results = []
    print(f"{'labeler':>8} {'docs':>7} {'largest':>8} {'pairs':>7} {'layer':>12} {HEADER}")
    for labeler in args.labelers:
        for n in args.sizes:
            config = PipelineConfig(seed=7)
            config.topics.labeler = labeler
            store = seeded_store(n, config, topics=labeler == "file")
            anchors = sorted(store.documents)
            ppd = config.pairing.pairs_per_document

            def sample():
                return [[(p.d2.id, p.relation) for p in sample_pairs(store, a, config.pairing, 7)]
                        for a in anchors]

            def reference():
                return [oracle_sample_pairs(store, a, ppd, 7) for a in anchors]

            pairs = sample()
            if pairs != reference():
                raise SystemExit(f"sample_pairs differs from the reference: {labeler}, {n}")
            largest = max(map(len, store.topic_clusters.values()), default=0)
            row = {"labeler": labeler, "docs": n, "largest_cluster": largest,
                   "pairs": sum(map(len, pairs))}
            for layer, timing in [
                ("sample_pairs", alternate(sample, reference, PASSES)),
                ("stage_pair", alternate(lambda: stage_pair(store, config), sample, PASSES)),
            ]:
                results.append({**row, "layer": layer, **timing})
                print(f"{labeler:>8} {n:>7} {largest:>8} {row['pairs']:>7} {layer:>12} "
                      f"{cells(timing)}", flush=True)
    print(json.dumps({"hopsynth": hopsynth.__file__, "seed": 7, "passes": PASSES,
                      "results": results}))


if __name__ == "__main__":
    main()
