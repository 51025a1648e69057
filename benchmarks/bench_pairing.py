#!/usr/bin/env python3
"""Benchmark pair sampling: `sample_pairs` against the reference, and `stage_pair`.

For each `--sizes` value it loads the benchmark's seeded corpus
(`layerbench.seeded_store`) under each topic labeler of `LABELERS`. Under
`file` the records keep their round-robin topics, so a cluster holds a
tenth of the corpus. Under `keyword` the records' topics are dropped first,
as in a corpus that carries none; the seeded texts hold no keyword, so
every document shares one cluster. It then times, by
`layerbench.alternate`, `PASSES` passes of each side:

- `sample_pairs` over a seeded sample of `SAMPLE` anchors, in doc-id order
  as `stage_pair` calls it, against `tests/oracles.py`'s
  `oracle_sample_pairs` over the same anchors; the reference shuffles each
  anchor's whole topic cluster, as the sampler once did, so over every
  anchor its cost would grow with the square of the corpus. The script
  asserts that both give the same pairs;
- `pipeline.stage_pair` (mqa, heuristic recognizer) against `sample_pairs`
  over every anchor, so its ratio is the stage's cost over the sampling it
  holds; the stage adds the answer candidates and the recognizer.

`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's sampler against this checkout's reference:

    PYTHONPATH=src python3 benchmarks/bench_pairing.py --sizes 2000 8000 16000

It ends with `layerbench.report`'s table and JSON line.
"""

import argparse
import random

from hopsynth.config import PipelineConfig
from hopsynth.pairing import sample_pairs
from hopsynth.pipeline import stage_pair
from layerbench import alternate, report, seeded_store
# tests/oracles.py, which importing layerbench put on sys.path
from oracles import oracle_sample_pairs

PASSES = 3  # passes of each side
SAMPLE = 200  # anchors per corpus on which sample_pairs meets the reference
LABELERS = ("file", "keyword")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000, 16_000])
    args = parser.parse_args()

    rows = []
    for labeler in LABELERS:
        for n in args.sizes:
            config = PipelineConfig(seed=7)
            config.topics.labeler = labeler
            store = seeded_store(n, config, topics=labeler == "file")
            anchors = sorted(store.documents)
            sampled = sorted(random.Random(7).sample(anchors, min(SAMPLE, len(anchors))))
            ppd = config.pairing.pairs_per_document

            def sample(anchors):
                return [[(p.d2.id, p.relation) for p in sample_pairs(store, a, config.pairing, 7)]
                        for a in anchors]

            def reference():
                return [oracle_sample_pairs(store, a, ppd, 7) for a in sampled]

            if sample(sampled) != reference():
                raise SystemExit(f"sample_pairs differs from the reference: {labeler}, {n}")
            row = {"labeler": labeler, "docs": n,
                   "largest_cluster": max(map(len, store.topic_clusters.values()), default=0),
                   "pairs": sum(map(len, sample(anchors)))}
            for layer, timed, timing in [
                ("sample_pairs", sampled, alternate(lambda: sample(sampled), reference, PASSES)),
                ("stage_pair", anchors, alternate(lambda: stage_pair(store, config),
                                                  lambda: sample(anchors), PASSES)),
            ]:
                rows.append({**row, "layer": layer, "anchors": len(timed), **timing})
    report(args, rows)


if __name__ == "__main__":
    main()
