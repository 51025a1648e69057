#!/usr/bin/env python3
"""Benchmark pair sampling: `sample_pairs` over every anchor, and `stage_pair`.

For each `--sizes` value it writes the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`) to a temporary file and loads it with
`pipeline.build_store` under each topic labeler of `--labelers`. Under
`file` the records keep their round-robin topics, so a cluster holds a
tenth of the corpus. Under `keyword` the records' topics are dropped first,
as in a corpus that carries none; the seeded texts hold no keyword, so
every document shares one cluster. It then times:

- `sample_pairs` over every anchor, in doc-id order as `stage_pair` calls it;
- the same draws by `tests/oracles.py`'s `oracle_sample_pairs`, which
  shuffles each anchor's whole topic cluster as the sampler once did; the
  script asserts that both give the same pairs;
- `pipeline.stage_pair` (mqa, heuristic recognizer), which adds the answer
  candidates and the recognizer.

`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's sampler against this checkout's reference:

    PYTHONPATH=src python3 benchmarks/bench_pairing.py --sizes 2000 8000 16000

The reference is slow under `keyword`: at 16,000 docs it shuffles a
16,000-member cluster per anchor. The last line printed is one JSON object
with every figure.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import hopsynth
from hopsynth.config import PipelineConfig
from hopsynth.pairing import sample_pairs
from hopsynth.pipeline import build_store, stage_pair

ROOT = Path(__file__).resolve().parent.parent


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def write_corpus(make_corpus, n_docs, labeler, workdir):
    path = workdir / f"corpus-{n_docs}-{labeler}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in make_corpus(n_docs, seed=7):
            if labeler != "file":
                del record["topic"]
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000, 16_000])
    parser.add_argument("--labelers", nargs="+", default=["file", "keyword"])
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from inputs import make_corpus
    from oracles import oracle_sample_pairs

    results = []
    print(f"{'labeler':>8} {'docs':>7} {'largest':>8} {'pairs':>7} {'sample s':>9} "
          f"{'ref s':>8} {'stage s':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for labeler in args.labelers:
            for n in args.sizes:
                config = PipelineConfig(seed=7)
                config.topics.labeler = labeler
                path = write_corpus(make_corpus, n, labeler, Path(tmp))
                store = build_store(path, config)
                path.unlink()
                anchors = sorted(store.documents)
                ppd = config.pairing.pairs_per_document
                sample_s, pairs = timed(lambda: [
                    [(p.d2.id, p.relation) for p in sample_pairs(store, a, config.pairing, 7)]
                    for a in anchors])
                ref_s, expected = timed(lambda: [
                    oracle_sample_pairs(store, a, ppd, 7) for a in anchors])
                if pairs != expected:
                    raise SystemExit(f"sample_pairs differs from the reference: {labeler}, {n}")
                stage_s, (rows, _) = timed(lambda: stage_pair(store, config))
                largest = max(map(len, store.topic_clusters.values()), default=0)
                count = sum(map(len, pairs))
                results.append({"labeler": labeler, "docs": n, "largest_cluster": largest,
                                "pairs": count, "sample_pairs_s": round(sample_s, 4),
                                "ref_s": round(ref_s, 4), "stage_pair_s": round(stage_s, 4),
                                "stage_pair_rows": len(rows)})
                print(f"{labeler:>8} {n:>7} {largest:>8} {count:>7} {sample_s:>9.3f} "
                      f"{ref_s:>8.3f} {stage_s:>8.3f}", flush=True)
    print(json.dumps({"hopsynth": hopsynth.__file__, "seed": 7, "results": results}))


if __name__ == "__main__":
    main()
