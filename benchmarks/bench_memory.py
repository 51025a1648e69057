#!/usr/bin/env python3
"""Benchmark corpus loading and index building: peak memory and time.

For each `--sizes` value it writes the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`) to a temporary file, then starts a
fresh Python process that builds the pipeline config with the benchmark's
hash embeddings (dim 256), times `pipeline.build_store` plus
`pipeline.build_index` on that file, and reports the process's peak RSS
(`ru_maxrss`) before and after them. The corpus is written by this process,
so its records never count toward the measured peak. `hopsynth` is imported
from PYTHONPATH, so the same script measures any checkout's code:

    PYTHONPATH=src python3 benchmarks/bench_memory.py --sizes 2000 8000 16000

The child runs with one BLAS thread, as the benchmark's workers do. The
last line printed is one JSON object with every figure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs in the child: argv is (corpus path, perfbench directory).
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[2])
import hopsynth
from hopsynth.config import PipelineConfig, build_embedder
from hopsynth.pipeline import build_index, build_store
from workloads import EMBED_DIM

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

config = PipelineConfig(seed=7, workers=1)
config.embeddings.dim = EMBED_DIM
provider = build_embedder(config)
before = peak_mb()
started = time.perf_counter()
store = build_store(sys.argv[1], config)
loaded = time.perf_counter()
index = build_index(store, provider)
done = time.perf_counter()
print(json.dumps({"docs": len(index), "store_s": round(loaded - started, 3),
                  "index_s": round(done - loaded, 3), "setup_peak_mb": round(before, 1),
                  "peak_mb": round(peak_mb(), 1), "hopsynth": hopsynth.__file__}))
"""


def measure(make_corpus, n_docs: int, workdir: Path) -> dict:
    corpus = workdir / f"corpus-{n_docs}.jsonl"
    with corpus.open("w", encoding="utf-8") as handle:
        for record in make_corpus(n_docs, seed=7):
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, str(corpus), str(PERFBENCH)],
                         env=env, check=True, capture_output=True, text=True).stdout
    corpus.unlink()
    return json.loads(out.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 8_000, 16_000])
    args = parser.parse_args()
    sys.path.insert(0, str(PERFBENCH))
    from inputs import make_corpus

    results = []
    print(f"{'docs':>8} {'store s':>8} {'index s':>8} {'set-up MB':>10} {'peak MB':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            row = measure(make_corpus, n, Path(tmp))
            results.append(row)
            print(f"{row['docs']:>8} {row['store_s']:>8.3f} {row['index_s']:>8.3f} "
                  f"{row['setup_peak_mb']:>10.1f} {row['peak_mb']:>8.1f}")
    print(json.dumps({"hopsynth": results[0]["hopsynth"] if results else None,
                      "sizes": [{k: v for k, v in row.items() if k != "hopsynth"}
                                for row in results]}))


if __name__ == "__main__":
    main()
