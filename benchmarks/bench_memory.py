#!/usr/bin/env python3
"""Benchmark corpus loading, index building and evaluation: peak memory and time.

For each `--sizes` value it writes the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`) to a temporary file, then starts a
fresh Python process that builds the pipeline config with the benchmark's
hash embeddings (dim 256), times `pipeline.build_store` plus
`pipeline.build_index` on that file, and reports the process's peak RSS
(`ru_maxrss`) before and after them.

For each `--eval-sizes` value it also writes `--questions` scripted two-hop
questions over that corpus (`inputs.make_eval_set`, with the gold script
the mock backend replays) and times one `pipeline.run_eval` call under the
eval-8k workload's config (`workloads.make_config`) in a fresh process,
reporting its wall time, F1 and peak RSS. That row covers the whole
evaluation: corpus load, index, and every episode's completions and
retrievals.

Inputs are written by a process of their own, which exits before the
measured one starts. On Linux a child's `ru_maxrss` starts at its parent's
RSS when it is started, so records held by this process would count toward
the measured peaks, as would `layerbench`, which loads numpy and the
pipeline: it is imported once the last child has run. `hopsynth` is
imported from PYTHONPATH, here and in each child, so the same script
measures any checkout's code:

    PYTHONPATH=src python3 benchmarks/bench_memory.py --sizes 2000 8000 16000 \
        --eval-sizes 8000 16000

The children run with one BLAS thread, as the benchmark's workers do. It
ends with `layerbench.report`'s table and JSON line.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hopsynth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Writes the inputs in a child: argv is (work directory, perfbench directory,
# docs, questions); with 0 questions it writes the corpus alone.
WRITER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[2])
from inputs import make_corpus, make_eval_set, write_jsonl

workdir, docs, questions = Path(sys.argv[1]), int(sys.argv[3]), int(sys.argv[4])
records = make_corpus(docs, seed=7)
write_jsonl(workdir / "corpus.jsonl", records)
if questions:
    items, script = make_eval_set(records, questions, seed=7)
    write_jsonl(workdir / "questions.jsonl", items)
    (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
"""

# Runs in the child: argv is (work directory, perfbench directory). The work
# directory holds corpus.jsonl.
CHILD = """
import json, resource, sys, time
from pathlib import Path
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
store = build_store(Path(sys.argv[1]) / "corpus.jsonl", config)
loaded = time.perf_counter()
index = build_index(store, provider)
done = time.perf_counter()
print(json.dumps({"docs": len(index), "store_s": round(loaded - started, 3),
                  "index_s": round(done - loaded, 3), "setup_peak_mb": round(before, 1),
                  "peak_mb": round(peak_mb(), 1), "hopsynth": hopsynth.__file__}))
"""

# Runs in the child: argv is (work directory, perfbench directory). The work
# directory holds corpus.jsonl, questions.jsonl and script.json.
EVAL_CHILD = """
import json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[2])
import hopsynth
from hopsynth.pipeline import run_eval
from workloads import WORKLOADS, make_config

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

workdir = Path(sys.argv[1])
config = make_config(WORKLOADS["eval-8k"], 7, workdir)
before = peak_mb()
started = time.perf_counter()
report = run_eval(workdir / "questions.jsonl", workdir / "corpus.jsonl", config)
done = time.perf_counter()
print(json.dumps({"questions": len(report["items"]), "eval_s": round(done - started, 3),
                  "f1": round(report["f1"], 3), "setup_peak_mb": round(before, 1),
                  "peak_mb": round(peak_mb(), 1), "hopsynth": hopsynth.__file__}))
"""


def run_child(program: str, workdir: Path, *args) -> dict | None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", program, str(workdir), str(PERFBENCH),
                          *map(str, args)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1]) if out else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=[2_000, 8_000, 16_000])
    parser.add_argument("--eval-sizes", type=int, nargs="*", default=[8_000, 16_000],
                        help="corpus sizes of the run_eval rows")
    parser.add_argument("--questions", type=int, default=3_000,
                        help="evaluation questions per run_eval row (eval-8k's count)")
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            run_child(WRITER, Path(tmp), n, 0)
            rows.append({"layer": "build", **run_child(CHILD, Path(tmp))})
        for n in args.eval_sizes:
            run_child(WRITER, Path(tmp), n, args.questions)
            rows.append({"layer": "run_eval", "docs": n, **run_child(EVAL_CHILD, Path(tmp))})
    from layerbench import report  # once the last child has run: see above
    if {row.pop("hopsynth") for row in rows} - {hopsynth.__file__}:
        raise SystemExit("a child imported another hopsynth than this process")
    report(args, rows)


if __name__ == "__main__":
    main()
