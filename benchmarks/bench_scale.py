#!/usr/bin/env python3
"""Benchmark `pipeline.run_all` mqa as the corpus grows: stage times, peak memory, searched texts.

For each `--sizes` value it writes the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`, seed 7) and then starts a fresh
Python process that runs one `pipeline.run_all` mqa under synth-mqa-2k's
config with seed 7 (`workloads.make_config`: one worker, hash embeddings of
dim 256, 100 dev instances). The child times each `pipeline.stage_*` by
wrapping the names the `pipeline.STAGES` table holds, and
`pipeline.build_index`. `run_all` runs the four per-row stages once per
block of `pipeline.PAIR_BLOCK` pair rows, so a stage's time is the sum over
its calls, and `blocks` counts the calls of `stage_verify`. `run_all`
builds the index once, before the first block, so `verify_s` does not
include `index_s` (on a checkout whose `stage_verify` builds the index
itself, it does). The child counts the
texts `verification.embed` gets, the texts verify embeds and searches (the
index is embedded through `pipeline.embed` and is not counted), and reads
its peak RSS (`ru_maxrss`) once the call returns.
A row also holds the first 16 hex digits of the sha256 of `train.jsonl`, of
`dev.jsonl` and of the returned report without its `outputs` paths, so two
checkouts can be shown to write the same data.

Inputs are written by a process of their own, as in `bench_memory.py`, whose
writer this script runs, and `layerbench` is imported once the last child
has run. `hopsynth` is imported from PYTHONPATH, here and in each child, so
the same script measures any checkout's code:

    PYTHONPATH=src python3 benchmarks/bench_scale.py --sizes 1000 4000 16000

The children run with one BLAS thread. There is no reference layer: the
rows are times and counts. It ends with `layerbench.report`'s table and
JSON line.
"""

import argparse
import tempfile
from pathlib import Path

import hopsynth
from bench_memory import WRITER, run_child

# Runs in the child: argv is (work directory, perfbench directory). The work
# directory holds corpus.jsonl.
CHILD = """
import hashlib, json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[2])
import hopsynth
from hopsynth import pipeline, verification
from workloads import WORKLOADS, make_config

seconds = {}
calls = {}
texts = [0]

def timed(name, stage):
    def run(*args, **kwargs):
        started = time.perf_counter()
        try:
            return stage(*args, **kwargs)
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - started
            calls[name] = calls.get(name, 0) + 1
    return run

for _, name, _, _ in pipeline.STAGES:
    setattr(pipeline, f"stage_{name}", timed(f"{name}_s", getattr(pipeline, f"stage_{name}")))
pipeline.build_index = timed("index_s", pipeline.build_index)

def counting_embed(provider, block, embed=verification.embed):
    texts[0] += len(block)
    return embed(provider, block)

verification.embed = counting_embed

def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]

workdir = Path(sys.argv[1])
config = make_config(WORKLOADS["synth-mqa-2k"], 7, workdir)
started = time.perf_counter()
report = pipeline.run_all(workdir / "corpus.jsonl", workdir / "out", config)
wall = time.perf_counter() - started
del report["outputs"]
print(json.dumps({
    "wall_s": round(wall, 3), **{name: round(s, 3) for name, s in seconds.items()},
    "blocks": calls["verify_s"], "verify_texts": texts[0], "emitted": report["counters"]["emitted"],
    "peak_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "train_sha": digest((workdir / "out" / "train.jsonl").read_bytes()),
    "dev_sha": digest((workdir / "out" / "dev.jsonl").read_bytes()),
    "report_sha": digest(json.dumps(report, sort_keys=True).encode()),
    "hopsynth": hopsynth.__file__,
}))
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1_000, 4_000, 16_000])
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            run_child(WRITER, Path(tmp), n, 0)
            rows.append({"layer": "run_all", "docs": n, **run_child(CHILD, Path(tmp))})
    from layerbench import report  # once the last child has run: see bench_memory.py
    if {row.pop("hopsynth") for row in rows} - {hopsynth.__file__}:
        raise SystemExit("a child imported another hopsynth than this process")
    report(args, rows)


if __name__ == "__main__":
    main()
