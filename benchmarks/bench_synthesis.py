#!/usr/bin/env python3
"""Benchmark the per-call layers of synthesis: prompt rendering, hop
classification, entity recognition and the mock backend's rule, each
against its reference.

For each `--sizes` value it writes the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`, seed 7) to a temporary file, loads it
with `pipeline.build_store` and runs `stage_pair`, `stage_questions` and
`stage_filter_answers` (mqa, mock backend, heuristic recognizer). While the
filter stage runs it records the arguments of every `render_prompt` call
(the answerability probes: both documents, first only, second only), of
every `classify_hops` call and of every call of the mock backend's
`SyntheticPipelineRule`. It then times:

- `render_prompt` over every recorded probe prompt, and `tests/oracles.py`'s
  `oracle_render_prompt` over the same arguments;
- the same calls again (`render_loaded`), each with its examples written to
  a JSONL store and read back with `promptkit.load_examples`, as a run with
  `--examples` renders: the store is a list, not a built-in tuple;
- `classify_hops` over every recorded draft and its three predictions, and
  `oracle_classify_hops`;
- `HeuristicRecognizer.entities` over the corpus texts and the drafts'
  questions, and `oracle_heuristic_entities`;
- one warm `SyntheticPipelineRule` over every recorded (prompt, seed), and
  `oracle_synthetic_rule`, which derives each generator from the whole
  prompt.

The script asserts, call by call, that each layer's output equals its
reference's, then times each side with every output dropped at once. The
layer and its reference are timed in alternating passes, `--repeats` of
each; `s` and `ref s` are the best pass of each side, and `ratio` is the
median over the passes of a layer pass over the reference pass next to it,
so a drift of the host's speed between passes moves it less than the two
best-of times.
`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's layers against this checkout's references:

    PYTHONPATH=src python3 benchmarks/bench_synthesis.py --sizes 2000

The last line printed is one JSON object with every figure.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import hopsynth
from hopsynth import promptkit, synthesis
from hopsynth.config import PipelineConfig
from hopsynth.entities import HeuristicRecognizer
from hopsynth.genbackend import MockBackend
from hopsynth.mockllm import SyntheticPipelineRule
from hopsynth.pipeline import build_store, stage_filter_answers, stage_pair, stage_questions

ROOT = Path(__file__).resolve().parent.parent


def one_pass(fn, calls):
    """Seconds of `fn(args, kwargs)` over every recorded call. Each output is
    dropped at once, so the loop pays for the calls, not for holding every
    prompt."""
    started = time.perf_counter()
    for args, kwargs in calls:
        fn(args, kwargs)
    return time.perf_counter() - started


def alternating(repeats, run, reference, calls):
    """(best `run` pass, best `reference` pass, median ratio of the two in a
    repeat) over `repeats` alternating passes of each."""
    passes = [(one_pass(run, calls), one_pass(reference, calls)) for _ in range(repeats)]
    ratios = sorted(ran / ref for ran, ref in passes)
    return min(p[0] for p in passes), min(p[1] for p in passes), ratios[len(ratios) // 2]


def recorded_calls(module, name, log):
    """Patch `module.name` to append each call's (args, kwargs) to `log`; returns the original."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        log.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(module, name, recording)
    return original


def filter_stage_calls(make_corpus, n_docs, workdir):
    """(store, drafts' question texts, render_prompt calls, classify_hops
    calls, mock rule calls)."""
    path = workdir / f"corpus-{n_docs}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in make_corpus(n_docs, seed=7):
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    config = PipelineConfig(seed=7)
    store = build_store(path, config)
    path.unlink()
    pairs, _ = stage_pair(store, config)
    drafts, _ = stage_questions(store, pairs, config)
    renders, classifies, rules = [], [], []
    rule = SyntheticPipelineRule()

    def recording_rule(prompt, seed):
        rules.append(((prompt, seed), {}))
        return rule(prompt, seed)

    render = recorded_calls(promptkit, "render_prompt", renders)
    classify = recorded_calls(synthesis, "classify_hops", classifies)
    try:
        stage_filter_answers(store, drafts, config, backend=MockBackend(rule=recording_rule))
    finally:
        promptkit.render_prompt, synthesis.classify_hops = render, classify
    return store, [row["question"] for row in drafts], renders, classifies, rules


def loaded_store_calls(calls, workdir):
    """`calls` with each example set replaced by the same examples read back
    from a JSONL store through `promptkit.load_examples`."""
    stores = {}
    for args, _ in calls:
        examples = args[3]
        if id(examples) not in stores:
            path = workdir / f"examples-{len(stores)}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                for e in examples:
                    handle.write(json.dumps({
                        "documents": list(e.documents), "question": e.question_or_claim,
                        "answer": e.answer, "queries": list(e.queries),
                    }) + "\n")
            stores[id(examples)] = promptkit.load_examples(path)
    return [((*args[:3], stores[id(args[3])], *args[4:]), kwargs) for args, kwargs in calls]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from inputs import make_corpus
    from oracles import (oracle_classify_hops, oracle_heuristic_entities, oracle_render_prompt,
                         oracle_synthetic_rule)

    results = []
    print(f"{'docs':>6} {'layer':>13} {'calls':>7} {'s':>8} {'ref s':>8} {'ratio':>6} "
          f"{'us/call':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            store, questions, renders, classifies, rules = filter_stage_calls(make_corpus, n,
                                                                              Path(tmp))
            texts = [store.documents[doc_id].text for doc_id in sorted(store.documents)]
            texts += questions
            recognizer = HeuristicRecognizer()
            rule = SyntheticPipelineRule()
            render = lambda a, k: promptkit.render_prompt(*a, **k).text  # noqa: E731
            render_reference = lambda a, k: oracle_render_prompt(*a, **k)  # noqa: E731
            # layer -> (recorded (args, kwargs) calls, the layer's output, its reference's)
            layers = {
                "render": (renders, render, render_reference),
                "render_loaded": (loaded_store_calls(renders, Path(tmp)), render,
                                  render_reference),
                "classify": (
                    classifies,
                    lambda a, k: synthesis.classify_hops(*a, **k),
                    lambda a, k: oracle_classify_hops(a[0].task, a[0].pair.relation,
                                                      a[0].prepared_answer, *a[1:4],
                                                      a[4].f1_threshold),
                ),
                "entities": (
                    [((text,), {}) for text in texts],
                    lambda a, k: recognizer.entities(*a),
                    lambda a, k: oracle_heuristic_entities(*a),
                ),
                "rule": (rules, lambda a, k: rule(*a), lambda a, k: oracle_synthetic_rule(*a)),
            }
            for layer, (calls, run, reference) in layers.items():
                for a, k in calls:
                    if run(a, k) != reference(a, k):
                        raise SystemExit(f"{layer} differs from its reference at {n} docs: {a}")
                seconds, ref_seconds, ratio = alternating(args.repeats, run, reference, calls)
                per_call = seconds / len(calls) * 1e6
                results.append({"docs": n, "layer": layer, "calls": len(calls),
                                "s": round(seconds, 4), "ref_s": round(ref_seconds, 4),
                                "ratio": round(ratio, 4), "us_per_call": round(per_call, 3)})
                print(f"{n:>6} {layer:>13} {len(calls):>7} {seconds:>8.3f} {ref_seconds:>8.3f} "
                      f"{ratio:>6.3f} {per_call:>8.2f}", flush=True)
    print(json.dumps({"hopsynth": hopsynth.__file__, "seed": 7, "repeats": args.repeats,
                      "results": results}))


if __name__ == "__main__":
    main()
