#!/usr/bin/env python3
"""Benchmark the per-call layers of synthesis: prompt rendering, hop
classification, entity recognition and the mock backend's rule, each
against its reference.

For each `--sizes` value it loads the benchmark's seeded corpus
(`layerbench.seeded_store`) and runs `stage_pair`, `stage_questions` and
`stage_filter_answers` (mqa, mock backend, heuristic recognizer). While the
filter stage runs it records the arguments of every `render_prompt` call
(the answerability probes: both documents, first only, second only), of
every `classify_hops` call and of every call of the mock backend's
`SyntheticPipelineRule`. It then times:

- `render_prompt` over every recorded probe prompt, and `tests/oracles.py`'s
  `oracle_render_prompt` over the same arguments;
- the same calls again (`render_loaded`), each with its examples written to
  a JSONL store and read back with `promptkit.load_examples`, as a run with
  `--examples` renders: the store is a tuple read from a file, not the
  built-in one;
- `classify_hops` over every recorded draft and its three predictions, and
  `oracle_classify_hops`;
- `HeuristicRecognizer.entities` over the corpus texts and the drafts'
  questions, and `oracle_heuristic_entities`;
- one warm `SyntheticPipelineRule` over every recorded (prompt, seed), and
  `oracle_synthetic_rule`, which derives each generator from the whole
  prompt.

The script asserts, call by call, that each layer's output equals its
reference's, then times each side over every recorded call, with each
output dropped at once, by `layerbench.alternate`, `--repeats` passes of
each.
`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's layers against this checkout's references:

    PYTHONPATH=src python3 benchmarks/bench_synthesis.py --sizes 2000

It ends with `layerbench.report`'s table and JSON line.
"""

import argparse
import tempfile
from pathlib import Path

from hopsynth import promptkit, synthesis
from hopsynth.config import PipelineConfig, build_backend, build_recognizer
from hopsynth.entities import HeuristicRecognizer
from hopsynth.genbackend import MockBackend
from hopsynth.mockllm import SyntheticPipelineRule
from hopsynth.pipeline import stage_filter_answers, stage_pair, stage_questions
from layerbench import alternate, report, seeded_store
# perfbench/inputs.py and tests/oracles.py, which importing layerbench put on sys.path
from inputs import write_jsonl
from oracles import (oracle_classify_hops, oracle_heuristic_entities, oracle_render_prompt,
                     oracle_synthetic_rule)


def each_call(fn, calls):
    """`fn(args, kwargs)` over every recorded call. Each output is dropped at
    once, so a timed pass pays for the calls, not for holding every prompt."""
    for args, kwargs in calls:
        fn(args, kwargs)


def recorded_calls(module, name, log):
    """Patch `module.name` to append each call's (args, kwargs) to `log`; returns the original."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        log.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(module, name, recording)
    return original


def filter_stage_calls(n_docs):
    """(store, drafts' question texts, render_prompt calls, classify_hops
    calls, mock rule calls)."""
    config = PipelineConfig(seed=7)
    store = seeded_store(n_docs, config)
    pairs, _ = stage_pair(store, config)
    drafts, _ = stage_questions(store, pairs, config, build_backend(config),
                                build_recognizer(config))
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
            rows = [{"documents": list(e.documents), "question": e.question_or_claim,
                     "answer": e.answer, "queries": list(e.queries)} for e in examples]
            path = write_jsonl(workdir / f"examples-{len(stores)}.jsonl", rows)
            stores[id(examples)] = promptkit.load_examples(path)
    return [((*args[:3], stores[id(args[3])], *args[4:]), kwargs) for args, kwargs in calls]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            store, questions, renders, classifies, rules = filter_stage_calls(n)
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
                timing = alternate(lambda: each_call(run, calls),
                                   lambda: each_call(reference, calls), args.repeats)
                rows.append({"docs": n, "layer": layer, "calls": len(calls), **timing,
                             "us_per_call": round(timing["s"] / len(calls) * 1e6, 3)})
    report(args, rows)


if __name__ == "__main__":
    main()
