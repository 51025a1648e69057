"""The benchmark's tracer still finds and wraps the names it patches.

`perfbench/tracing.py` replaces module-level names in hopsynth (stage
functions, `write_jsonl`, `run_episode`, ...) with span-recording wrappers.
A refactor that renames or stops calling one of them would otherwise only
show up as a failed traced benchmark run.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from hopsynth.config import PipelineConfig, build_backend, build_embedder, build_recognizer
from hopsynth.pipeline import run_all, run_eval

from synthcorpus import make_corpus, write_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import STAGES, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("hooks") / "corpus.jsonl"
    write_corpus(path, make_corpus(n_docs=60, seed=3, n_topics=6))
    return path


@contextmanager
def traced(config):
    """Yield (tracer, wrapped clients); check that uninstall restores every name."""
    tracer = Tracer()
    clients = tracer.install(
        build_backend(config), build_embedder(config), build_recognizer(config)
    )
    patched = list(tracer._patched)
    try:
        yield tracer, clients
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, attr


def test_tracer_records_every_stage_of_run_all(tmp_path, corpus_path):
    config = PipelineConfig(seed=11, dev_size=3)
    config.pairing.pairs_per_document = 2
    with traced(config) as (tracer, clients):
        run_all(corpus_path, tmp_path / "traced", config, *clients)
    for stage in STAGES:
        assert tracer.calls[f"pipeline.stage_{stage}"] == 1, stage
    assert tracer.calls["emitter.write_jsonl"] == 2
    assert tracer.calls["verification.verify_query"] > 0
    assert tracer.calls["verification.assemble_instance"] > 0
    # build_index embeds the documents once; verification embeds its distinct
    # query texts in blocks and searches each block once
    assert tracer.calls["retrieval.search"] == tracer.calls["retrieval.embed"] - 1 > 0
    # every completion reaches the mock's rule: its span is the backend's cost
    assert tracer.calls["mockllm.rule"] == tracer.calls["genbackend.complete"] > 0
    # every synthesis completion renders one prompt over its built-in examples,
    # and the answer filter asks three times per draft (both, first, second)
    assert (tracer.calls["promptkit.render_prompt"] == tracer.calls["genbackend.complete"]
            == tracer.calls["promptkit.builtin_examples"])
    assert (tracer.calls["synthesis.answer_question"]
            == 3 * tracer.counts["pipeline.stage_filter_answers.in"] > 0)
    run_all(corpus_path, tmp_path / "plain", config)
    for name in ("train.jsonl", "dev.jsonl"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_tracer_prompt_spans_of_fever_run_all(tmp_path, corpus_path):
    # fact verification renders its claim, verify and query prompts the same way
    config = PipelineConfig(task="fever", seed=11, dev_size=3)
    config.pairing.pairs_per_document = 2
    with traced(config) as (tracer, clients):
        run_all(corpus_path, tmp_path / "traced", config, *clients)
    assert (tracer.calls["promptkit.render_prompt"] == tracer.calls["genbackend.complete"]
            == tracer.calls["promptkit.builtin_examples"] > 0)
    assert tracer.calls["synthesis.generate_queries"] > 0


def test_tracer_records_episodes_of_run_eval(tmp_path):
    records = make_corpus(n_docs=10, seed=1, n_topics=2)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, records)
    items, script = [], {}
    for i, record in enumerate(records[:4]):
        question = f"What is fact {i} about {record['title']}?"
        items.append({"id": f"q{i}", "question": question, "answer": record["title"]})
        script[question] = {"queries": [record["title"]], "answer": record["title"]}
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text("".join(json.dumps(item) + "\n" for item in items))
    (tmp_path / "script.json").write_text(json.dumps(script))
    config = PipelineConfig(seed=1)
    config.backend.mock_script = str(tmp_path / "script.json")
    with traced(config) as (tracer, (backend, provider, _)):
        report = run_eval(eval_path, corpus, config, backend, provider)
    assert tracer.calls["evalharness.run_episode"] == len(items)
    # episodes render through promptkit.render_episode, so prompt_chars stays
    # a synthesis-only metric
    assert tracer.calls["promptkit.render_prompt"] == 0
    assert tracer.counts["promptkit.prompt_chars"] == 0
    assert tracer.calls["genbackend.complete"] == tracer.calls["mockllm.rule"] > 0
    assert tracer.calls["pipeline.build_index"] == 1
    assert report["em"] == 100.0
