import json

import pytest

from hopsynth import pipeline
from hopsynth.config import PipelineConfig
from hopsynth.pipeline import (
    build_index,
    build_store,
    counters_conserved,
    new_counters,
    run_all,
    stage_filter_answers,
    stage_pair,
    stage_queries,
    stage_questions,
    stage_verify,
)
from hopsynth.retrieval import EmbeddingError, HashEmbedder
from hopsynth.verification import EMBED_BLOCK, VerifyConfig, validate_instance, verify_query

from synthcorpus import make_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "corpus.jsonl"
    write_corpus(path, make_corpus(n_docs=60, seed=3, n_topics=6))
    return path


def make_config(**overrides):
    config = PipelineConfig()
    config.seed = 11
    config.workers = 2
    config.dev_size = 0
    config.pairing.pairs_per_document = 2
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def test_stages_flow_and_conserve(corpus_path):
    config = make_config()
    store = build_store(corpus_path, config)
    assert store.topic_clusters  # file topics picked up

    totals = new_counters()
    pair_rows, counters = stage_pair(store, config)
    for key, value in counters.items():
        totals[key] += value
    assert counters["attempts"] == len(pair_rows) + counters["no_answer_candidates"]
    assert any(r["relation"] == "hyper" for r in pair_rows)
    assert any(r["relation"] == "topic" for r in pair_rows)
    topic_rows = [r for r in pair_rows if r["relation"] == "topic"]
    titles = {store.documents[r["d1"]].title for r in topic_rows} | {
        store.documents[r["d2"]].title for r in topic_rows
    }
    assert all(r["answer"] in titles | {"yes", "no"} for r in topic_rows)

    draft_rows, counters = stage_questions(store, pair_rows, config)
    for key, value in counters.items():
        totals[key] += value
    assert draft_rows and all(r["question"].endswith("?") for r in draft_rows)

    decision_rows, counters = stage_filter_answers(store, draft_rows, config)
    for key, value in counters.items():
        totals[key] += value
    assert decision_rows
    assert {r["hops"] for r in decision_rows} <= {"one", "two"}
    for row in decision_rows:
        assert "both" in row["answerable_in"]
        if row["hops"] == "one":
            assert set(row["answerable_in"]) & {"first", "second"}
        if row["relation"] == "topic":
            assert row["hops"] == "two"

    candidate_rows, counters = stage_queries(store, decision_rows, config)
    for key, value in counters.items():
        totals[key] += value
    for row in candidate_rows:
        origins = [c["origin"] for c in row["candidates"]]
        assert origins.count("original_question_backup") == 1
        assert origins[-1] == "original_question_backup"
        ranks = [c["rank"] for c in row["candidates"]]
        assert ranks == sorted(ranks)

    provider = HashEmbedder(dim=256)
    instances, counters = stage_verify(store, candidate_rows, config, provider=provider)
    for key, value in totals.items():
        totals[key] = totals[key] + counters.get(key, 0)
    assert instances, "pipeline should emit something on the synthetic corpus"
    assert counters_conserved(totals)

    index = build_index(store, provider)
    for instance in instances:
        assert validate_instance(instance, store, index, provider, config.verify) == []


def test_run_all_deterministic(tmp_path, corpus_path):
    config = make_config()
    report1 = run_all(corpus_path, tmp_path / "out1", config)
    report2 = run_all(corpus_path, tmp_path / "out2", config)
    assert report1["conserved"] and report2["conserved"]
    assert (tmp_path / "out1/train.jsonl").read_bytes() == (
        tmp_path / "out2/train.jsonl"
    ).read_bytes()
    assert report1["counters"] == report2["counters"]
    assert report1["counters"]["emitted"] > 0


class CountingEmbedder:
    """HashEmbedder that records each call's texts and can fail on one text."""

    def __init__(self, fail_on=None):
        self.inner = HashEmbedder(dim=256)
        self.dim = self.inner.dim
        self.calls: list[list[str]] = []
        self.fail_on = fail_on

    def __call__(self, texts):
        self.calls.append(list(texts))
        if self.fail_on in texts:
            raise EmbeddingError("endpoint down")
        return self.inner(texts)


def test_stage_verify_embeds_each_distinct_text_once(corpus_path, monkeypatch):
    config = make_config(workers=1)  # verdicts are recorded in call order
    store = build_store(corpus_path, config)
    pair_rows, _ = stage_pair(store, config)
    draft_rows, _ = stage_questions(store, pair_rows, config)
    decision_rows, _ = stage_filter_answers(store, draft_rows, config)
    candidate_rows, _ = stage_queries(store, decision_rows, config)
    texts = [c["text"] for row in candidate_rows for c in row["candidates"]]
    distinct = set(texts)
    assert EMBED_BLOCK < len(distinct) < len(texts)
    index = build_index(store, HashEmbedder(dim=256))

    verdicts = []

    def recording_verify(candidate, pair, retrieved):
        verdict = verify_query(candidate, pair, retrieved)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(pipeline, "verify_query", recording_verify)
    healthy = CountingEmbedder()
    stage_verify(store, candidate_rows, config, provider=healthy, index=index)
    embedded = [t for call in healthy.calls for t in call]
    assert sorted(embedded) == sorted(distinct)
    assert len(healthy.calls) <= -(-len(distinct) // EMBED_BLOCK)
    assert [v.candidate.text for v in verdicts] == texts
    baseline, verdicts[:] = list(verdicts), []

    bad = next(t for t in texts if texts.count(t) > 1)
    stage_verify(store, candidate_rows, config, provider=CountingEmbedder(fail_on=bad), index=index)
    assert len(verdicts) == len(baseline)
    for got, want in zip(verdicts, baseline):
        if got.candidate.text == bad:
            assert not got.valid and got.retrieved_ids == ()
        else:
            assert got == want


def test_run_all_seed_changes_output(tmp_path, corpus_path):
    report1 = run_all(corpus_path, tmp_path / "a", make_config(seed=1))
    report2 = run_all(corpus_path, tmp_path / "b", make_config(seed=2))
    assert (tmp_path / "a/train.jsonl").read_bytes() != (tmp_path / "b/train.jsonl").read_bytes()


def test_examples_override_changes_prompts(tmp_path, corpus_path):
    # a custom example store should flow into the rendered prompts
    override = tmp_path / "examples.jsonl"
    override.write_text(
        json.dumps({
            "documents": ["Custom doc one.", "Custom doc two."],
            "question": "Custom question?",
            "answer": "Custom Answer",
            "queries": ["custom query"],
        }) + "\n"
    )
    config = make_config(examples_path=str(override))
    store = build_store(corpus_path, config)
    pair_rows, _ = stage_pair(store, config)

    seen_prompts = []

    class Spy:
        def raw_complete(self, text, params):
            seen_prompts.append(text)
            return ""

    stage_questions(store, pair_rows[:2], config, backend=Spy())
    assert seen_prompts
    assert all("Custom question?" in p for p in seen_prompts)


def test_run_eval_fever_accuracy(tmp_path, corpus_path):
    from hopsynth.mockllm import GoldScriptRule
    from hopsynth.genbackend import MockBackend
    from hopsynth.pipeline import run_eval

    records = json.loads(json.dumps(make_corpus(n_docs=8, seed=2, n_topics=2)))
    eval_corpus = tmp_path / "fever_corpus.jsonl"
    write_corpus(eval_corpus, records)
    items, script = [], {}
    labels = ["SUPPORTS", "REFUTES", "NOT ENOUGH INFO", "SUPPORTS"]
    for i, label in enumerate(labels):
        question = f"Claim number {i} about {records[i]['title']}."
        items.append({"id": f"c{i}", "question": question, "label": label})
        predicted = label if i != 3 else "REFUTES"  # one deliberate miss
        script[question] = {"queries": [records[i]["title"]], "answer": predicted}
    eval_path = tmp_path / "fever_eval.jsonl"
    eval_path.write_text("".join(json.dumps(i) + "\n" for i in items))

    config = make_config(task="fever")
    backend = MockBackend(rule=GoldScriptRule(script))
    report = run_eval(eval_path, eval_corpus, config, backend=backend)
    assert report["accuracy"] == 75.0


def test_run_eval_self_consistency_mode(tmp_path, corpus_path):
    from hopsynth.mockllm import GoldScriptRule
    from hopsynth.genbackend import MockBackend
    from hopsynth.pipeline import run_eval

    records = make_corpus(n_docs=6, seed=8, n_topics=2)
    eval_corpus = tmp_path / "sc_corpus.jsonl"
    write_corpus(eval_corpus, records)
    question = f"What covers {records[0]['title']}?"
    eval_path = tmp_path / "sc_eval.jsonl"
    eval_path.write_text(json.dumps({"id": "q0", "question": question, "answer": "gold"}) + "\n")
    script = {question: {"queries": [records[0]["title"]], "answer": "gold"}}

    config = make_config(eval_mode="self_consistency")
    config.eval.self_consistency_samples = 5
    backend = MockBackend(rule=GoldScriptRule(script))
    report = run_eval(eval_path, eval_corpus, config, backend=backend)
    assert report["em"] == 100.0


def test_run_all_fever(tmp_path, corpus_path):
    config = make_config(task="fever")
    report = run_all(corpus_path, tmp_path / "fever", config)
    assert report["conserved"]
    assert report["counters"]["emitted"] > 0
    lines = (tmp_path / "fever/train.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in lines]
    assert rows and all(r["task"] == "fever" for r in rows)
    assert all(r["relation"] == "hyper" for r in rows)
    assert all(r["answer"] in ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO") for r in rows)
    assert report["stats"]["avg_answer_words"] is None
