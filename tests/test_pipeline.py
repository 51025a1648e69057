import hashlib
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from hopsynth import httpjson, pipeline, promptkit, retrieval, verification
from hopsynth.cli import main
from hopsynth.config import (PipelineConfig, TopicsConfig, build_backend, build_embedder,
                             build_examples, build_recognizer, parse_config_file)
from hopsynth.evalharness import score_fever, score_qa, self_consistency
from hopsynth.genbackend import (
    EVAL_GREEDY,
    EVAL_SELF_CONSISTENCY,
    BackendUnavailable,
    MockBackend,
    default_decode_params,
)
from hopsynth.mockllm import GoldScriptRule, SyntheticPipelineRule
from hopsynth.jsonl import InputError
from hopsynth.pairing import derive_seed
from hopsynth.entities import HeuristicRecognizer
from hopsynth.pipeline import (
    build_index,
    build_store,
    counters_conserved,
    run_all,
    run_eval,
    stage_filter_answers,
    stage_pair,
    stage_queries,
    stage_questions,
    stage_verify,
)
from hopsynth.promptkit import builtin_examples
from hopsynth.retrieval import EMBED_BLOCK, EmbeddingError, HashEmbedder, HttpEmbedder
from hopsynth.synthesis import FEVER_LABELS, ORIGIN_BACKUP, ORIGIN_MODEL
from hopsynth.metrics import normalize_answer
from hopsynth.verification import VerifyConfig, validate_instance, verify_query

from oracles import OracleHashEmbedder, brute_force_search, oracle_assemble, oracle_episode
from synthcorpus import make_corpus, write_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "corpus.jsonl"
    write_corpus(path, make_corpus(n_docs=60, seed=3, n_topics=6))
    return path


def make_config(**overrides):
    config = PipelineConfig()
    config.seed = 11
    config.dev_size = 0
    config.pairing.pairs_per_document = 2
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def test_stages_flow_and_conserve(corpus_path):
    config = make_config()
    store = build_store(corpus_path, config)
    assert store.topic_clusters  # file topics picked up

    pair_rows, counters = stage_pair(store, config)
    assert counters_conserved(counters)
    assert counters["attempts"] == len(pair_rows) + counters["no_answer_candidates"]
    assert any(r["relation"] == "hyper" for r in pair_rows)
    assert any(r["relation"] == "topic" for r in pair_rows)
    topic_rows = [r for r in pair_rows if r["relation"] == "topic"]
    titles = {store.documents[r["d1"]].title for r in topic_rows} | {
        store.documents[r["d2"]].title for r in topic_rows
    }
    assert all(r["answer"] in titles | {"yes", "no"} for r in topic_rows)

    backend = build_backend(config)
    draft_rows, counters = stage_questions(store, pair_rows, config, backend,
                                           build_recognizer(config))
    assert counters["attempts"] == len(pair_rows) and counters_conserved(counters)
    assert draft_rows and all(r["question"].endswith("?") for r in draft_rows)

    decision_rows, counters = stage_filter_answers(store, draft_rows, config, backend)
    assert counters["attempts"] == len(draft_rows) and counters_conserved(counters)
    assert decision_rows
    assert {r["hops"] for r in decision_rows} <= {"one", "two"}
    for row in decision_rows:
        assert "both" in row["answerable_in"]
        if row["hops"] == "one":
            assert set(row["answerable_in"]) & {"first", "second"}
        if row["relation"] == "topic":
            assert row["hops"] == "two"

    candidate_rows, counters = stage_queries(store, decision_rows, config, backend)
    assert counters["attempts"] == len(candidate_rows) == len(decision_rows)
    assert counters_conserved(counters)
    for row in candidate_rows:
        origins = [c["origin"] for c in row["candidates"]]
        assert origins.count("original_question_backup") == 1
        assert origins[-1] == "original_question_backup"
        ranks = [c["rank"] for c in row["candidates"]]
        assert ranks == sorted(ranks)

    provider = HashEmbedder(dim=256)
    instances, counters = stage_verify(store, candidate_rows, config, provider=provider)
    assert instances, "pipeline should emit something on the synthetic corpus"
    assert counters["attempts"] == len(candidate_rows)
    assert counters["emitted"] == len(instances) and counters_conserved(counters)

    index = build_index(store, provider)
    for instance in instances:
        assert validate_instance(instance, store, index, provider, config.verify) == []


class CountingRecognizer:
    """HeuristicRecognizer that records the texts of each call."""

    def __init__(self):
        self.inner = HeuristicRecognizer()
        self.calls: list[list[str]] = []

    def __call__(self, texts):
        self.calls.append(list(texts))
        return self.inner(texts)


def test_stage_pair_recognizes_each_text_once(corpus_path, monkeypatch):
    config = make_config()
    store = build_store(corpus_path, config)
    counting = CountingRecognizer()
    rows, counters = stage_pair(store, config, recognizer=counting)
    texts = [t for call in counting.calls for t in call]
    assert texts and len(texts) == len(set(texts))
    assert all(len(call) <= EMBED_BLOCK for call in counting.calls)
    assert (rows, counters) == stage_pair(store, config, recognizer=HeuristicRecognizer())
    monkeypatch.setattr(retrieval, "EMBED_BLOCK", 1)
    assert (rows, counters) == stage_pair(store, config, recognizer=HeuristicRecognizer())


def test_stage_pair_drops_a_hyper_pair_without_answer_candidates(tmp_path):
    # an empty anchor span makes the link but no candidate, and neither
    # lowercase text has an entity
    path = write_corpus(tmp_path / "corpus.jsonl", [
        {"id": "a", "title": "Alpha", "text": "links to the other page",
         "anchors": [{"span": "", "target": "Beta"}]},
        {"id": "b", "title": "Beta", "text": "plain words only"},
    ])
    config = make_config()
    rows, counters = stage_pair(build_store(path, config), config)
    assert rows == []
    assert {reason: count for reason, count in counters.items() if count} == {
        "attempts": 2, "no_answer_candidates": 2}
    assert counters_conserved(counters)


def test_stage_questions_recognizes_distinct_drafts_in_blocks(corpus_path, monkeypatch):
    config = make_config()
    store = build_store(corpus_path, config)
    pair_rows, _ = stage_pair(store, config)
    counting = CountingRecognizer()
    backend = build_backend(config)
    rows, counters = stage_questions(store, pair_rows, config, backend, counting)
    texts = [t for call in counting.calls for t in call]
    assert len(texts) == len(set(texts)) > EMBED_BLOCK
    assert all(len(call) <= EMBED_BLOCK for call in counting.calls)
    assert counters["entity_filter"] > 0
    monkeypatch.setattr(retrieval, "EMBED_BLOCK", 1)
    assert (rows, counters) == stage_questions(store, pair_rows, config, backend,
                                               build_recognizer(config))


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


@pytest.mark.parametrize("task", ["mqa", "fever"])
def test_run_all_reads_the_first_line_of_each_question_and_answer(tmp_path, corpus_path, task):
    # a second line after a question, claim or answer used to stop the run
    # at the next prompt that took it; now the run writes what it wrote
    # without that line
    rule = SyntheticPipelineRule()

    def two_lines(prompt, seed):
        completion = rule(prompt, seed)
        if completion and prompt.endswith(("Question:", "Claim:", "Answer:")):
            return completion + "\nextra line"
        return completion

    config = make_config(task=task)
    run_all(corpus_path, tmp_path / "plain", config, backend=MockBackend(SyntheticPipelineRule()))
    run_all(corpus_path, tmp_path / "two", config, backend=MockBackend(two_lines))
    written = [(tmp_path / run / "train.jsonl").read_bytes() for run in ("plain", "two")]
    assert written[0] and written[1] == written[0]


def test_run_all_identical_across_embed_blocks(tmp_path, corpus_path, monkeypatch):
    config = make_config(dev_size=3)
    outputs = {}
    for block in (1, 7, 64):
        monkeypatch.setattr(retrieval, "EMBED_BLOCK", block)
        out = tmp_path / f"block{block}"
        report = run_all(corpus_path, out, config)
        del report["outputs"]
        outputs[block] = [report] + [
            (out / name).read_bytes() for name in ("train.jsonl", "dev.jsonl", "store.jsonl")
        ]
    assert outputs[1][0]["counters"]["emitted"] > 0
    assert outputs[1] == outputs[7] == outputs[64]


@pytest.mark.parametrize("task", ["mqa", "fever"])
def test_run_all_ignores_corpus_line_order(tmp_path, task):
    # a metamorphic relation: the same documents in another line order give
    # the same bytes, counters and stats
    records = make_corpus(n_docs=150, seed=5, n_topics=6)
    shuffled = list(records)
    random.Random(17).shuffle(shuffled)
    assert shuffled != records
    config = make_config(task=task, dev_size=5)
    outputs = []
    for name, lines in (("sorted", records), ("shuffled", shuffled)):
        corpus = write_corpus(tmp_path / f"{name}.jsonl", lines)
        report = run_all(corpus, tmp_path / name, config)
        del report["outputs"]
        outputs.append([report] + [(tmp_path / name / file).read_bytes()
                                   for file in ("train.jsonl", "dev.jsonl", "store.jsonl")])
    assert outputs[0][0]["counters"]["emitted"] > 5
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("task", ["mqa", "fever"])
def test_run_all_identical_across_pair_blocks(tmp_path, monkeypatch, task):
    # pair rows do not depend on each other, so the per-row stages run on
    # blocks of any size write what one block writes, for any line order
    records = make_corpus(n_docs=300, seed=5, n_topics=12)
    shuffled = list(records)
    random.Random(23).shuffle(shuffled)
    config = make_config(task=task, dev_size=5)
    blocks = (1, 7, pipeline.PAIR_BLOCK)
    outputs, calls, searched = {}, Counter(), Counter()
    stage, index, embed = pipeline.stage_verify, pipeline.build_index, verification.embed

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name, pipeline.PAIR_BLOCK] += 1
            return fn(*args, **kwargs)
        return call

    def counting_embed(provider, texts):
        searched[pipeline.PAIR_BLOCK] += len(texts)
        return embed(provider, texts)

    monkeypatch.setattr(pipeline, "stage_verify", counting("verify", stage))
    monkeypatch.setattr(pipeline, "build_index", counting("index", index))
    monkeypatch.setattr(verification, "embed", counting_embed)
    for name, lines in (("sorted", records), ("shuffled", shuffled)):
        corpus = write_corpus(tmp_path / f"{name}.jsonl", lines)
        for block in blocks:
            monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
            out = tmp_path / f"{name}{block}"
            report = run_all(corpus, out, config)
            del report["outputs"]
            outputs[name, block] = [report] + [
                (out / file).read_bytes() for file in ("train.jsonl", "dev.jsonl", "store.jsonl")]
    first = outputs["sorted", 1]
    assert first[0]["counters"]["emitted"] > 5
    assert all(output == first for output in outputs.values())
    pair_rows = first[0]["counters"]["attempts"] - first[0]["counters"]["no_answer_candidates"]
    # two runs per block size, each verifying its blocks against one index
    assert calls == {("verify", 1): 2 * pair_rows, ("verify", 7): 2 * -(-pair_rows // 7),
                     ("verify", blocks[2]): 2, **{("index", block): 2 for block in blocks}}
    # and one map from text to ids: each text is searched once
    assert searched[1] == searched[7] == searched[blocks[2]] > 0


def test_run_all_in_blocks_holds_fewer_rows(tmp_path, monkeypatch):
    # the rows of one block at a time, not of every pair row: a lower peak
    corpus = write_corpus(tmp_path / "corpus.jsonl", make_corpus(n_docs=600, seed=9, n_topics=12))
    config = make_config(dev_size=5)
    config.embeddings.dim = 32  # a small token table and index: the rows weigh more
    # the module-level caches a first run fills are filled before either is traced
    small = write_corpus(tmp_path / "small.jsonl", make_corpus(n_docs=30, seed=9, n_topics=3))
    run_all(small, tmp_path / "small", config)
    peaks = {}
    for block in (64, 10**9):  # the second is one block
        monkeypatch.setattr(pipeline, "PAIR_BLOCK", block)
        tracemalloc.start()
        try:
            run_all(corpus, tmp_path / f"block{block}", config)
            peaks[block] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] < 0.85 * peaks[10**9], peaks  # 0.75 when written


def _topic_corpus(tmp_path, with_topics: bool):
    records = make_corpus(n_docs=40, seed=4, n_topics=4)
    for i, record in enumerate(records):
        if not with_topics:
            del record["topic"]
        if i % 3 == 0:
            record["text"] += " A documentary film."
    return write_corpus(tmp_path / f"topics{with_topics}.jsonl", records)


@pytest.mark.parametrize("with_topics", [True, False])
def test_build_store_topic_labelers(tmp_path, with_topics):
    path = _topic_corpus(tmp_path, with_topics)
    stores = {
        labeler: build_store(path, make_config(topics=TopicsConfig(labeler)))
        for labeler in ("file", "keyword", "none")
    }
    file_topics = {i: d.topic for i, d in stores["file"].documents.items()}
    keyword_topics = {i: d.topic for i, d in stores["keyword"].documents.items()}
    if with_topics:
        assert keyword_topics == file_topics
        assert set(file_topics.values()) == {f"cluster{i}" for i in range(4)}
    else:
        assert set(file_topics.values()) == {None}
        assert set(keyword_topics.values()) == {"film", "misc"}
    assert {d.topic for d in stores["none"].documents.values()} == {None}
    assert stores["none"].topic_clusters == {}
    for store in stores.values():
        assert store.hyperlinks == stores["file"].hyperlinks
        clustered = sorted(i for members in store.topic_clusters.values() for i in members)
        assert clustered == sorted(i for i, d in store.documents.items() if d.topic)
    pair_rows, _ = stage_pair(stores["none"], make_config())
    assert pair_rows and {r["relation"] for r in pair_rows} == {"hyper"}


class CountingEmbedder:
    """HashEmbedder that records each call's texts and can fail on one text."""

    def __init__(self, fail_on=None):
        self.inner = HashEmbedder(dim=256)
        self.calls: list[list[str]] = []
        self.fail_on = fail_on

    def __call__(self, texts):
        self.calls.append(list(texts))
        if self.fail_on in texts:
            raise EmbeddingError("endpoint down")
        return self.inner(texts)


def candidate_inputs(corpus_path, config):
    """(store, candidate rows, index) for stage_verify on the shared corpus."""
    store = build_store(corpus_path, config)
    backend = build_backend(config)
    pair_rows, _ = stage_pair(store, config)
    draft_rows, _ = stage_questions(store, pair_rows, config, backend, build_recognizer(config))
    decision_rows, _ = stage_filter_answers(store, draft_rows, config, backend)
    candidate_rows, _ = stage_queries(store, decision_rows, config, backend)
    return store, candidate_rows, build_index(store, HashEmbedder(dim=256))


@pytest.fixture(scope="module")
def verify_inputs(corpus_path):
    """(config, store, candidate rows, index) for stage_verify on the shared corpus."""
    config = make_config()
    return config, *candidate_inputs(corpus_path, config)


def brute_force_retrieved(index, texts, k):
    """Top-k doc ids of each distinct text by `brute_force_search` over the index's matrix."""
    embedder = HashEmbedder(dim=256)
    return {text: tuple(doc for doc, _ in brute_force_search(
                list(index.doc_ids), index.matrix, embedder([text])[0], k))
            for text in dict.fromkeys(texts)}


def of_origin(row, origin):
    return [c for c in row["candidates"] if c["origin"] == origin]


def model_hit(row, retrieved):
    return any(row["d1"] in retrieved[c["text"]] or row["d2"] in retrieved[c["text"]]
               for c in of_origin(row, ORIGIN_MODEL))


def with_borrowed_backup(candidate_rows, retrieved):
    """The rows plus a copy of the first row that no model candidate hits,
    whose backup is another row's model text: one that hits the pair, if any does."""
    missed = next(row for row in candidate_rows if not model_hit(row, retrieved))
    model_texts = [c["text"] for row in candidate_rows for c in of_origin(row, ORIGIN_MODEL)]
    borrowed = next((t for t in model_texts if {missed["d1"], missed["d2"]} & set(retrieved[t])),
                    model_texts[0])
    model = of_origin(missed, ORIGIN_MODEL)
    backup = {"text": borrowed, "origin": ORIGIN_BACKUP, "rank": len(model)}
    return [*candidate_rows, {**missed, "candidates": [*model, backup]}]


def test_stage_verify_embeds_each_distinct_text_once(corpus_path, monkeypatch):
    # k = 1 and six pairs per document leave more than EMBED_BLOCK rows that
    # no model candidate hits, so the second pass takes two blocks
    config = make_config(verify=VerifyConfig(k=1))
    config.pairing.pairs_per_document = 6
    store, candidate_rows, index = candidate_inputs(corpus_path, config)
    retrieved = brute_force_retrieved(
        index, [c["text"] for row in candidate_rows for c in row["candidates"]], 1)
    rows = with_borrowed_backup(candidate_rows, retrieved)
    model = list(dict.fromkeys(c["text"] for row in rows for c in of_origin(row, ORIGIN_MODEL)))
    missed = [row for row in rows if not model_hit(row, retrieved)]
    backups = list(dict.fromkeys(c["text"] for row in missed
                                 for c in of_origin(row, ORIGIN_BACKUP) if c["text"] not in model))
    assert 0 < len(missed) < len(rows)
    assert EMBED_BLOCK < len(backups) < len(missed)  # the borrowed backup is skipped

    verdicts = []

    def recording_verify(candidate, pair, retrieved):
        verdict = verify_query(candidate, pair, retrieved)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(pipeline, "verify_query", recording_verify)
    healthy = CountingEmbedder()
    stage_verify(store, rows, config, provider=healthy, index=index)
    # every distinct model text once, then once each distinct backup that the
    # rule reads and the first pass did not retrieve
    assert [t for call in healthy.calls for t in call] == model + backups
    model_calls = -(-len(model) // EMBED_BLOCK)
    assert len(healthy.calls) <= model_calls + -(-len(backups) // EMBED_BLOCK)
    # each candidate row the backup rule reads reaches verify_query as it is,
    # not a copy: the model candidates of a row that one of them hits, else
    # the row's backups
    expected = [c for row in rows for c in of_origin(
        row, ORIGIN_BACKUP if row in missed else ORIGIN_MODEL)]
    assert len(verdicts) == len(expected)
    assert all(v.candidate is c for v, c in zip(verdicts, expected))
    verdicts.clear()

    # an embedding failure in either pass stops the stage: no verdicts, and the
    # failing block is not retried text by text
    for bad, calls_made in ((model[-1], model_calls), (backups[EMBED_BLOCK], model_calls + 2)):
        failing = CountingEmbedder(fail_on=bad)
        with pytest.raises(EmbeddingError):
            stage_verify(store, rows, config, provider=failing, index=index)
        assert failing.calls == healthy.calls[:calls_made]
        assert verdicts == []


@pytest.mark.parametrize("block", [1, 7])
def test_stage_verify_in_blocks_retrieves_each_distinct_text_once(verify_inputs, monkeypatch,
                                                                   block):
    # blocks that share one map from text to ids embed each distinct text
    # once in all, and verify_query gets what one block gives it
    config, store, candidate_rows, index = verify_inputs
    verified = []

    def recording_verify(candidate, pair, retrieved):
        verified.append((candidate, pair.d1.id, pair.d2.id, retrieved))
        return verify_query(candidate, pair, retrieved)

    monkeypatch.setattr(pipeline, "verify_query", recording_verify)
    whole = CountingEmbedder()
    expected = stage_verify(store, candidate_rows, config, provider=whole, index=index)
    whole_verified = list(verified)
    verified.clear()

    def in_blocks(provider, retrieved):
        instances, counts = [], Counter()
        for start in range(0, len(candidate_rows), block):
            part, part_counts = stage_verify(store, candidate_rows[start:start + block], config,
                                             provider, index, retrieved)
            instances += part
            counts.update(part_counts)
        return instances, dict(counts)

    shared, retrieved = CountingEmbedder(), {}
    assert in_blocks(shared, retrieved) == expected
    texts = [t for call in shared.calls for t in call]
    assert len(texts) == len(set(texts)) == len(retrieved)
    assert sorted(texts) == sorted(t for call in whole.calls for t in call)
    assert verified == whole_verified
    # a map per block would embed some texts again
    fresh = CountingEmbedder()
    for start in range(0, len(candidate_rows), block):
        stage_verify(store, candidate_rows[start:start + block], config, fresh, index)
    assert sum(map(len, fresh.calls)) > len(texts)


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("task", ["mqa", "fever"])
def test_stage_verify_equals_verifying_every_candidate(corpus_path, task, k):
    config = make_config(task=task, verify=VerifyConfig(k=k))
    store, candidate_rows, index = candidate_inputs(corpus_path, config)
    retrieved = brute_force_retrieved(
        index, [c["text"] for row in candidate_rows for c in row["candidates"]], k)
    rows = with_borrowed_backup(candidate_rows, retrieved)

    # the reference shares no code with verification: every candidate's
    # brute-force top-k, then the rule oracle, which applies the backup rule
    expected, drops = [], Counter()
    for row in rows:
        candidates = [
            {**c, "origin": "model" if c["origin"] == ORIGIN_MODEL else "backup",
             "valid": bool({row["d1"], row["d2"]} & set(ids)),
             "hit_d1": row["d1"] in ids, "hit_d2": row["d2"] in ids,
             "retrieved_texts": [store.documents[i].text for i in ids]}
            for c in row["candidates"] for ids in [retrieved[c["text"]]]
        ]
        hops, reason = oracle_assemble(candidates, row["hops"], row["answerable_in"],
                                       row["final_answer"], row["relation"], task,
                                       normalize_answer)
        if reason is not None:
            drops[reason] += 1
            continue
        digest = hashlib.sha256(row["question"].encode("utf-8")).hexdigest()[:8]
        expected.append({
            "id": f"{task}-{row['relation']}-{row['d1']}-{row['d2']}-{digest}",
            "task": task, "relation": row["relation"], "question_or_claim": row["question"],
            "hops": tuple((c["text"], retrieved[c["text"]]) for c in hops),
            "answer": row["final_answer"], "source_pair": (row["d1"], row["d2"]),
        })

    instances, counts = stage_verify(store, rows, config, provider=HashEmbedder(dim=256),
                                     index=index)
    assert [asdict(instance) for instance in instances] == expected
    assert counts == {"attempts": len(rows), "emitted": len(expected),
                      **{reason: drops[reason] for reason in pipeline.DROP_REASONS}}


class OutageSession:
    """An embedding endpoint that refuses every connection; counts the requests."""

    def __init__(self):
        self.requests = 0

    def post(self, path, body):
        self.requests += 1
        raise ConnectionRefusedError("endpoint down")


def test_stage_verify_raises_when_the_embedding_endpoint_is_down(verify_inputs, monkeypatch):
    config, store, candidate_rows, index = verify_inputs
    sleeps = []
    monkeypatch.setattr(httpjson.time, "sleep", sleeps.append)
    session = OutageSession()
    provider = HttpEmbedder("http://127.0.0.1:9", session=session)
    with pytest.raises(EmbeddingError, match="3 attempts"):
        stage_verify(store, candidate_rows, config, provider=provider, index=index)
    assert session.requests == 3
    assert sleeps == [0.2, 0.4]


class EmbeddingSession:
    """An embedding endpoint answering with HashEmbedder vectors; records each request."""

    def __init__(self):
        self.inner = HashEmbedder(dim=256)
        self.requests: list[list[str]] = []

    def post(self, path, data):
        body = json.loads(data)
        self.requests.append(body["texts"])
        return {"vectors": [v.tolist() for v in self.inner(body["texts"])]}


def test_build_index_matrix_matches_the_reference_embedder(corpus_path):
    store = build_store(corpus_path, make_config())
    index = build_index(store, HashEmbedder(dim=256))
    texts = [store.documents[doc_id].text for doc_id in index.doc_ids]
    assert index.matrix.tobytes() == np.vstack(OracleHashEmbedder(256)(texts)).tobytes()


def test_build_index_sends_the_corpus_in_blocks(tmp_path):
    path = write_corpus(tmp_path / "corpus.jsonl", make_corpus(n_docs=130, seed=5, n_topics=4))
    store = build_store(path, make_config())
    session = EmbeddingSession()
    index = build_index(store, HttpEmbedder("http://127.0.0.1:9", session=session))
    assert [len(texts) for texts in session.requests] == [64, 64, 2]  # ceil(130 / 64) requests
    texts = [store.documents[doc_id].text for doc_id in sorted(store.documents)]
    assert [text for request in session.requests for text in request] == texts
    assert index.matrix.tobytes() == build_index(store, HashEmbedder(dim=256)).matrix.tobytes()


def test_store_round_trips_line_separator_characters(tmp_path):
    # U+2028, U+2029 and U+0085 are written raw, and are not line breaks
    records = make_corpus(n_docs=20, seed=6, n_topics=2)
    for record, mark in zip(records, "\u2028\u2029\x85"):
        record["text"] = record["text"].replace(" is ", f" is{mark}", 1)
    path = write_corpus(tmp_path / "corpus.jsonl", records)
    run_all(path, tmp_path / "out", make_config())
    store = build_store(tmp_path / "out" / "store.jsonl", make_config())
    for record, mark in zip(records, "\u2028\u2029\x85"):
        assert mark in store.documents[record["id"]].text
    assert store.documents == build_store(path, make_config()).documents


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
    config = make_config(examples=str(override))
    store = build_store(corpus_path, config)
    pair_rows, _ = stage_pair(store, config)

    seen_prompts = []

    class Spy:
        def raw_complete(self, text, params):
            seen_prompts.append(text)
            return ""

    stage_questions(store, pair_rows[:2], config, Spy(), build_recognizer(config),
                    build_examples(config))
    assert seen_prompts
    assert all("Custom question?" in p for p in seen_prompts)


@pytest.mark.parametrize("text, message", [
    ("", ": no few-shot examples"),
    ("{bad\n", ":1: invalid JSON"),
], ids=["empty", "malformed"])
def test_run_all_refuses_a_bad_examples_store_before_the_corpus(tmp_path, corpus_path,
                                                              monkeypatch, text, message):
    called = []
    monkeypatch.setattr(pipeline, "build_store", lambda *args: called.append("build_store"))
    monkeypatch.setattr(pipeline, "stage_pair", lambda *args, **kw: called.append("stage_pair"))
    examples = tmp_path / "examples.jsonl"
    examples.write_text(text)
    with pytest.raises(InputError) as raised:
        run_all(corpus_path, tmp_path / "out", make_config(examples=str(examples)))
    assert str(raised.value).startswith(f"{examples}{message}")
    assert called == []
    assert not (tmp_path / "out").exists()


def test_run_all_loads_the_examples_store_once(tmp_path, corpus_path, monkeypatch):
    examples = tmp_path / "examples.jsonl"
    examples.write_text("".join(
        json.dumps({"documents": list(e.documents), "question": e.question_or_claim,
                    "answer": e.answer, "queries": list(e.queries)}) + "\n"
        for e in builtin_examples("mqa", "hyper")
    ))
    opened = []
    read = promptkit.read_numbered_rows
    monkeypatch.setattr(promptkit, "read_numbered_rows",
                        lambda path, *args, **kw: opened.append(path) or read(path, *args, **kw))
    run_all(corpus_path, tmp_path / "out", make_config(examples=str(examples)))
    # every prompt stage rendered over the store, which was read once
    assert [path for path in opened if path == str(examples)] == [str(examples)]


def test_run_all_with_examples_parses_no_builtin_set(tmp_path, corpus_path, monkeypatch):
    examples = tmp_path / "examples.jsonl"
    examples.write_text("".join(
        json.dumps({"documents": list(e.documents), "question": e.question_or_claim,
                    "answer": e.answer, "queries": list(e.queries)}) + "\n"
        for e in builtin_examples("mqa", "hyper")
    ))
    promptkit._load_builtin.cache_clear()
    opened = []
    read = promptkit.read_numbered_rows
    monkeypatch.setattr(promptkit, "read_numbered_rows",
                        lambda path, *args, **kw: opened.append(path) or read(path, *args, **kw))
    report = run_all(corpus_path, tmp_path / "out", make_config(examples=str(examples)))
    assert report["counters"]["emitted"] > 0
    assert opened == [str(examples)]  # no hopsynth/data/*.jsonl


def test_run_eval_fever_accuracy(tmp_path, corpus_path):
    from hopsynth.mockllm import GoldScriptRule
    from hopsynth.genbackend import MockBackend
    from hopsynth.pipeline import run_eval

    records = json.loads(json.dumps(make_corpus(n_docs=8, seed=2, n_topics=2)))
    eval_corpus = tmp_path / "fever_corpus.jsonl"
    write_corpus(eval_corpus, records)
    items, script = [], {}
    labels = ["SUPPORTS", "REFUTES", "NOT ENOUGH INFO", "SUPPORTS", "REFUTES"]
    for i, label in enumerate(labels):
        question = f"Claim number {i} about {records[i]['title']}."
        items.append({"id": f"c{i}", "question": question, "label": label})
        predicted = label if i != 3 else "REFUTES"  # one deliberate miss
        if i != 4:  # and one episode without an answer, which scores as wrong
            script[question] = {"queries": [records[i]["title"]], "answer": predicted}
    eval_path = tmp_path / "fever_eval.jsonl"
    eval_path.write_text("".join(json.dumps(i) + "\n" for i in items))

    config = make_config(task="fever")
    backend = MockBackend(rule=GoldScriptRule(script))
    report = run_eval(eval_path, eval_corpus, config, backend=backend)
    assert report["accuracy"] == 60.0
    assert report["items"][4] == {"id": "c4", "prediction": "", "gold": "REFUTES"}


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

    config = make_config()
    config.eval.mode = "self_consistency"
    config.eval.self_consistency_samples = 5
    backend = MockBackend(rule=GoldScriptRule(script))
    report = run_eval(eval_path, eval_corpus, config, backend=backend)
    assert report["em"] == 100.0


class SeededTurnRule:
    """Each turn's line drawn from (prompt, seed): mostly a query naming one
    of a few titles, so queries repeat within a round, else an
    answer, an empty line or a bare line. Sampled episodes of one question
    therefore differ."""

    def __init__(self, titles, answers):
        self.titles, self.answers = titles, answers

    def __call__(self, prompt, seed):
        rng = random.Random(f"{seed}|{prompt}")
        roll = rng.random()
        if roll < 0.55:
            return f"Query: {rng.choice(self.titles)}\n"
        if roll < 0.9:
            return f"Answer: {rng.choice(self.answers)}\n"
        return "" if roll < 0.95 else "a bare line"


class RecordingBackend:
    def __init__(self, rule):
        self.inner, self.requests = MockBackend(rule=rule), Counter()

    def raw_complete(self, text, params):
        self.requests[text, params.seed] += 1
        return self.inner.raw_complete(text, params)


def _per_turn_oracle_eval(items, corpus, config, backend):
    """run_eval with each episode played by itself through `oracle_episode`:
    one completion per turn, one mat-vec top-k per query."""
    store = build_store(corpus, config)
    provider = build_embedder(config)
    index = build_index(store, provider)
    sampled = config.eval.mode == "self_consistency"
    params = default_decode_params(EVAL_SELF_CONSISTENCY if sampled else EVAL_GREEDY)
    gold_field = "label" if config.task == "fever" else "answer"
    records, varied, hops = [], False, Counter()
    for item in items:
        if sampled:
            seeds = [derive_seed(config.seed, "eval", item["id"], s)
                     for s in range(config.eval.self_consistency_samples)]
        else:
            seeds = [derive_seed(config.seed, "eval", item["id"])]
        answers = []
        for seed in seeds:
            turns, _, _, answer, _ = oracle_episode(
                item["question"], backend, params.with_seed(seed), index, provider,
                config.eval.k, config.eval.max_hops, lambda doc_id: store.documents[doc_id].text,
            )
            answers.append(answer or "")
            hops[len(turns)] += 1
        varied |= len(set(answers)) > 1
        records.append({"id": item["id"], "prediction": self_consistency(answers),
                        "gold": item[gold_field]})
    predictions, golds = [r["prediction"] for r in records], [r["gold"] for r in records]
    if config.task == "fever":
        report = {"accuracy": score_fever(predictions, golds)}
    else:
        em, f1 = score_qa(predictions, golds)
        report = {"em": em, "f1": f1}
    report["items"] = records
    return report, varied, hops


@pytest.mark.parametrize("max_hops", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("mode", ["greedy", "self_consistency"])
@pytest.mark.parametrize("task", ["mqa", "fever"])
def test_run_eval_equals_the_per_turn_oracle(tmp_path, monkeypatch, task, mode, block, max_hops):
    records = make_corpus(n_docs=40, seed=6, n_topics=4)
    corpus = write_corpus(tmp_path / "corpus.jsonl", records)
    gold_field = "label" if task == "fever" else "answer"
    golds = FEVER_LABELS if task == "fever" else [r["title"] for r in records[:6]]
    items = [{"id": f"q{i}", "question": f"What links {records[i]['title']}?",
              gold_field: golds[i % len(golds)]} for i in range(23)]
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text("".join(json.dumps(item) + "\n" for item in items))
    rule = SeededTurnRule([r["title"] for r in records[:5]], golds)
    config = make_config(task=task)
    config.eval.mode, config.eval.self_consistency_samples, config.eval.k = mode, 3, 3
    config.eval.max_hops = max_hops
    monkeypatch.setattr(retrieval, "EMBED_BLOCK", block)

    backend = RecordingBackend(rule)
    report = run_eval(eval_path, corpus, config, backend=backend)
    reference_backend = RecordingBackend(rule)
    expected, varied, hops = _per_turn_oracle_eval(items, corpus, config, reference_backend)
    assert json.dumps(report) == json.dumps(expected)
    # each (prompt, seed) is completed once, and the requests are the reference's
    assert max(backend.requests.values()) == 1
    assert backend.requests == reference_backend.requests
    assert varied == (mode == "self_consistency")
    # episodes end at every hop count, the hop limit's included
    assert set(hops) == set(range(max_hops + 1))


def test_run_eval_backend_outage_raises(tmp_path):
    # an outage fails the run; it is never scored as a wrong answer
    from hopsynth.genbackend import BackendUnavailable, MockBackend
    from hopsynth.mockllm import GoldScriptRule
    from hopsynth.pipeline import run_eval

    records = make_corpus(n_docs=6, seed=8, n_topics=2)
    eval_corpus = write_corpus(tmp_path / "corpus.jsonl", records)
    question = f"What covers {records[0]['title']}?"
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text(json.dumps({"id": "q0", "question": question, "answer": "gold"}) + "\n")
    scripted = MockBackend(rule=GoldScriptRule(
        {question: {"queries": [records[0]["title"]], "answer": "gold"}}
    ))

    class DownOnSecondCall:
        calls = 0

        def raw_complete(self, text, params):
            self.calls += 1
            if self.calls == 2:
                raise BackendUnavailable("endpoint down")
            return scripted.raw_complete(text, params)

    assert run_eval(eval_path, eval_corpus, make_config(), backend=scripted)["em"] == 100.0
    backend = DownOnSecondCall()
    with pytest.raises(BackendUnavailable):
        run_eval(eval_path, eval_corpus, make_config(), backend=backend)
    assert backend.calls == 2


class RefusingEmbedder:
    """The mock embedder, raising EmbeddingError on a call that holds one of
    the `refused` texts."""

    def __init__(self, inner, refused):
        self.inner, self.refused, self.calls = inner, refused, 0

    def __call__(self, texts):
        self.calls += 1
        if self.refused & set(texts):
            raise EmbeddingError("bad payload")
        return self.inner(texts)


class DownOnSecondTurn:
    """A scripted backend whose endpoint goes down on the first second-turn
    completion; it keeps the prompts it was asked for."""

    def __init__(self, rule):
        self.inner, self.prompts = MockBackend(rule=rule), []

    def raw_complete(self, text, params):
        self.prompts.append(text)
        if "\nQuery: " in text:
            raise BackendUnavailable("endpoint down")
        return self.inner.raw_complete(text, params)


@pytest.mark.parametrize("failure", ["embedding", "backend"])
def test_run_eval_later_round_failure_stops_the_run(tmp_path, monkeypatch, failure):
    # an infrastructure failure after the openings fails the run; it is never
    # scored as a wrong answer, and the CLI writes no report
    records = make_corpus(n_docs=20, seed=8, n_topics=2)
    corpus = write_corpus(tmp_path / "corpus.jsonl", records)
    script = {f"What links {r['title']}?": {"queries": [r["title"], f"{r['title']} again"],
                                            "answer": r["title"]} for r in records[:12]}
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text("".join(json.dumps({"id": f"q{i}", "question": q, "answer": "x"}) + "\n"
                                 for i, q in enumerate(script)))
    config = make_config()
    rule = GoldScriptRule(script)
    second_queries = {entry["queries"][1] for entry in script.values()}

    def clients():
        if failure == "embedding":
            return MockBackend(rule=rule), RefusingEmbedder(build_embedder(config), second_queries)
        return DownOnSecondTurn(rule), build_embedder(config)

    error = EmbeddingError if failure == "embedding" else BackendUnavailable
    backend, provider = clients()
    with pytest.raises(error):
        run_eval(eval_path, corpus, config, backend=backend, provider=provider)
    if failure == "embedding":
        assert provider.calls == 3  # the index, the openings, then the second queries
    else:
        # every episode's first turn was completed before any second turn
        assert len(backend.prompts) == len(script) + 1
        assert [p.count("\nQuery: ") for p in backend.prompts] == [0] * len(script) + [1]

    backend, provider = clients()
    monkeypatch.setattr(pipeline, "build_backend", lambda _: backend)
    monkeypatch.setattr(pipeline, "build_embedder", lambda _: provider)
    out = tmp_path / "out" / "report.json"
    assert main(["--seed", "11", "eval", "--in", str(eval_path), "--corpus", str(corpus),
                 "--out", str(out)]) == 2
    assert not out.parent.exists()


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


DEMO = Path(__file__).resolve().parents[1] / "demo"


def _chain_from_questions(store, pair_rows, config, index):
    """Each pair row's outcome, keyed by (d1, d2, relation): its instance or
    the drop reason a stage counted for it, and the stages' summed counters,
    from `stage_questions` to `stage_verify` over `pair_rows` with fresh
    clients and the shared index."""
    outcomes = {}
    run_steps = pipeline._run_steps

    def recording(items, step):
        def recorded(item):
            result = step(item)
            if isinstance(result, str):
                row = item[0] if isinstance(item, tuple) else item  # questions: (row, draft)
                outcomes[row["d1"], row["d2"], row["relation"]] = result
            return result
        return run_steps(items, recorded)

    backend, recognizer = build_backend(config), build_recognizer(config)
    provider = build_embedder(config)
    pipeline._run_steps = recording
    try:
        rows, questions = stage_questions(store, pair_rows, config, backend, recognizer)
        rows, answers = stage_filter_answers(store, rows, config, backend)
        rows, queries = stage_queries(store, rows, config, backend)
        instances, verify = stage_verify(store, rows, config, provider, index)
    finally:
        pipeline._run_steps = run_steps
    for instance in instances:
        outcomes[(*instance.source_pair, instance.relation)] = instance
    return outcomes, Counter(questions) + Counter(answers) + Counter(queries) + Counter(verify)


@pytest.mark.parametrize("task", ["mqa", "fever"])
@pytest.mark.parametrize("source", ["demo", "synthcorpus"])
def test_pair_rows_alone_give_the_full_runs_outcomes(tmp_path, source, task):
    """A pair row's instance or drop reason does not depend on the other
    rows. Alone, a row's candidates are searched in blocks of two or three
    texts; in the full run, in blocks of up to 64. Every row, run alone with
    fresh clients and the shared index, gives the full run's outcome, and
    the single-row counters sum to the full run's."""
    if source == "demo":
        path, config = DEMO / "corpus.jsonl", parse_config_file(DEMO / "config.txt")
    else:
        path, config = tmp_path / "corpus.jsonl", make_config()
        write_corpus(path, make_corpus(n_docs=300, seed=5, n_topics=12))
    config.task = task
    store = build_store(path, config)
    index = build_index(store, build_embedder(config))
    pair_rows, _ = stage_pair(store, config)
    if task == "mqa":
        assert {row["relation"] for row in pair_rows} == {"hyper", "topic"}
    full, full_counts = _chain_from_questions(store, pair_rows, config, index)
    assert len(full) == len(pair_rows)
    assert any(isinstance(o, str) for o in full.values())
    assert any(not isinstance(o, str) for o in full.values())

    alone_counts = Counter()
    for row in pair_rows:
        alone, counts = _chain_from_questions(store, [row], config, index)
        key = row["d1"], row["d2"], row["relation"]
        assert alone == {key: full[key]}, key
        alone_counts += counts
    assert alone_counts == full_counts
