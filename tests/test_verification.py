import random

import numpy as np
import pytest

from hopsynth.corpus import CorpusStore, Document
from hopsynth.metrics import normalize_answer
from hopsynth.pairing import DocumentPair
from hopsynth.retrieval import EmbeddingError, build_flat_index
from hopsynth.synthesis import HopDecision, QueryCandidate, QuestionDraft
from hopsynth.verification import (
    DataInstance,
    QueryVerdict,
    VerifyConfig,
    assemble_instance,
    consult_backup_rule,
    dedup_queries,
    finalize_instance,
    finalize_with_reason,
    retrieve_queries,
    validate_instance,
    verify_query,
)

from oracles import oracle_dedup


def make_store(texts: dict, topics=None):
    docs = {
        doc_id: Document(doc_id, f"Title {doc_id}", text, (), (topics or {}).get(doc_id))
        for doc_id, text in texts.items()
    }
    clusters = {}
    for doc_id, topic in (topics or {}).items():
        clusters.setdefault(topic, set()).add(doc_id)
    return CorpusStore(
        documents=docs,
        title_index={d.title: d.id for d in docs.values()},
        link_graph={doc_id: set() for doc_id in docs},
        topic_clusters=clusters,
    )


def make_pair(store, a="D1", b="D2", relation="hyper"):
    return DocumentPair(store.documents[a], store.documents[b], relation)


def vd(text, hits=(), origin="model", rank=0, retrieved=None, k_fill=0):
    retrieved = list(retrieved if retrieved is not None else hits)
    retrieved += [f"filler{i}" for i in range(k_fill)]
    return QueryVerdict(
        candidate=QueryCandidate(text, origin, rank),
        valid=bool(hits),
        hit_d1="D1" in hits,
        hit_d2="D2" in hits,
        retrieved_ids=tuple(retrieved),
    )


def test_verify_query_hit_flags():
    vectors = {
        "D1": np.array([1.0, 0.0], dtype=np.float32),
        "D2": np.array([0.0, 1.0], dtype=np.float32),
        "D3": np.array([-1.0, -1.0], dtype=np.float32),
    }
    index = build_flat_index(list(vectors), [vectors[k] for k in vectors])
    queries = {
        "toward d1": np.array([1.0, -0.5], dtype=np.float32),
        "toward both": np.array([1.0, 1.0], dtype=np.float32),
        "toward nothing": np.array([-1.0, -1.0], dtype=np.float32),
    }

    def provider(texts):
        return [queries[t] for t in texts]

    store = make_store({"D1": "one", "D2": "two", "D3": "three"})
    pair = make_pair(store)
    top1 = retrieve_queries(list(queries), index, provider, k=1)
    got = verify_query(QueryCandidate("toward d1", "model", 0), pair, top1["toward d1"])
    assert (got.valid, got.hit_d1, got.hit_d2) == (True, True, False)
    got = verify_query(QueryCandidate("toward nothing", "model", 0), pair, top1["toward nothing"])
    assert not got.valid and got.retrieved_ids == ("D3",)
    top2 = retrieve_queries(["toward both"], index, provider, k=2)
    got = verify_query(QueryCandidate("toward both", "model", 0), pair, top2["toward both"])
    assert (got.valid, got.hit_d1, got.hit_d2) == (True, True, True)


def test_verify_query_embedding_failure_is_invalid(caplog):
    def provider(texts):
        raise EmbeddingError("backend down")

    store = make_store({"D1": "one", "D2": "two"})
    index = build_flat_index(["D1"], [np.zeros(2, dtype=np.float32)])
    retrieved = retrieve_queries(["q"], index, provider, k=7)
    assert isinstance(retrieved["q"], EmbeddingError)
    with caplog.at_level("WARNING"):
        got = verify_query(QueryCandidate("q", "model", 0), make_pair(store), retrieved["q"])
    assert not got.valid and got.retrieved_ids == ()
    assert any("invalid" in r.message for r in caplog.records)


def test_non_finite_query_vector_is_invalid():
    def provider(texts):
        return [np.array([np.nan if t == "bad" else 1.0, 0.0], dtype=np.float32) for t in texts]

    store = make_store({"D1": "one", "D2": "two"})
    index = build_flat_index(["D1", "D2"], [np.eye(2, dtype=np.float32)[i] for i in range(2)])
    retrieved = retrieve_queries(["good", "bad"], index, provider, k=1)
    assert retrieved["good"] == ("D1",)
    assert isinstance(retrieved["bad"], ValueError)
    got = verify_query(QueryCandidate("bad", "model", 0), make_pair(store), retrieved["bad"])
    assert not got.valid


def test_dedup_keeps_shortest():
    q1 = vd("long query", hits=("D2",), rank=0)  # len 10
    q2 = vd("short", hits=("D2",), rank=1)  # len 5
    assert dedup_queries([q1, q2]) == [q2]


def test_dedup_different_targets_both_kept():
    q1 = vd("alpha", hits=("D1",), rank=0)
    q2 = vd("beta", hits=("D2",), rank=1)
    assert dedup_queries([q1, q2]) == [q1, q2]


def test_dedup_all_invalid():
    assert dedup_queries([vd("a"), vd("b")]) == []


def test_dedup_tie_breaks():
    # equal length: lower rank wins
    q1 = vd("aaaa", hits=("D1",), rank=0)
    q2 = vd("bbbb", hits=("D1",), rank=1)
    assert dedup_queries([q1, q2]) == [q1]
    # equal length: model beats backup even at higher rank
    backup = vd("cccc", hits=("D1",), origin="original_question_backup", rank=0)
    model = vd("dddd", hits=("D1",), rank=1)
    assert dedup_queries([backup, model]) == [model]


def test_dedup_transitive_merge():
    q1 = vd("hits d1 only!", hits=("D1",), rank=0)  # len 13
    q2 = vd("bridges both", hits=("D1", "D2"), rank=1)  # len 12
    q3 = vd("d2 only", hits=("D2",), rank=2)  # len 7
    assert dedup_queries([q1, q2, q3]) == [q3]


def test_dedup_preserves_generation_order():
    q1 = vd("bb", hits=("D2",), rank=0)
    q2 = vd("a", hits=("D1",), rank=1)
    assert [v.candidate.text for v in dedup_queries([q1, q2])] == ["bb", "a"]


def test_dedup_matches_oracle_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        verdicts = []
        for rank in range(rng.randint(0, 5)):
            hits = tuple(
                d for d in ("D1", "D2") if rng.random() < 0.45
            )
            verdicts.append(
                vd(
                    "q" * rng.randint(1, 12),
                    hits=hits,
                    origin="model" if rank < 4 else "original_question_backup",
                    rank=rank,
                )
            )
        got = dedup_queries(verdicts)
        expected = oracle_dedup(
            [
                {
                    "text": v.candidate.text,
                    "origin": "backup" if v.candidate.origin != "model" else "model",
                    "rank": v.candidate.generation_rank,
                    "valid": v.valid,
                    "hit_d1": v.hit_d1,
                    "hit_d2": v.hit_d2,
                }
                for v in verdicts
            ]
        )
        assert [(v.candidate.text, v.candidate.generation_rank) for v in got] == [
            (e["text"], e["rank"]) for e in expected
        ]
        # no two survivors share a pair document
        for i in range(len(got)):
            for j in range(i + 1, len(got)):
                assert not (got[i].hit_d1 and got[j].hit_d1)
                assert not (got[i].hit_d2 and got[j].hit_d2)


def test_consult_backup_rule():
    model_valid = vd("m", hits=("D1",), rank=0)
    model_invalid = vd("x", rank=1)
    backup = vd("q?", hits=("D2",), origin="original_question_backup", rank=2)
    assert consult_backup_rule([model_valid, model_invalid, backup]) == [model_valid, model_invalid]
    assert consult_backup_rule([model_invalid, backup]) == [backup]


def two_hop_fixture(answer="Boston Celtics", last_hop_text="the Boston Celtics legend"):
    store = make_store({"D1": "Pacers season text", "D2": last_hop_text, "F": "noise"})
    pair = make_pair(store)
    draft = QuestionDraft(pair=pair, task="mqa", text="Which team?", prepared_answer=answer)
    decision = HopDecision("keep", "two", frozenset({"both"}), answer)
    return store, pair, draft, decision


def test_finalize_two_hop_instance():
    store, pair, draft, decision = two_hop_fixture()
    verdicts = [
        vd("query one", hits=("D1",), rank=0, retrieved=("D1", "F")),
        vd("query two", hits=("D2",), rank=1, retrieved=("D2", "F")),
    ]
    instance = finalize_instance(draft, decision, verdicts, store, VerifyConfig(k=7))
    assert instance is not None
    assert instance.single_or_two == "two"
    assert instance.hops == (("query one", ("D1", "F")), ("query two", ("D2", "F")))
    assert instance.answer == "Boston Celtics"
    assert instance.source_pair == ("D1", "D2")


def test_finalize_two_hop_coverage_failure():
    store, pair, draft, decision = two_hop_fixture()
    verdicts = [vd("query one", hits=("D1",), rank=0)]
    instance, reason = finalize_with_reason(draft, decision, verdicts, store, VerifyConfig())
    assert instance is None and reason == "two_hop_coverage"


def test_finalize_containment_failure():
    store, pair, draft, decision = two_hop_fixture(last_hop_text="no answer here at all")
    verdicts = [
        vd("query one", hits=("D1",), rank=0, retrieved=("D1",)),
        vd("query two", hits=("D2",), rank=1, retrieved=("D2",)),
    ]
    instance, reason = finalize_with_reason(draft, decision, verdicts, store, VerifyConfig())
    assert instance is None and reason == "answer_containment"


def test_finalize_containment_uses_normalization():
    store, pair, draft, decision = two_hop_fixture(
        answer="The Boston Celtics", last_hop_text="retired from boston celtics."
    )
    verdicts = [
        vd("q1", hits=("D1",), rank=0, retrieved=("D1",)),
        vd("q2", hits=("D2",), rank=1, retrieved=("D2",)),
    ]
    instance, reason = finalize_with_reason(draft, decision, verdicts, store, VerifyConfig())
    assert reason is None
    assert normalize_answer(instance.answer) in normalize_answer(store.documents["D2"].text)


def test_finalize_fever_skips_containment():
    store = make_store({"D1": "claim source", "D2": "nothing relevant"})
    pair = make_pair(store)
    draft = QuestionDraft(pair=pair, task="fever", text="Claim.", prepared_answer="SUPPORTS")
    decision = HopDecision("keep", "two", frozenset({"both"}), "SUPPORTS")
    verdicts = [vd("a", hits=("D1",), rank=0), vd("b", hits=("D2",), rank=1)]
    instance = finalize_instance(draft, decision, verdicts, store, VerifyConfig())
    assert instance is not None and instance.task == "fever"


def test_finalize_one_hop_targets_answerable_document():
    store = make_store({"D1": "has the Boston Celtics", "D2": "other text"})
    pair = make_pair(store)
    draft = QuestionDraft(pair=pair, task="mqa", text="Q?", prepared_answer="Boston Celtics")
    decision = HopDecision("keep", "one", frozenset({"both", "first"}), "Boston Celtics")
    # first survivor hits the wrong document; the d1 hitter must be chosen
    verdicts = [
        vd("wrong target", hits=("D2",), rank=0, retrieved=("D2",)),
        vd("right target", hits=("D1",), rank=1, retrieved=("D1",)),
    ]
    instance = finalize_instance(draft, decision, verdicts, store, VerifyConfig())
    assert instance is not None
    assert instance.hops == (("right target", ("D1",)),)
    assert instance.single_or_two == "single"
    # and with no d1 hitter at all, the draft drops
    instance, reason = finalize_with_reason(
        draft, decision, [vd("wrong", hits=("D2",), rank=0)], store, VerifyConfig()
    )
    assert instance is None and reason == "one_hop_coverage"


def test_finalize_two_hop_single_query_covering_both():
    store, pair, draft, decision = two_hop_fixture()
    verdicts = [vd("covers both docs", hits=("D1", "D2"), rank=0, retrieved=("D1", "D2"))]
    instance = finalize_instance(draft, decision, verdicts, store, VerifyConfig())
    assert instance is not None
    assert len(instance.hops) == 1
    assert instance.single_or_two == "single"


def test_assemble_backup_only_when_all_models_invalid():
    store, pair, draft, decision = two_hop_fixture()
    backup = vd(
        "Which team?", hits=("D1", "D2"), origin="original_question_backup",
        rank=2, retrieved=("D1", "D2"),
    )
    # a valid model candidate exists: backup must not appear in hops
    model = vd("model q", hits=("D1", "D2"), rank=0, retrieved=("D1", "D2"))
    instance, _ = assemble_instance(draft, decision, [model, backup], store, VerifyConfig())
    assert instance is not None
    assert all(q != "Which team?" for q, _ in instance.hops)
    # all models invalid: backup carries hop one
    dead_model = vd("model q", rank=0)
    instance, _ = assemble_instance(draft, decision, [dead_model, backup], store, VerifyConfig())
    assert instance is not None
    assert instance.hops[0][0] == "Which team?"


def test_validate_instance_catches_corruption():
    vectors = {
        "D1": np.array([1.0, 0.0], dtype=np.float32),
        "D2": np.array([0.0, 1.0], dtype=np.float32),
    }
    index = build_flat_index(list(vectors), [vectors[k] for k in vectors])
    queries = {
        "q one": np.array([1.0, 0.0], dtype=np.float32),
        "q two": np.array([0.0, 1.0], dtype=np.float32),
    }

    def provider(texts):
        return [queries[t] for t in texts]

    store = make_store({"D1": "first doc boston celtics", "D2": "second doc"})
    config = VerifyConfig(k=1)
    good = DataInstance(
        id="i1", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D1",)), ("q two", ("D2",))),
        answer="second doc", source_pair=("D1", "D2"), single_or_two="two",
    )
    assert validate_instance(good, store, index, provider, config) == []
    bad_retrieval = DataInstance(
        id="i2", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D2",)), ("q two", ("D2",))),
        answer="second doc", source_pair=("D1", "D2"), single_or_two="two",
    )
    assert validate_instance(bad_retrieval, store, index, provider, config)
    bad_answer = DataInstance(
        id="i3", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D1",)), ("q two", ("D2",))),
        answer="absent answer", source_pair=("D1", "D2"), single_or_two="two",
    )
    assert any("answer" in p for p in validate_instance(bad_answer, store, index, provider, config))
