import dataclasses
import random

import numpy as np
import pytest

from hopsynth.corpus import CorpusStore, Document
from hopsynth.metrics import normalize_answer
from hopsynth.pairing import DocumentPair
from hopsynth.retrieval import EmbeddingError, build_flat_index
from hopsynth.synthesis import QuestionDraft
from hopsynth.verification import (
    DataInstance,
    QueryVerdict,
    VerifyConfig,
    assemble_instance,
    consult_backup_rule,
    dedup_queries,
    retrieve_queries,
    validate_instance,
    verify_query,
)

from oracles import oracle_dedup


def make_store(texts: dict):
    docs = {
        doc_id: Document(doc_id, f"Title {doc_id}", text, (), None)
        for doc_id, text in texts.items()
    }
    return CorpusStore(documents=docs, hyperlinks={doc_id: () for doc_id in docs},
                       topic_clusters={})


def make_pair(store, a="D1", b="D2", relation="hyper"):
    return DocumentPair(store.documents[a], store.documents[b], relation)


def cand(text, origin="model", rank=0):
    return {"text": text, "origin": origin, "rank": rank}


def vd(text, hits=(), origin="model", rank=0, retrieved=None, k_fill=0):
    retrieved = list(retrieved if retrieved is not None else hits)
    retrieved += [f"filler{i}" for i in range(k_fill)]
    return QueryVerdict(
        candidate=cand(text, origin, rank),
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
    got = verify_query(cand("toward d1"), pair, top1["toward d1"])
    assert (got.valid, got.hit_d1, got.hit_d2) == (True, True, False)
    got = verify_query(cand("toward nothing"), pair, top1["toward nothing"])
    assert not got.valid and got.retrieved_ids == ("D3",)
    top2 = retrieve_queries(["toward both"], index, provider, k=2)
    got = verify_query(cand("toward both"), pair, top2["toward both"])
    assert (got.valid, got.hit_d1, got.hit_d2) == (True, True, True)


def test_retrieve_queries_embedding_failure_propagates():
    calls = []

    def provider(texts):
        calls.append(list(texts))
        raise EmbeddingError("backend down")

    index = build_flat_index(["D1"], [np.zeros(2, dtype=np.float32)])
    with pytest.raises(EmbeddingError, match="backend down"):
        retrieve_queries(["q", "r"], index, provider, k=7)
    assert calls == [["q", "r"]]  # the failed block is not re-embedded text by text


@pytest.mark.parametrize("bad_vector,message", [
    (np.array([np.nan, 0.0], dtype=np.float32), "finite"),
    (np.array([1.0, 0.0, 0.0], dtype=np.float32), "dim"),
], ids=["non_finite", "wrong_dim"])
def test_retrieve_queries_rejects_bad_query_vectors(bad_vector, message):
    def provider(texts):
        return [bad_vector if t == "bad" else np.array([1.0, 0.0], dtype=np.float32)
                for t in texts]

    index = build_flat_index(["D1", "D2"], [np.eye(2, dtype=np.float32)[i] for i in range(2)])
    assert retrieve_queries(["good"], index, provider, k=1) == {"good": ("D1",)}
    with pytest.raises(ValueError, match=message):
        retrieve_queries(["good", "bad"], index, provider, k=1)


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
    assert [v.candidate["text"] for v in dedup_queries([q1, q2])] == ["bb", "a"]


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
                    "text": v.candidate["text"],
                    "origin": "backup" if v.candidate["origin"] != "model" else "model",
                    "rank": v.candidate["rank"],
                    "valid": v.valid,
                    "hit_d1": v.hit_d1,
                    "hit_d2": v.hit_d2,
                }
                for v in verdicts
            ]
        )
        assert [(v.candidate["text"], v.candidate["rank"]) for v in got] == [
            (e["text"], e["rank"]) for e in expected
        ]
        # no two survivors share a pair document
        for i in range(len(got)):
            for j in range(i + 1, len(got)):
                assert not (got[i].hit_d1 and got[j].hit_d1)
                assert not (got[i].hit_d2 and got[j].hit_d2)


def test_consult_backup_rule():
    model_hit, model_miss = cand("m", rank=0), cand("x", rank=1)
    backup = cand("q?", origin="original_question_backup", rank=2)
    row = {"d1": "D1", "d2": "D2", "candidates": [model_hit, model_miss, backup]}
    retrieved = {"m": ("F", "D2"), "x": ("F",)}  # the backup's text is not needed
    assert consult_backup_rule(row, retrieved) == [model_hit, model_miss]
    retrieved["m"] = ("F", "D3")
    assert consult_backup_rule(row, retrieved) == [backup]
    # a row without model candidates reads its backups
    assert consult_backup_rule({**row, "candidates": [backup]}, {}) == [backup]


def two_hop_fixture(answer="Boston Celtics", last_hop_text="the Boston Celtics legend"):
    store = make_store({"D1": "Pacers season text", "D2": last_hop_text, "F": "noise"})
    pair = make_pair(store)
    draft = QuestionDraft(pair=pair, task="mqa", text="Which team?", prepared_answer=answer)
    decision = {"hops": "two", "answerable_in": ["both"], "final_answer": answer}
    return store, pair, draft, decision


def test_finalize_two_hop_instance():
    store, pair, draft, decision = two_hop_fixture()
    verdicts = [
        vd("query one", hits=("D1",), rank=0, retrieved=("D1", "F")),
        vd("query two", hits=("D2",), rank=1, retrieved=("D2", "F")),
    ]
    instance = assemble_instance(draft, decision, verdicts, store)
    assert isinstance(instance, DataInstance)
    assert instance.hops == (("query one", ("D1", "F")), ("query two", ("D2", "F")))
    assert instance.answer == "Boston Celtics"
    assert instance.source_pair == ("D1", "D2")


def test_finalize_two_hop_coverage_failure():
    store, pair, draft, decision = two_hop_fixture()
    verdicts = [vd("query one", hits=("D1",), rank=0)]
    assert assemble_instance(draft, decision, verdicts, store) == "two_hop_coverage"


def test_finalize_containment_failure():
    store, pair, draft, decision = two_hop_fixture(last_hop_text="no answer here at all")
    verdicts = [
        vd("query one", hits=("D1",), rank=0, retrieved=("D1",)),
        vd("query two", hits=("D2",), rank=1, retrieved=("D2",)),
    ]
    assert assemble_instance(draft, decision, verdicts, store) == "answer_containment"


def test_finalize_containment_uses_normalization():
    store, pair, draft, decision = two_hop_fixture(
        answer="The Boston Celtics", last_hop_text="retired from boston celtics."
    )
    verdicts = [
        vd("q1", hits=("D1",), rank=0, retrieved=("D1",)),
        vd("q2", hits=("D2",), rank=1, retrieved=("D2",)),
    ]
    instance = assemble_instance(draft, decision, verdicts, store)
    assert isinstance(instance, DataInstance)
    assert normalize_answer(instance.answer) in normalize_answer(store.documents["D2"].text)


def test_containment_normalizes_each_document_once_per_store(monkeypatch):
    from hopsynth import corpus

    normalized = []

    def counting(text):
        normalized.append(text)
        return normalize_answer(text)

    monkeypatch.setattr(corpus, "normalize_answer", counting)
    store, pair, draft, decision = two_hop_fixture(
        answer="The Boston Celtics", last_hop_text="retired from boston celtics."
    )
    verdicts = [
        vd("q1", hits=("D1",), rank=0, retrieved=("D1", "D2")),
        vd("q2", hits=("D2",), rank=1, retrieved=("D2", "D1", "missing")),
    ]
    for _ in range(3):
        assert isinstance(assemble_instance(draft, decision, verdicts, store), DataInstance)
    assert sorted(normalized) == sorted(store.documents[i].text for i in ("D1", "D2"))
    # another store with the same ids keeps its own texts
    other, _, _, _ = two_hop_fixture(answer="The Boston Celtics", last_hop_text="elsewhere")
    assert assemble_instance(draft, decision, verdicts, other) == "answer_containment"


def test_finalize_fever_skips_containment():
    store = make_store({"D1": "claim source", "D2": "nothing relevant"})
    pair = make_pair(store)
    draft = QuestionDraft(pair=pair, task="fever", text="Claim.", prepared_answer="SUPPORTS")
    decision = {"hops": "two", "answerable_in": ["both"], "final_answer": "SUPPORTS"}
    verdicts = [vd("a", hits=("D1",), rank=0), vd("b", hits=("D2",), rank=1)]
    instance = assemble_instance(draft, decision, verdicts, store)
    assert isinstance(instance, DataInstance) and instance.task == "fever"


def test_finalize_one_hop_targets_answerable_document():
    store = make_store({"D1": "has the Boston Celtics", "D2": "other text"})
    pair = make_pair(store)
    draft = QuestionDraft(pair=pair, task="mqa", text="Q?", prepared_answer="Boston Celtics")
    decision = {"hops": "one", "answerable_in": ["both", "first"], "final_answer": "Boston Celtics"}
    # first survivor hits the wrong document; the d1 hitter must be chosen
    verdicts = [
        vd("wrong target", hits=("D2",), rank=0, retrieved=("D2",)),
        vd("right target", hits=("D1",), rank=1, retrieved=("D1",)),
    ]
    instance = assemble_instance(draft, decision, verdicts, store)
    assert isinstance(instance, DataInstance)
    assert instance.hops == (("right target", ("D1",)),)
    # and with no d1 hitter at all, the draft drops
    reason = assemble_instance(draft, decision, [vd("wrong", hits=("D2",), rank=0)], store)
    assert reason == "one_hop_coverage"


def test_finalize_two_hop_single_query_covering_both():
    store, pair, draft, decision = two_hop_fixture()
    verdicts = [vd("covers both docs", hits=("D1", "D2"), rank=0, retrieved=("D1", "D2"))]
    instance = assemble_instance(draft, decision, verdicts, store)
    assert isinstance(instance, DataInstance)
    assert len(instance.hops) == 1


def test_assemble_backup_only_when_all_models_invalid():
    store, pair, draft, decision = two_hop_fixture()
    model = cand("a longer model query", rank=0)
    backup = cand("Which team?", "original_question_backup", rank=1)
    row = {"d1": "D1", "d2": "D2", "candidates": [model, backup]}

    def assemble(retrieved):
        verdicts = [verify_query(c, pair, retrieved[c["text"]])
                    for c in consult_backup_rule(row, retrieved)]
        return assemble_instance(draft, decision, verdicts, store)

    # a valid model candidate exists: the backup is not read, though it is shorter
    instance = assemble({"a longer model query": ("D1", "D2"), "Which team?": ("D1", "D2")})
    assert isinstance(instance, DataInstance)
    assert [q for q, _ in instance.hops] == ["a longer model query"]
    # all models invalid: the backup carries hop one
    instance = assemble({"a longer model query": ("F",), "Which team?": ("D1", "D2")})
    assert isinstance(instance, DataInstance)
    assert instance.hops == (("Which team?", ("D1", "D2")),)


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

    calls = []

    def provider(texts):
        calls.append(list(texts))
        return [queries[t] for t in texts]

    store = make_store({"D1": "first doc boston celtics", "D2": "second doc"})
    config = VerifyConfig(k=1)
    good = DataInstance(
        id="i1", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D1",)), ("q two", ("D2",))),
        answer="second doc", source_pair=("D1", "D2"),
    )
    assert validate_instance(good, store, index, provider, config) == []
    assert calls == [["q one", "q two"]]  # both hops re-retrieved through retrieve_queries
    bad_retrieval = DataInstance(
        id="i2", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D2",)), ("q two", ("D2",))),
        answer="second doc", source_pair=("D1", "D2"),
    )
    assert validate_instance(bad_retrieval, store, index, provider, config)
    bad_answer = DataInstance(
        id="i3", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D1",)), ("q two", ("D2",))),
        answer="absent answer", source_pair=("D1", "D2"),
    )
    assert any("answer" in p for p in validate_instance(bad_answer, store, index, provider, config))


def test_validate_instance_names_each_violation():
    vectors = {doc_id: row for doc_id, row in zip(("D1", "D2", "D3"), np.eye(3, dtype=np.float32))}
    index = build_flat_index(list(vectors), list(vectors.values()))
    queries = {"q one": vectors["D1"], "q two": vectors["D2"], "q three": vectors["D3"]}
    store = make_store({"D1": "first doc", "D2": "second doc", "D3": "third doc"})
    good = DataInstance(
        id="i1", task="mqa", relation="hyper", question_or_claim="Q?",
        hops=(("q one", ("D1",)), ("q two", ("D2",))),
        answer="second doc", source_pair=("D1", "D2"),
    )

    def problems(**changes):
        instance = dataclasses.replace(good, **changes)
        return validate_instance(instance, store, index, lambda texts: [queries[t] for t in texts],
                                 VerifyConfig(k=1))

    assert problems() == []
    assert problems(hops=(("q one", ("D1",)), ("q one", ("D1",)), ("q two", ("D2",)))) == [
        "i1: 3 hops"]
    assert problems(source_pair=("D1", "D9")) == ["i1: source pair not in corpus"]
    assert problems(hops=(("q one", ("D1", "D3")), ("q two", ("D2",)))) == [
        "i1: hop 0 retrieved 2 > k", "i1: hop 0 retrieval not reproducible"]
    assert problems(relation="topic", hops=(("q one", ("D1",)), ("q three", ("D3",)))) == [
        "i1: hop 1 query hits neither pair document",
        "i1: two hops do not cover both pair documents"]
    assert problems(relation="topic", hops=(("q three", ("D3",)),)) == [
        "i1: hop 0 query hits neither pair document", "i1: no pair document covered"]
    assert problems(hops=()) == ["i1: 0 hops", "i1: no pair document covered"]
