import json
from collections import Counter

import pytest

from hopsynth.corpus import CorpusConfig, ingest_corpus
from hopsynth.entities import HeuristicRecognizer
from hopsynth.pairing import (
    AnswerCandidate,
    DocumentPair,
    PairingConfig,
    answer_candidates,
    derive_rng,
    pick_answer,
    sample_pairs,
)


@pytest.fixture
def hub_store(tmp_path):
    # d0 links to d1..d10; all share one topic cluster
    records = []
    anchors = [{"span": f"Title{i}", "target": f"Title{i}"} for i in range(1, 11)]
    text0 = "Hub mentions " + " ".join(f"Title{i}" for i in range(1, 11)) + "."
    records.append({"id": "d0", "title": "Title0", "text": text0, "anchors": anchors, "topic": "t"})
    for i in range(1, 11):
        records.append(
            {"id": f"d{i}", "title": f"Title{i}", "text": f"Text {i}.", "anchors": [], "topic": "t"}
        )
    path = tmp_path / "hub.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return ingest_corpus(path, CorpusConfig(max_doc_tokens=100))


def test_sample_pairs_count_and_distinct(hub_store):
    pairs = sample_pairs(hub_store, "d0", PairingConfig(pairs_per_document=4), 1)
    assert len(pairs) == 4
    partners = [p.d2.id for p in pairs]
    assert len(set(partners)) == 4
    for p in pairs:
        assert p.d1.id == "d0"
        assert p.d1.id != p.d2.id


def test_sample_pairs_relation_invariants(hub_store):
    from hopsynth.corpus import hyperlink_neighbors, topic_neighbors

    for seed in range(5):
        for p in sample_pairs(hub_store, "d0", PairingConfig(4), seed):
            if p.relation == "hyper":
                assert p.d2.id in hyperlink_neighbors(hub_store, "d0")
            else:
                assert p.d2.id in topic_neighbors(hub_store, "d0")


def test_sample_pairs_exhaustion(tmp_path):
    records = [
        {"id": "a", "title": "A", "text": "A mentions B.", "anchors": [{"span": "B", "target": "B"}]},
        {"id": "b", "title": "B", "text": "B text.", "anchors": []},
    ]
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    store = ingest_corpus(path)
    pairs = sample_pairs(store, "a", PairingConfig(pairs_per_document=4), 9)
    assert len(pairs) == 1
    assert pairs[0].relation == "hyper"


def test_sample_pairs_deterministic(hub_store):
    config = PairingConfig(pairs_per_document=4)
    first = sample_pairs(hub_store, "d0", config, 42)
    second = sample_pairs(hub_store, "d0", config, 42)
    assert [(p.d2.id, p.relation) for p in first] == [(p.d2.id, p.relation) for p in second]


def test_sample_pairs_mixes_relations(hub_store):
    # ten hyper neighbors and ten topic partners available: expect alternation
    pairs = sample_pairs(hub_store, "d0", PairingConfig(pairs_per_document=4), 3)
    relations = [p.relation for p in pairs]
    assert relations == ["hyper", "topic", "hyper", "topic"]


def test_sample_pairs_unknown_id(hub_store):
    with pytest.raises(KeyError):
        sample_pairs(hub_store, "nope", PairingConfig(), 0)


def topic_pair():
    from hopsynth.corpus import Document

    d1 = Document("x1", "Unsane", "Unsane is a band.", (), "music")
    d2 = Document("x2", "The Border Surrender", "A band too.", (), "music")
    return DocumentPair(d1, d2, "topic")


def hyper_pair(anchors1=(), anchors2=()):
    from hopsynth.corpus import Document

    d1 = Document("y1", "Colorado orogeny", "Extends into the High Plains.", tuple(anchors1), None)
    d2 = Document("y2", "High Plains", "The High Plains rise.", tuple(anchors2), None)
    return DocumentPair(d1, d2, "hyper")


def test_topic_candidates_fixed_shape():
    got = answer_candidates(topic_pair(), entities=["ignored"])
    assert [c.text for c in got] == ["Unsane", "The Border Surrender", "yes", "no"]
    assert [c.source for c in got] == ["title", "title", "yes", "no"]
    assert len(got) == 4


def test_hyper_candidates_union():
    pair = hyper_pair(anchors1=[("High Plains", "High Plains")])
    got = answer_candidates(pair, entities=["Colorado orogeny"])
    assert {c.text for c in got} == {"Colorado orogeny", "High Plains"}
    sources = {c.text: c.source for c in got}
    assert sources["Colorado orogeny"] == "entity"
    assert sources["High Plains"] == "anchor_text"


def test_hyper_candidates_dedup():
    pair = hyper_pair(anchors1=[("High Plains", "High Plains")])
    got = answer_candidates(pair, entities=["High Plains"])
    assert len(got) == 1
    assert got[0].source == "entity"


def test_hyper_no_candidates():
    assert answer_candidates(hyper_pair(), entities=[]) == []


def test_pick_answer_singleton_and_determinism():
    one = [AnswerCandidate("only", "entity")]
    assert pick_answer(one, derive_rng(5, "pick")) is one[0]
    four = [AnswerCandidate(t, "entity") for t in "abcd"]
    assert pick_answer(four, derive_rng(5, "pick")) == pick_answer(four, derive_rng(5, "pick"))


def test_pick_answer_uniform_over_seeds():
    four = [AnswerCandidate(t, "entity") for t in "abcd"]
    counts = Counter(pick_answer(four, derive_rng(seed, "uniform")).text for seed in range(10_000))
    for t in "abcd":
        assert 2300 <= counts[t] <= 2700  # 25% +/- 2 points


def test_pick_answer_empty():
    with pytest.raises(ValueError):
        pick_answer([], derive_rng(0))


def test_heuristic_recognizer():
    rec = HeuristicRecognizer()
    assert rec.entities("What is the birthplace of the man?") == []
    got = rec.entities("Does The Border Surrender or Unsane have more members?")
    assert "The Border Surrender" in got
    assert "Unsane" in got
    got = rec.entities("Where was the composer of film Avidathe Pole Ivideyum born?")
    assert "Avidathe Pole Ivideyum" in got
    # digit spans qualify even at sentence start
    assert rec.entities("1,800 ft is the rise.") == ["1,800"]


def test_heuristic_skips_sentence_initial_capitals():
    rec = HeuristicRecognizer()
    assert rec.entities("Celtics won. They lost.") == []
    assert rec.entities("The Boston Celtics won.") == ["Boston Celtics"]
