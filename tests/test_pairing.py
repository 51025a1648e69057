import dataclasses
import json
import random
from collections import Counter

import pytest
from oracles import oracle_sample_pairs
from synthcorpus import make_corpus, write_corpus

from hopsynth.corpus import CorpusConfig, CorpusStore, Document, TopicsConfig, ingest_corpus
from hopsynth.entities import HeuristicRecognizer
from hopsynth.pairing import (
    DocumentPair,
    PairingConfig,
    _TopicDraws,
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
    from hopsynth.corpus import hyperlink_neighbors

    for seed in range(5):
        for p in sample_pairs(hub_store, "d0", PairingConfig(4), seed):
            if p.relation == "hyper":
                assert p.d2.id in hyperlink_neighbors(hub_store, "d0")
            else:
                assert p.d2.id in hub_store.topic_clusters["t"]
                assert p.d2.id != "d0"


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


def _cluster_store(members, anchor_topic="t"):
    """A store whose cluster "t" holds `members`; "anchor" joins it when
    `anchor_topic` is "t" and stands alone when it is None."""
    docs = {m: Document(m, m.upper(), m, (), "t") for m in members}
    docs["anchor"] = Document("anchor", "ANCHOR", "anchor", (), anchor_topic)
    cluster = sorted(members) + (["anchor"] if anchor_topic else [])
    return CorpusStore(documents=docs, hyperlinks={m: () for m in docs},
                       topic_clusters={"t": tuple(sorted(cluster))})


@pytest.mark.parametrize("seed", [0, 91])
def test_topic_draws_equal_shuffle_then_pop(seed):
    # The lazy draw against the running interpreter's random.shuffle: every
    # pool size up to 300, the anchor sorting first, in the middle and last,
    # or holding no topic; every pop up to exhaustion, then the same rng state.
    for size in range(301):
        half = size // 2
        # "a000" < "anchor" < "b000", so the prefixes place the anchor
        placements = {"first": "b" * size, "middle": "a" * half + "b" * (size - half),
                      "last": "a" * size, "no topic": "a" * size}
        for where, prefixes in placements.items():
            members = [f"{prefix}{i:03d}" for i, prefix in enumerate(prefixes)]
            store = _cluster_store(members, None if where == "no topic" else "t")
            lazy_rng, shuffle_rng = random.Random(seed), random.Random(seed)
            draws = _TopicDraws(store, "anchor", lazy_rng)
            expected = [] if where == "no topic" else sorted(members)
            shuffle_rng.shuffle(expected)
            assert len(draws) == len(expected)
            popped = [draws.pop() for _ in range(len(expected))]
            assert popped == expected[::-1], (size, where)
            assert len(draws) == 0
            with pytest.raises(IndexError):
                draws.pop()
            assert lazy_rng.getstate() == shuffle_rng.getstate(), (size, where)


@pytest.mark.parametrize("labeler", ["file", "keyword", "none"])
def test_sample_pairs_equal_full_shuffle_oracle(tmp_path, labeler):
    records = make_corpus(n_docs=300, seed=5, n_topics=12)
    for i, record in enumerate(records):
        if labeler != "file" or i % 3 == 0:  # `file` falls back to keywords for these
            del record["topic"]
    corpus = write_corpus(tmp_path / "corpus.jsonl", records)
    store = ingest_corpus(corpus, topics=TopicsConfig(labeler))
    for pairs_per_document in (1, 4, 9):
        for seed in (0, 23):
            for doc_id in sorted(store.documents):
                pairs = sample_pairs(store, doc_id, PairingConfig(pairs_per_document), seed)
                assert all(p.d1.id == doc_id for p in pairs)
                assert [(p.d2.id, p.relation) for p in pairs] == oracle_sample_pairs(
                    store, doc_id, pairs_per_document, seed)


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
    assert got == [
        ("Unsane", "title"), ("The Border Surrender", "title"), ("yes", "yes"), ("no", "no"),
    ]


def test_hyper_candidates_union():
    pair = hyper_pair(anchors1=[("High Plains", "High Plains")])
    got = answer_candidates(pair, entities=["Colorado orogeny"])
    # entities first, then anchor spans
    assert got == [("Colorado orogeny", "entity"), ("High Plains", "anchor_text")]


def test_hyper_candidates_dedup():
    pair = hyper_pair(anchors1=[("High Plains", "High Plains")])
    got = answer_candidates(pair, entities=["High Plains"])
    assert got == [("High Plains", "entity")]


def test_candidates_are_one_line_and_dedup_on_the_raw_text():
    # a newline in a candidate used to stop the run at the question prompt
    pair = hyper_pair(anchors1=[("High\nPlains", "High Plains"), ("High Plains", "High Plains")])
    got = answer_candidates(pair, entities=["Colorado\norogeny", "Colorado orogeny"])
    assert got == [("Colorado orogeny", "entity"), ("Colorado orogeny", "entity"),
                   ("High Plains", "anchor_text"), ("High Plains", "anchor_text")]
    d1, d2 = topic_pair().d1, topic_pair().d2
    pair = DocumentPair(d1, dataclasses.replace(d2, title="The Border\nSurrender"), "topic")
    assert answer_candidates(pair, entities=[])[:2] == [
        ("Unsane", "title"), ("The Border Surrender", "title")]


def test_hyper_no_candidates():
    assert answer_candidates(hyper_pair(), entities=[]) == []


def test_pick_answer_singleton_and_determinism():
    one = [("only", "entity")]
    assert pick_answer(one, derive_rng(5, "pick")) is one[0]
    four = [(t, "entity") for t in "abcd"]
    assert pick_answer(four, derive_rng(5, "pick")) == pick_answer(four, derive_rng(5, "pick"))


def test_pick_answer_uniform_over_seeds():
    four = [(t, "entity") for t in "abcd"]
    counts = Counter(pick_answer(four, derive_rng(seed, "uniform"))[0] for seed in range(10_000))
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
