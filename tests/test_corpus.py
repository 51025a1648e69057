import dataclasses
import json

import pytest

from hopsynth.corpus import (
    CorpusConfig,
    CorpusFormatError,
    TopicsConfig,
    hyperlink_neighbors,
    ingest_corpus,
    serialize_store,
    truncate_text,
)

from oracles import _TOKEN, oracle_hyperlink_neighbors, oracle_truncate_text
from synthcorpus import make_corpus, unicode_texts


def write_corpus(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return path


def doc(i, title, text, anchors=(), topic=None):
    record = {
        "id": f"d{i}",
        "title": title,
        "text": text,
        "anchors": [{"span": s, "target": t} for s, t in anchors],
    }
    if topic:
        record["topic"] = topic
    return record


def test_truncate_text():
    assert truncate_text("a b c", 2) == "a b"
    assert truncate_text("a b", 5) == "a b"
    para = " ".join(f"w{i}" for i in range(100))
    assert len(_TOKEN.findall(para)) == 100
    assert truncate_text(para, 100) == para


def _token_prefixes(text):
    # the prefix that ends with each token, by the reference token rule
    return [text[: match.end()] for match in _TOKEN.finditer(text)]


def test_truncate_counts_punctuation_tokens():
    # a word run is one token and every other non-space character is its own:
    # "1,800" is three tokens
    assert [truncate_text("a-b c", n) for n in range(1, 5)] == ["a", "a-", "a-b", "a-b c"]
    assert [truncate_text("1,800 ft", n) for n in range(1, 5)] == ["1", "1,", "1,800", "1,800 ft"]
    for text in ("a-b c", "1,800 ft"):
        assert [truncate_text(text, n) for n in range(1, 5)] == _token_prefixes(text)


def test_truncate_keeps_unicode_words_whole():
    expected = ["Saimaa", "Saimaa-", "Saimaa-ilmiö", "Saimaa-ilmiö x"]
    assert [truncate_text("Saimaa-ilmiö x", n) for n in range(1, 5)] == expected
    assert _token_prefixes("Saimaa-ilmiö x") == expected


@pytest.mark.parametrize("seed", [1, 2])
def test_truncate_text_matches_the_span_oracle(seed):
    texts = unicode_texts(seed, 80) + [" ", "\t\n \u3000", "\u0307 "]
    for text in texts:
        for max_tokens in range(1, len(_TOKEN.findall(text)) + 2):
            expected = oracle_truncate_text(text, max_tokens)
            assert truncate_text(text, max_tokens) == expected, (text, max_tokens)
            # exactly max_tokens tokens, then whitespace or one more token
            for tail in (" ", "\t\n", ".", " ,", "\u0307", "…\n"):
                assert (truncate_text(expected + tail, max_tokens)
                        == oracle_truncate_text(expected + tail, max_tokens)), (expected, tail)


def test_truncate_text_takes_any_budget():
    assert truncate_text("", 1) == "" and truncate_text("  ", 3) == "  "
    assert truncate_text("a b, c", 2 ** 40) == "a b, c"
    with pytest.raises(ValueError):
        truncate_text("a", 0)


def test_truncate_stored_texts_obey_budget(tmp_path):
    long_text = " ".join(f"tok{i}" for i in range(300))
    path = write_corpus(tmp_path, [doc(1, "A", long_text)])
    store = ingest_corpus(path, CorpusConfig(max_doc_tokens=40))
    assert len(_TOKEN.findall(store.documents["d1"].text)) <= 40


def test_link_resolution(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            doc(1, "Alpha", "Alpha links to Beta here.", anchors=[("Beta", "Beta")]),
            doc(2, "Beta", "Beta stands alone."),
        ],
    )
    store = ingest_corpus(path)
    assert store.hyperlinks == {"d1": ("d2",), "d2": ("d1",)}


def test_dangling_anchor_dropped(tmp_path):
    path = write_corpus(
        tmp_path,
        [doc(1, "Alpha", "Alpha links to Ghost.", anchors=[("Ghost", "Ghost")])],
    )
    store = ingest_corpus(path)
    assert store.documents["d1"].anchors == ()
    assert store.hyperlinks["d1"] == ()


def test_duplicate_title_error_names_both_lines(tmp_path):
    path = write_corpus(
        tmp_path,
        [doc(1, "Same", "one"), doc(2, "Same", "two")],
    )
    with pytest.raises(CorpusFormatError, match=r"lines 1 and 2"):
        ingest_corpus(path)


def test_duplicate_id_error(tmp_path):
    records = [doc(1, "A", "one"), doc(1, "B", "two")]
    path = write_corpus(tmp_path, records)
    with pytest.raises(CorpusFormatError, match="duplicate id"):
        ingest_corpus(path)


def test_malformed_record_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "d1", "title": "A", "text": "x"}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=r"bad\.jsonl:2: invalid JSON"):
        ingest_corpus(path)


_ANCHORS_EXPECTED = "is not a list of {'span': str, 'target': str}"


@pytest.mark.parametrize("patch, message", [
    ({"anchors": "A"}, f"anchors 'A' {_ANCHORS_EXPECTED}"),
    ({"anchors": {"span": "A", "target": "A"}},
     f"anchors {{'span': 'A', 'target': 'A'}} {_ANCHORS_EXPECTED}"),
    ({"anchors": ["A"]}, f"anchors ['A'] {_ANCHORS_EXPECTED}"),
    ({"anchors": [{"span": "A"}]}, f"anchors [{{'span': 'A'}}] {_ANCHORS_EXPECTED}"),
    ({"anchors": [{"span": "A", "target": 1}]},
     f"anchors [{{'span': 'A', 'target': 1}}] {_ANCHORS_EXPECTED}"),
    ({"anchors": [{"span": None, "target": "A"}]},
     f"anchors [{{'span': None, 'target': 'A'}}] {_ANCHORS_EXPECTED}"),
    ({"topic": 3}, "topic 3 is not a string"),
    ({"topic": ["film"]}, "topic ['film'] is not a string"),
    ({"id": ""}, "id '' is not a non-empty string"),
    ({"title": ""}, "title '' is not a non-empty string"),
    ({"text": ""}, "text '' is not a non-blank string"),
    ({"text": " \t\n "}, "text ' \\t\\n ' is not a non-blank string"),
    ({"id": 2}, "id 2 is not a non-empty string"),
    ({"text": None}, "text None is not a non-blank string"),
], ids=["anchors-str", "anchors-object", "anchor-str", "anchor-no-target", "anchor-int-target",
        "anchor-null-span", "topic-int", "topic-list", "id-empty", "title-empty", "text-empty",
        "text-blank", "id-int", "text-null"])
def test_bad_record_names_file_line_field_and_value(tmp_path, patch, message):
    path = write_corpus(tmp_path, [doc(1, "A", "one"), {**doc(2, "B", "two A"), **patch}])
    with pytest.raises(CorpusFormatError) as raised:
        ingest_corpus(path)
    assert str(raised.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("name", ["id", "title", "text"])
def test_record_missing_a_field_names_file_line_and_field(tmp_path, name):
    record = {key: value for key, value in doc(2, "B", "two").items() if key != name}
    path = write_corpus(tmp_path, [doc(1, "A", "one"), record])
    with pytest.raises(CorpusFormatError) as raised:
        ingest_corpus(path)
    assert str(raised.value) == f"{path}:2: missing field {name!r}"


def test_unreadable_file():
    with pytest.raises(CorpusFormatError, match="cannot read"):
        ingest_corpus("/nonexistent/corpus.jsonl")


def test_neighbors_symmetric(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            doc(1, "A", "A mentions B.", anchors=[("B", "B")]),
            doc(2, "B", "B text."),
            doc(3, "C", "C mentions A.", anchors=[("A", "A")]),
            doc(4, "D", "isolated"),
        ],
    )
    store = ingest_corpus(path)
    assert hyperlink_neighbors(store, "d1") == ["d2", "d3"]
    assert hyperlink_neighbors(store, "d2") == ["d1"]
    assert hyperlink_neighbors(store, "d4") == []
    for x in store.documents:
        for y in hyperlink_neighbors(store, x):
            assert x in hyperlink_neighbors(store, y)


def test_hyperlinks_match_graph_scan_oracle(tmp_path):
    records = make_corpus(n_docs=200, seed=13)
    for i, record in enumerate(records):
        if i % 7 == 0:  # self link: the text starts with the document's own title
            record["anchors"].append({"span": record["title"], "target": record["title"]})
        if i % 5 == 0:  # dangling link: the target names no document
            record["text"] += " See Ghost Page."
            record["anchors"].append({"span": "Ghost Page", "target": f"Ghost Page {i}"})
    store = ingest_corpus(write_corpus(tmp_path, records))
    anchors = [(d.title, target) for d in store.documents.values() for _, target in d.anchors]
    assert any(title == target for title, target in anchors)
    assert not any(t.startswith("Ghost Page") for _, t in anchors)
    assert list(store.hyperlinks) == list(store.documents)
    for doc_id in store.documents:
        expected = oracle_hyperlink_neighbors(store, doc_id)
        assert list(store.hyperlinks[doc_id]) == expected, doc_id
        assert hyperlink_neighbors(store, doc_id) == expected


def test_neighbors_unknown_id(tmp_path):
    path = write_corpus(tmp_path, [doc(1, "A", "text")])
    store = ingest_corpus(path)
    with pytest.raises(KeyError):
        hyperlink_neighbors(store, "missing")


def test_topic_clusters_from_file(tmp_path):
    path = write_corpus(
        tmp_path,
        [
            doc(1, "A", "x", topic="music"),
            doc(2, "B", "y", topic="music"),
            doc(3, "C", "a film about z"),  # falls back to the keyword labeler
        ],
    )
    store = ingest_corpus(path)
    assert store.topic_clusters == {"music": ("d1", "d2"), "film": ("d3",)}
    assert store.documents["d3"].topic == "film"
    assert store.topic_clusters[store.documents["d1"].topic] == ("d1", "d2")


def test_no_topics_no_labeler_means_empty_clusters(tmp_path):
    path = write_corpus(tmp_path, [doc(1, "A", "x"), doc(2, "B", "y")])
    store = ingest_corpus(path)
    assert store.topic_clusters == {}
    assert store.documents["d1"].topic is None


def test_explicit_labeler(tmp_path):
    path = write_corpus(tmp_path, [
        doc(1, "A", "rock band x"), doc(2, "B", "rock band y"), doc(3, "C", "plain", topic="t"),
    ])
    store = ingest_corpus(path, topics=TopicsConfig("keyword"))
    assert store.topic_clusters == {"music": ("d1", "d2"), "t": ("d3",)}
    assert store.topic_clusters[store.documents["d2"].topic] == ("d1", "d2")


def test_unknown_topic_source_fails_before_reading():
    with pytest.raises(ValueError, match="labeler 'keywords' is not one of"):
        TopicsConfig("keywords")


def test_store_is_frozen(tmp_path):
    store = ingest_corpus(write_corpus(tmp_path, [doc(1, "A", "x")]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        store.hyperlinks = {}


def test_roundtrip_identical(tmp_path):
    records = [
        doc(1, "Alpha", "Alpha links to Beta and more words follow here.",
            anchors=[("Beta", "Beta")], topic="music"),
        doc(2, "Beta", "Beta is plain.", topic="music"),
        doc(3, "Gamma", "Gamma film text.", topic="film"),
    ]
    path = write_corpus(tmp_path, records)
    config = CorpusConfig(max_doc_tokens=6)
    store = ingest_corpus(path, config)
    out1 = tmp_path / "round1.jsonl"
    serialize_store(store, out1)
    store2 = ingest_corpus(out1, config)
    out2 = tmp_path / "round2.jsonl"
    serialize_store(store2, out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert store.documents == store2.documents
    assert store.hyperlinks == store2.hyperlinks
    assert store.topic_clusters == store2.topic_clusters


def test_anchor_outside_truncation_window_dropped(tmp_path):
    text = "Alpha starts here " + " ".join(f"w{i}" for i in range(50)) + " Beta at the end"
    path = write_corpus(
        tmp_path,
        [doc(1, "Alpha", text, anchors=[("Beta", "Beta")]), doc(2, "Beta", "short")],
    )
    store = ingest_corpus(path, CorpusConfig(max_doc_tokens=10))
    assert store.documents["d1"].anchors == ()
    assert store.hyperlinks["d1"] == ()
