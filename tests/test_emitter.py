import json
from dataclasses import asdict

import pytest

from hopsynth.emitter import (
    StatsReport,
    dataset_stats,
    format_stats_report,
    instance_to_record,
    read_jsonl,
    split_dev,
    write_jsonl,
)
from hopsynth.verification import DataInstance


def make_instance(i, n_hops=2, task="mqa", q="What links A and B?", answer="A B"):
    hops = tuple((f"query {h} for {i}", (f"doc{h}", "docx")) for h in range(n_hops))
    return DataInstance(
        id=f"inst{i}", task=task, relation="hyper", question_or_claim=q,
        hops=hops, answer=answer, source_pair=("doc0", "doc1"),
    )


def test_write_read_roundtrip(tmp_path):
    instances = [make_instance(i, n_hops=1 + i % 2) for i in range(3)]
    path = tmp_path / "data.jsonl"
    assert write_jsonl(instances, path) == 3
    assert path.read_text().count("\n") == 3
    back = read_jsonl(path)
    assert back == instances


def test_read_rejects_a_mislabeled_record(tmp_path):
    record = instance_to_record(make_instance(0, n_hops=2))
    record["n_hops"] = 1
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"data\.jsonl:1: n_hops 1 but 2 hops"):
        read_jsonl(path)


def test_write_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_jsonl([], path) == 0
    assert path.read_text() == ""
    assert read_jsonl(path) == []


def test_write_deterministic_bytes(tmp_path):
    instances = [make_instance(i) for i in range(5)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(instances, p1)
    write_jsonl(read_jsonl(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_record_field_names_and_order(tmp_path):
    record = instance_to_record(make_instance(0))
    assert list(record) == [
        "id", "task", "relation", "question", "answer", "hops", "source_pair", "n_hops",
    ]
    assert list(record["hops"][0]) == ["query", "retrieved"]
    assert record["n_hops"] == 2
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert read_jsonl(path) == [make_instance(0)]


def test_split_dev_sizes_and_disjoint():
    instances = [make_instance(i) for i in range(10)]
    train, dev = split_dev(instances, dev_size=3, seed=5)
    assert (len(train), len(dev)) == (7, 3)
    assert {i.id for i in train} | {i.id for i in dev} == {i.id for i in instances}
    assert not {i.id for i in train} & {i.id for i in dev}
    # order within splits preserves input order
    positions = {inst.id: idx for idx, inst in enumerate(instances)}
    assert [positions[i.id] for i in train] == sorted(positions[i.id] for i in train)
    assert [positions[i.id] for i in dev] == sorted(positions[i.id] for i in dev)


def test_split_dev_zero_and_deterministic():
    instances = [make_instance(i) for i in range(6)]
    train, dev = split_dev(instances, dev_size=0, seed=1)
    assert dev == [] and train == instances
    first = split_dev(instances, dev_size=2, seed=9)
    second = split_dev(instances, dev_size=2, seed=9)
    assert first == second
    with pytest.raises(ValueError):
        split_dev(instances, dev_size=7, seed=0)


def test_stats_counts_and_percentages():
    instances = [make_instance(0, n_hops=1)] + [make_instance(i, n_hops=2) for i in range(1, 4)]
    report = dataset_stats(instances)
    assert report.count_single_query == 1
    assert report.count_two_query == 3
    assert report.percent_single_query == pytest.approx(25.0)
    assert report.percent_two_query == pytest.approx(75.0)
    assert report.percent_single_query + report.percent_two_query == pytest.approx(100.0, abs=0.05)
    assert report.count_single_query + report.count_two_query == len(instances)


def test_stats_word_averages():
    instances = [
        make_instance(0, n_hops=1, q="Does A or B have more members?", answer="A"),
    ]
    report = dataset_stats(instances)
    assert report.avg_question_words == pytest.approx(7.0)
    assert report.avg_query_words == pytest.approx(4.0)  # "query 0 for 0"
    assert report.avg_answer_words == pytest.approx(1.0)


def test_stats_fever_omits_answer_average():
    instances = [make_instance(i, task="fever", answer="SUPPORTS") for i in range(3)]
    report = dataset_stats(instances)
    assert report.avg_answer_words is None
    assert "Answers: -" in format_stats_report(report)


def test_stats_empty_input():
    report = dataset_stats([])
    assert report.train_size == 0
    assert report.count_single_query == 0
    assert report.avg_question_words is None


def test_stats_report_has_table_fields():
    report = dataset_stats([make_instance(0)], dev=[make_instance(1)])
    payload = asdict(report)
    assert set(payload) == {
        "train_size", "dev_size",
        "count_single_query", "percent_single_query",
        "count_two_query", "percent_two_query",
        "avg_question_words", "avg_query_words", "avg_answer_words",
    }
    text = format_stats_report(report)
    for needle in ("Size of Train Set", "Size of Dev Set", "#SQ Data", "#TQ Data",
                   "Questions/Claims", "Queries", "Answers"):
        assert needle in text
