"""Dataset serialization, dev-set splitting, and summary statistics.

Output format (JSONL, one instance per line, stable field order):
    {"id": s, "task": "mqa"|"fever", "relation": "hyper"|"topic",
     "question": s, "answer": s,
     "hops": [{"query": s, "retrieved": [doc_id]}],
     "source_pair": [doc_id, doc_id], "n_hops": 1|2}
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .jsonl import STRING, InputError, is_strings, read_numbered_rows, write_rows
from .metrics import word_count
from .pairing import RELATION
from .synthesis import TASK_FEVER, TASK_MQA
from .verification import DataInstance


@dataclass
class StatsReport:
    train_size: int
    dev_size: int
    count_single_query: int
    percent_single_query: float
    count_two_query: int
    percent_two_query: float
    avg_question_words: Optional[float]
    avg_query_words: Optional[float]
    avg_answer_words: Optional[float]  # absent (None) for fact verification


def instance_to_record(instance: DataInstance) -> dict:
    return {
        "id": instance.id,
        "task": instance.task,
        "relation": instance.relation,
        "question": instance.question_or_claim,
        "answer": instance.answer,
        "hops": [
            {"query": query, "retrieved": list(retrieved)}
            for query, retrieved in instance.hops
        ],
        "source_pair": list(instance.source_pair),
        "n_hops": len(instance.hops),
    }


def _is_hops(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(hop, dict) and isinstance(hop.get("query"), str)
        and is_strings(hop.get("retrieved")) for hop in value
    )


_RECORD_FIELDS = {  # what read_jsonl checks, in the output format's field order
    "id": STRING,
    "task": (lambda value: value in (TASK_MQA, TASK_FEVER), f"{TASK_MQA!r} or {TASK_FEVER!r}"),
    "relation": RELATION,
    "question": STRING,
    "answer": STRING,
    "hops": (_is_hops, "a list of {'query': str, 'retrieved': [str]}"),
    "source_pair": (lambda value: is_strings(value) and len(value) == 2, "a list of two strings"),
    "n_hops": (lambda value: type(value) is int, "an integer"),
}


def write_jsonl(instances: Sequence[DataInstance], path: str | Path) -> int:
    write_rows(map(instance_to_record, instances), path)
    return len(instances)


def read_jsonl(path: str | Path) -> list[DataInstance]:
    """A dataset file's instances; a record that fails a `_RECORD_FIELDS` check,
    or whose n_hops is not its number of hops, raises InputError naming `<path>:<line>`."""
    instances = []
    for line, record in read_numbered_rows(path, fields=_RECORD_FIELDS):
        if record["n_hops"] != len(record["hops"]):
            raise InputError(f"{path}:{line}: n_hops {record['n_hops']} but "
                             f"{len(record['hops'])} hops")
        instances.append(DataInstance(
            id=record["id"],
            task=record["task"],
            relation=record["relation"],
            question_or_claim=record["question"],
            hops=tuple((h["query"], tuple(h["retrieved"])) for h in record["hops"]),
            answer=record["answer"],
            source_pair=(record["source_pair"][0], record["source_pair"][1]),
        ))
    return instances


def split_dev(
    instances: Sequence[DataInstance], dev_size: int = 5000, seed: int = 0
) -> tuple[list[DataInstance], list[DataInstance]]:
    """Uniform dev sample without replacement; both splits keep input order."""
    if dev_size > len(instances):
        raise ValueError(f"dev_size {dev_size} exceeds {len(instances)} instances")
    rng = random.Random(seed)
    dev_positions = set(rng.sample(range(len(instances)), dev_size))
    train = [inst for i, inst in enumerate(instances) if i not in dev_positions]
    dev = [inst for i, inst in enumerate(instances) if i in dev_positions]
    return train, dev


def dataset_stats(
    instances: Sequence[DataInstance], dev: Sequence[DataInstance] = ()
) -> StatsReport:
    """Table-style summary: sizes, single/two-query counts, word averages.

    Averages cover train and dev together; the answer average is omitted
    when every instance is a fact-verification one (labels, not answers).
    """
    pooled = list(instances) + list(dev)
    total = len(pooled)
    singles = sum(1 for inst in pooled if len(inst.hops) == 1)
    twos = total - singles
    if total == 0:
        return StatsReport(0, len(dev), 0, 0.0, 0, 0.0, None, None, None)

    question_words = [word_count(inst.question_or_claim) for inst in pooled]
    query_words = [word_count(query) for inst in pooled for query, _ in inst.hops]
    answer_sources = [inst for inst in pooled if inst.task != TASK_FEVER]
    answer_words = [word_count(inst.answer) for inst in answer_sources]

    def mean(values):
        return sum(values) / len(values) if values else None

    return StatsReport(
        train_size=len(instances),
        dev_size=len(dev),
        count_single_query=singles,
        percent_single_query=100.0 * singles / total,
        count_two_query=twos,
        percent_two_query=100.0 * twos / total,
        avg_question_words=mean(question_words),
        avg_query_words=mean(query_words),
        avg_answer_words=mean(answer_words),
    )


def format_stats_report(report: StatsReport) -> str:
    """Render the report in the dataset-statistics table layout."""

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.1f}"

    lines = [
        f"Size of Train Set: {report.train_size:,}",
        f"Size of Dev Set: {report.dev_size:,}",
        f"#SQ Data: {report.count_single_query:,} ({report.percent_single_query:.1f}%)",
        f"#TQ Data: {report.count_two_query:,} ({report.percent_two_query:.1f}%)",
        "Average number of word tokens",
        f"  Questions/Claims: {fmt(report.avg_question_words)}",
        f"  Queries: {fmt(report.avg_query_words)}",
        f"  Answers: {fmt(report.avg_answer_words)}",
    ]
    return "\n".join(lines)
