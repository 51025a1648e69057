"""Dataset serialization, dev-set splitting, and summary statistics.

Output format (JSONL, one instance per line, stable field order):
    {"id": s, "task": "mqa"|"fever", "relation": "hyper"|"topic",
     "question": s, "answer": s,
     "hops": [{"query": s, "retrieved": [doc_id]}],
     "source_pair": [doc_id, doc_id], "n_hops": 1|2}
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .jsonl import STRING, InputError, is_strings, read_numbered_rows, row_line
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


def instance_line(instance: DataInstance) -> str:
    """The instance's line of a dataset file: its record as `row_line` writes it."""
    return row_line(instance_to_record(instance))


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


def dev_positions(count: int, dev_size: int, seed: int) -> set[int]:
    """The dev split of `count` instances: a uniform sample, without
    replacement, of min(dev_size, count) of the positions 0..count-1. The
    other positions are train, and both splits keep input order."""
    return set(random.Random(seed).sample(range(count), min(dev_size, count)))


def stats_sums(instances: Iterable[DataInstance]) -> Counter:
    """The counts and word sums `stats_report` reads. The sums of the parts
    of a dataset add up to the sums of the whole, so a run sums them block
    by block."""
    sums = Counter()
    for inst in instances:
        sums["instances"] += 1
        sums["single_query"] += len(inst.hops) == 1
        sums["question_words"] += word_count(inst.question_or_claim)
        sums["queries"] += len(inst.hops)
        sums["query_words"] += sum(word_count(query) for query, _ in inst.hops)
        if inst.task != TASK_FEVER:
            sums["answers"] += 1
            sums["answer_words"] += word_count(inst.answer)
    return sums


def stats_report(sums: Mapping[str, int], dev_size: int) -> StatsReport:
    """Table-style summary of a dataset from its `stats_sums`, dev_size of its
    instances in dev: sizes, single/two-query counts, word averages.

    Averages cover train and dev together; the answer average is omitted
    when every instance is a fact-verification one (labels, not answers).
    """
    total, singles = sums["instances"], sums["single_query"]
    if total == 0:
        return StatsReport(0, dev_size, 0, 0.0, 0, 0.0, None, None, None)

    def mean(words, count):
        return sums[words] / sums[count] if sums[count] else None

    return StatsReport(
        train_size=total - dev_size,
        dev_size=dev_size,
        count_single_query=singles,
        percent_single_query=100.0 * singles / total,
        count_two_query=total - singles,
        percent_two_query=100.0 * (total - singles) / total,
        avg_question_words=mean("question_words", "instances"),
        avg_query_words=mean("query_words", "queries"),
        avg_answer_words=mean("answer_words", "answers"),
    )


def dataset_stats(
    instances: Sequence[DataInstance], dev: Sequence[DataInstance] = ()
) -> StatsReport:
    """`stats_report` of train `instances` and `dev` together."""
    return stats_report(stats_sums([*instances, *dev]), len(dev))


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
