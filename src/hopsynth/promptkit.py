"""The prompt layout: few-shot stores, and the only code that renders or
parses prompt text ("Label: value" lines).

Synthesis prompts are blank-line separated blocks. The field order depends
on the task:

    question_gen   Document, Document, Answer, Question
    answer         Document(s), Question, Answer
    query_gen      Document, Document, Question, Answer, Query...
    claim_gen      Document, Document, Answer, Claim
    verify         Document, Document, Claim, Answer

The final block is the target instance and stops at the cue label, so the
completion supplies the missing field; STOP_SEQUENCES end that field (the
synthesis stages' `DecodeParams.stop`). The built-in examples ship as data
files and are the complete human-annotated seed set: four per multi-hop
(task, setting) and eight shared across the fact-verification tasks.

An evaluation episode is one block: the Question line, then each turn's
Query line and its retrieved Document lines. In both layouts a document is
one line: its newlines become spaces. `parse_block` reads any block.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

MQA_QUESTION_GEN = "mqa_question_gen"
MQA_ANSWER = "mqa_answer"
MQA_QUERY_GEN = "mqa_query_gen"
FEVER_CLAIM_GEN = "fever_claim_gen"
FEVER_VERIFY = "fever_verify"
FEVER_QUERY_GEN = "fever_query_gen"

TASK_KINDS = (
    MQA_QUESTION_GEN, MQA_ANSWER, MQA_QUERY_GEN,
    FEVER_CLAIM_GEN, FEVER_VERIFY, FEVER_QUERY_GEN,
)
FEVER_TASKS = (FEVER_CLAIM_GEN, FEVER_VERIFY, FEVER_QUERY_GEN)

STOP_SEQUENCES = ("\n\n", "\nDocument:")

# (ordered fields after the documents, cue label) per task; the question
# label doubles as the claim label for fact verification.
_LAYOUTS: dict[str, tuple[tuple[str, ...], str]] = {
    MQA_QUESTION_GEN: (("answer", "question"), "Question"),
    MQA_ANSWER: (("question", "answer"), "Answer"),
    MQA_QUERY_GEN: (("question", "answer", "queries"), "Query"),
    FEVER_CLAIM_GEN: (("answer", "question"), "Claim"),
    FEVER_VERIFY: (("question", "answer"), "Answer"),
    FEVER_QUERY_GEN: (("question", "answer", "queries"), "Query"),
}
_QUESTION_LABEL = {
    MQA_QUESTION_GEN: "Question", MQA_ANSWER: "Question", MQA_QUERY_GEN: "Question",
    FEVER_CLAIM_GEN: "Claim", FEVER_VERIFY: "Claim", FEVER_QUERY_GEN: "Claim",
}


class PromptError(ValueError):
    """Invalid task/setting combination or missing required field."""


@dataclass(frozen=True)
class FewShotExample:
    documents: tuple[str, str]
    question_or_claim: str
    answer: str
    queries: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.queries) > 2:
            raise ValueError("an example carries at most two queries")


@dataclass(frozen=True)
class PromptText:
    text: str


def _check_task(task: str, setting: str) -> None:
    if task not in TASK_KINDS:
        raise PromptError(f"unknown task: {task}")
    if setting not in ("hyper", "topic"):
        raise PromptError(f"unknown setting: {setting}")
    if task in FEVER_TASKS and setting == "topic":
        raise PromptError("fact-verification tasks only use the hyper setting")


def _example_from_row(row: dict) -> FewShotExample:
    return FewShotExample(
        documents=(row["documents"][0], row["documents"][1]),
        question_or_claim=row["question"],
        answer=row["answer"],
        queries=tuple(row.get("queries", ())),
    )


def load_examples(path: str | Path) -> list[FewShotExample]:
    """Read a few-shot store: JSONL of documents/question/answer/queries."""
    return [
        _example_from_row(json.loads(line))
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


@functools.lru_cache(maxsize=None)
def _load_builtin(name: str) -> tuple[FewShotExample, ...]:
    # one parse per data file and process; every prompt asks for its examples
    with resources.files("hopsynth.data").joinpath(f"{name}.jsonl").open(
        "r", encoding="utf-8"
    ) as handle:
        return tuple(_example_from_row(json.loads(line)) for line in handle if line.strip())


def builtin_examples(task: str, setting: str) -> tuple[FewShotExample, ...]:
    """The built-in annotated examples for a task and setting (one shared tuple)."""
    _check_task(task, setting)
    return _load_builtin("fever" if task in FEVER_TASKS else f"mqa_{setting}")


def _field_lines(task: str, example: FewShotExample) -> list[str]:
    fields, _ = _LAYOUTS[task]
    q_label = _QUESTION_LABEL[task]
    lines = []
    for name in fields:
        if name == "question":
            lines.append(f"{q_label}: {example.question_or_claim}")
        elif name == "answer":
            lines.append(f"Answer: {example.answer}")
        else:
            lines.extend(f"Query: {q}" for q in example.queries)
    return lines


def _clean_document(text: str) -> str:
    # corpus texts may carry newlines; prompt blocks are line-oriented
    return " ".join(text.split("\n"))


def _check_field(value: str, what: str) -> str:
    if "\n" in value:
        raise PromptError(f"{what} must be a single line")
    return value


def render_prompt(
    task: str,
    setting: str,
    examples: Sequence[FewShotExample],
    documents: Sequence[str],
    answer: Optional[str] = None,
    question: Optional[str] = None,
) -> PromptText:
    """Render the few-shot prompt for one target instance.

    `documents` are the target document texts (two normally; the answering
    task also accepts a single document for per-document probes). The prompt
    ends at the task's cue label.
    """
    _check_task(task, setting)
    fields, cue = _LAYOUTS[task]
    q_label = _QUESTION_LABEL[task]
    # every field before the cue field must be supplied by the caller
    required = fields[:-1]
    if "answer" in required and answer is None:
        raise PromptError(f"{task} requires an answer")
    if "question" in required and question is None:
        raise PromptError(f"{task} requires a question/claim")
    if not documents:
        raise PromptError("target needs at least one document")

    target = [f"Document: {_clean_document(doc)}" for doc in documents]
    for name in required:
        if name == "question":
            target.append(f"{q_label}: {_check_field(question, 'question/claim')}")
        elif name == "answer":
            target.append(f"Answer: {_check_field(answer, 'answer')}")
    target.append(f"{cue}:")

    text = _example_prefix(task, tuple(examples)) + "\n".join(target)
    return PromptText(text)


@functools.lru_cache(maxsize=64)
def _example_prefix(task: str, examples: tuple[FewShotExample, ...]) -> str:
    # the example blocks, each followed by the blank line before the next block;
    # every prompt of a stage shares them
    blocks = []
    for example in examples:
        lines = [f"Document: {doc}" for doc in example.documents]
        lines.extend(_field_lines(task, example))
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


# line label -> parse_block key; documents and queries repeat, the rest are scalars
_BLOCK_FIELDS = {
    "Document": "documents", "Query": "queries",
    "Question": "question", "Claim": "claim", "Answer": "answer",
}


def parse_block(block: str) -> dict:
    """The fields of one rendered block (a few-shot block or an episode).

    Returns `documents` and `queries` as lists in line order; `question`,
    `claim` and `answer` when present, a repeated label keeping its last
    value; and `cue`, the block's last line. A label matches only as an
    exact "Label: " line prefix.
    """
    fields: dict = {"documents": [], "queries": []}
    lines = block.split("\n")
    for line in lines:
        label, sep, value = line.partition(": ")
        key = _BLOCK_FIELDS.get(label) if sep else None
        if key == "documents" or key == "queries":
            fields[key].append(value)
        elif key is not None:
            fields[key] = value
    fields["cue"] = lines[-1]
    return fields


def render_episode(question: str, turns, doc_text, cue: Optional[str] = None) -> str:
    """An episode's context after `turns`, (query, retrieved ids) pairs;
    `doc_text` maps an id to its Document line's text. Without a cue the
    context ends in a newline, ready for the model's next line."""
    lines = [f"Question: {question}"]
    for query, retrieved in turns:
        lines.append(f"Query: {query}")
        for doc_id in retrieved:
            lines.append(f"Document: {_clean_document(doc_text(doc_id))}")
    if cue is not None:
        lines.append(cue)
        return "\n".join(lines)
    return "\n".join(lines) + "\n"
