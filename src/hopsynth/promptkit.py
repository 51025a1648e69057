"""Few-shot prompt stores and task prompt rendering.

Prompts are blank-line separated blocks of labeled lines. The field order
depends on the task:

    question_gen   Document, Document, Answer, Question
    answer         Document(s), Question, Answer
    query_gen      Document, Document, Question, Answer, Query...
    claim_gen      Document, Document, Answer, Claim
    verify         Document, Document, Claim, Answer

The final block is the target instance and stops at the cue label, so the
completion supplies the missing field. The built-in examples ship as data
files and are the complete human-annotated seed set: four per multi-hop
(task, setting) and eight shared across the fact-verification tasks.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
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

STOP_SEQUENCES = ["\n\n", "\nDocument:"]

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
    stop_sequences: tuple[str, ...]


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


def builtin_examples(task: str, setting: str) -> list[FewShotExample]:
    """The built-in annotated examples for a task and setting."""
    _check_task(task, setting)
    return list(_load_builtin("fever" if task in FEVER_TASKS else f"mqa_{setting}"))


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

    blocks = []
    for example in examples:
        lines = [f"Document: {doc}" for doc in example.documents]
        lines.extend(_field_lines(task, example))
        blocks.append("\n".join(lines))

    target = [f"Document: {_clean_document(doc)}" for doc in documents]
    for name in required:
        if name == "question":
            target.append(f"{q_label}: {_check_field(question, 'question/claim')}")
        elif name == "answer":
            target.append(f"Answer: {_check_field(answer, 'answer')}")
    target.append(f"{cue}:")
    blocks.append("\n".join(target))

    text = "\n\n".join(blocks)
    return PromptText(text=text, stop_sequences=tuple(STOP_SEQUENCES))


def parse_prompt(task: str, text: str) -> list[dict]:
    """Invert render_prompt: recover the block fields of a rendered prompt."""
    q_label = _QUESTION_LABEL[task]
    blocks = []
    for chunk in text.split("\n\n"):
        fields: dict = {"documents": [], "queries": []}
        for line in chunk.split("\n"):
            if line.startswith("Document: "):
                fields["documents"].append(line[len("Document: "):])
            elif line.startswith(f"{q_label}: "):
                fields["question"] = line[len(q_label) + 2:]
            elif line.startswith("Answer: "):
                fields["answer"] = line[len("Answer: "):]
            elif line.startswith("Query: "):
                fields["queries"].append(line[len("Query: "):])
        blocks.append(fields)
    return blocks
