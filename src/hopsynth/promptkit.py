"""The prompt layout: few-shot stores, and the only code that renders or
parses prompt text ("Label: value" lines).

A synthesis prompt is keyed by (task, stage): the task (`mqa` or `fever`)
names the question label, `Question` or `Claim`, and the stage fixes the
field order after the block's Document lines:

    question_gen   Answer, Question
    answering      Question, Answer
    query_gen      Question, Answer, Query...

Its blocks are blank-line separated, and one block writer writes them all:
the examples, then the target instance, which stops at the stage's cue (its
last field) so the completion supplies that field; STOP_SEQUENCES end it
(the synthesis stages' `DecodeParams.stop`). The built-in examples ship as
data files and are the complete human-annotated seed set: four per
multi-hop setting and eight for fact verification, shared by every stage.

An evaluation episode is one block: the Question line, then each turn's
Query line and its retrieved Document lines. In both layouts a document is
one line: its newlines become spaces. `parse_block` reads any block, and
`read_model_line` every line a model writes, in synthesis and evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

from .jsonl import STRING, InputError, is_strings, read_numbered_rows

TASK_MQA = "mqa"
TASK_FEVER = "fever"

QUESTION_GEN = "question_gen"
ANSWERING = "answering"
QUERY_GEN = "query_gen"

_BLOCK_BREAK = "\n\n"  # the blank line between a synthesis prompt's blocks
STOP_SEQUENCES = (_BLOCK_BREAK, "\nDocument:")
EPISODE_STOP = ("\n",)  # an evaluation turn is one line
HOP_LIMIT_CUE = "Answer:"  # ends the context of the turn after the hop limit

# ordered fields after the documents per stage; the last one is the cue
_LAYOUTS = {
    QUESTION_GEN: ("answer", "question"),
    ANSWERING: ("question", "answer"),
    QUERY_GEN: ("question", "answer", "queries"),
}
# field -> line label per task; fact verification writes its claims as Claim lines
_LABELS = {
    TASK_MQA: {"question": "Question", "answer": "Answer", "queries": "Query"},
    TASK_FEVER: {"question": "Claim", "answer": "Answer", "queries": "Query"},
}
# (task, setting) -> its built-in example file; the pairs `_check_task` accepts
_BUILTIN_FILES = {
    (TASK_MQA, "hyper"): "mqa_hyper",
    (TASK_MQA, "topic"): "mqa_topic",
    (TASK_FEVER, "hyper"): "fever",
}
# (task, stage, setting) -> (the (field, label) pairs given before the cue,
# the cue line): one lookup checks a prompt's keys
_TARGETS = {
    (task, stage, setting): (tuple((name, _LABELS[task][name]) for name in fields[:-1]),
                             f"{_LABELS[task][fields[-1]]}:")
    for task, setting in _BUILTIN_FILES
    for stage, fields in _LAYOUTS.items()
}
# field -> the label that starts a model's line for it, in every task
_MODEL_LABELS = {"answer": "Answer:", "queries": "Query:"}


class PromptError(ValueError):
    """Invalid task/stage/setting combination or missing required field."""


@dataclass(frozen=True)
class FewShotExample:
    documents: tuple[str, str]
    question_or_claim: str
    answer: str
    queries: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.queries) > 2:
            raise ValueError("an example carries at most two queries")
        # each field is one prompt line; a newline would start a new field
        for value in (self.question_or_claim, self.answer, *self.queries):
            if "\n" in value:
                raise ValueError(f"example field {value!r} must be a single line")


@dataclass(frozen=True)
class PromptText:
    text: str


def _check_task(task: str, setting: str, stage: Optional[str] = None) -> None:
    if task not in _LABELS:
        raise PromptError(f"unknown task: {task}")
    if stage is not None and stage not in _LAYOUTS:
        raise PromptError(f"unknown stage: {stage}")
    if setting not in ("hyper", "topic"):
        raise PromptError(f"unknown setting: {setting}")
    if task == TASK_FEVER and setting == "topic":
        raise PromptError("fact verification only uses the hyper setting")


_EXAMPLE_FIELDS = {
    "documents": (lambda value: is_strings(value) and len(value) == 2, "a list of two strings"),
    "question": STRING,
    "answer": STRING,
}
_EXAMPLE_OPTIONAL = {"queries": (is_strings, "a list of strings")}


def _example_from_row(row: dict, where: str) -> FewShotExample:
    documents = row["documents"]
    try:
        return FewShotExample(
            documents=(documents[0], documents[1]),
            question_or_claim=row["question"],
            answer=row["answer"],
            queries=tuple(row.get("queries", ())),
        )
    except ValueError as exc:  # more than two queries, or a field of more than one line
        raise InputError(f"{where}: {exc}") from None


def load_examples(path: str | Path) -> tuple[FewShotExample, ...]:
    """Read a few-shot store, JSONL of documents/question/answer/queries, as
    a tuple: an immutable store, whose rendered examples prompts share.

    The reader checks the fields (`_EXAMPLE_FIELDS`: documents two strings,
    question and answer strings; `_EXAMPLE_OPTIONAL`: queries a list of
    strings). A row that fails one, or that `FewShotExample` refuses, raises
    InputError naming `<path>:<line>`; so does a store with no rows, naming
    `<path>`, as a few-shot prompt needs examples.
    """
    rows = read_numbered_rows(path, fields=_EXAMPLE_FIELDS, optional=_EXAMPLE_OPTIONAL)
    examples = tuple(_example_from_row(row, f"{path}:{line}") for line, row in rows)
    if not examples:
        raise InputError(f"{path}: no few-shot examples")
    return examples


@functools.lru_cache(maxsize=None)
def _load_builtin(name: str) -> tuple[FewShotExample, ...]:
    # one parse per data file and process; every prompt asks for its examples
    return load_examples(resources.files("hopsynth.data").joinpath(f"{name}.jsonl"))


def builtin_examples(task: str, setting: str) -> tuple[FewShotExample, ...]:
    """The built-in annotated examples for a task and setting (one shared tuple)."""
    name = _BUILTIN_FILES.get((task, setting))
    if name is None:
        _check_task(task, setting)  # raises the PromptError naming the bad value
    return _load_builtin(name)


def one_line(text: str) -> str:
    """`text` with its newlines as spaces: prompt blocks are line-oriented,
    and corpus texts and answer candidates may carry newlines."""
    return text.replace("\n", " ")


def _write_block(documents: Sequence[str], lines: list[str]) -> str:
    """One block: a Document line per document, then `lines`."""
    return "\n".join([*(f"Document: {one_line(doc)}" for doc in documents), *lines])


def render_prompt(
    task: str,
    stage: str,
    setting: str,
    examples: Sequence[FewShotExample],
    documents: Sequence[str],
    answer: Optional[str] = None,
    question: Optional[str] = None,
) -> PromptText:
    """Render the few-shot prompt for one target instance.

    `documents` are the target document texts (two normally; the answering
    stage also accepts a single document for per-document probes). Every
    field before the stage's cue must be given; the prompt ends at the cue.
    A bad task, stage or setting, then a missing or multi-line field, then an
    empty `documents` raises PromptError, in that order.

    One `_TARGETS` lookup checks the keys. The example blocks are rendered
    once per (task, stage) and example set (`_example_prefix`).
    """
    try:
        given, cue = _TARGETS[task, stage, setting]
    except KeyError:
        _check_task(task, setting, stage)  # raises the PromptError naming the bad value
        raise
    lines = []
    for name, label in given:
        value = question if name == "question" else answer
        if value is None or "\n" in value:
            raise PromptError(f"{task} {stage} needs a single-line {label} field")
        lines.append(f"{label}: {value}")
    if not documents:
        raise PromptError("target needs at least one document")
    lines.append(cue)
    return PromptText(_example_prefix(task, stage, examples) + _write_block(documents, lines))


# (task, stage, store key) -> (the store, its example blocks); cleared when full
_PREFIXES: dict[tuple, tuple[Sequence[FewShotExample], str]] = {}
_PREFIXES_MAX = 64


def _example_prefix(task: str, stage: str, examples: Sequence[FewShotExample]) -> str:
    """The example blocks, each followed by the blank line before the next
    block; every prompt of a (task, stage) and example set shares them.

    A tuple store (`builtin_examples`, `load_examples`) cannot change, so it
    is keyed by identity, and its entry holds the tuple, so that its id is
    not reused while cached. Any other sequence may change between calls and
    is keyed by its contents.
    """
    key = (task, stage, id(examples) if isinstance(examples, tuple) else tuple(examples))
    entry = _PREFIXES.get(key)
    if entry is None:
        if len(_PREFIXES) >= _PREFIXES_MAX:
            _PREFIXES.clear()
        entry = _PREFIXES[key] = (examples, _render_examples(task, stage, examples))
    return entry[1]


def _render_examples(task: str, stage: str, examples: Sequence[FewShotExample]) -> str:
    labels = _LABELS[task]
    blocks = []
    for example in examples:
        values = {
            "question": (example.question_or_claim,),
            "answer": (example.answer,),
            "queries": example.queries,
        }
        lines = [f"{labels[name]}: {value}" for name in _LAYOUTS[stage] for value in values[name]]
        blocks.append(_write_block(example.documents, lines) + _BLOCK_BREAK)
    return "".join(blocks)


# line label -> parse_block key; documents and queries repeat, the rest are scalars
_BLOCK_FIELDS = {
    "Document": "documents", "Query": "queries",
    "Question": "question", "Claim": "claim", "Answer": "answer",
}


def last_block_start(text: str) -> int:
    """Where the last block of `text` starts: just after its last blank line,
    or 0 when it has none."""
    end = text.rfind(_BLOCK_BREAK)
    return 0 if end < 0 else end + len(_BLOCK_BREAK)


HEADS_MAX = 64  # heads a PromptHeads keeps; it is cleared when full


class PromptHeads:
    """`encode` of each prompt head, computed once per head.

    Every synthesis prompt of a (task, stage, setting) and example set
    starts with the same few-shot head, the text before its target block
    (`last_block_start`). `split(prompt)` returns `encode(head)` and the
    target block. The values are keyed by the head's length, and a hit must
    match the prompt, since two heads can have the same length. At most
    HEADS_MAX heads are kept.
    """

    def __init__(self, encode: Callable[[str], object]):
        self._encode = encode
        self._heads: dict[int, tuple[str, object]] = {}

    def split(self, prompt: str) -> tuple[object, str]:
        start = last_block_start(prompt)
        head = self._heads.get(start)
        if head is None or not prompt.startswith(head[0]):
            if len(self._heads) >= HEADS_MAX:
                self._heads.clear()
            text = prompt[:start]
            head = self._heads[start] = (text, self._encode(text))
        return head[1], prompt[start:]


def parse_block(block: str) -> dict:
    """The fields of one block (a prompt's target block, or an episode), as
    given: a caller cuts a prompt's last block with `last_block_start`.

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


def read_model_line(line: str, field: str) -> Optional[str]:
    """The value, stripped, of a model's line for `field` ("answer" or "queries"):
    the line, stripped, starts with `Answer:` or `Query:`, the space after the
    colon optional. None for any other line; "" for a label alone."""
    label = _MODEL_LABELS[field]
    line = line.strip()
    return line[len(label):].strip() if line.startswith(label) else None


def render_episode(question: str, turns, doc_text, cue: Optional[str] = None) -> str:
    """An episode's context after `turns`, (query, retrieved ids) pairs;
    `doc_text` maps an id to its Document line's text. Without a cue the
    context ends in a newline, ready for the model's next line."""
    lines = [f"Question: {question}"]
    for query, retrieved in turns:
        lines.append(f"Query: {query}")
        for doc_id in retrieved:
            lines.append(f"Document: {one_line(doc_text(doc_id))}")
    return "\n".join([*lines, cue or ""])
