"""Generation and filtering: questions/claims, entity filter, answerability,
hop classification, and query candidates.

A draft survives when (1) its question carries enough named entities, (2) the
backend can re-answer it from both documents above the F1 threshold, and
(3) valid retrieval queries exist downstream. Questions whose two-document
prediction agrees with a one-document prediction are kept as single-hop with
the predicted answer promoted to ground truth.

Every model call goes through `_ask`: the promptkit prompt for the call's
(task, stage), `mqa` or `fever` and question_gen, answering or query_gen,
under that stage's decode params. A question, claim or answer is the first
line of its completion, stripped, as every prompt takes it on one line and
evaluation reads one line per turn; a query completion's lines are read
with `promptkit.read_model_line`, as evaluation reads its episode turns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import promptkit
from .corpus import Document
from .genbackend import Backend, EmptyCompletion, complete, default_decode_params
from .metrics import f1_tokens, normalize_answer
from .pairing import HYPER, TOPIC, DocumentPair
from .promptkit import (
    ANSWERING,
    QUERY_GEN,
    QUESTION_GEN,
    TASK_FEVER,
    TASK_MQA,
    FewShotExample,
)

ORIGIN_MODEL = "model"
ORIGIN_BACKUP = "original_question_backup"

FEVER_LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")

MAX_MODEL_QUERIES = 4

@dataclass(frozen=True)
class QuestionDraft:
    pair: DocumentPair
    task: str  # mqa | fever
    text: str
    prepared_answer: str


@dataclass
class FilterConfig:
    f1_threshold: float = 0.70  # strict greater-than
    min_entities_hyper: int = 1
    min_entities_topic: int = 2

    def __post_init__(self):
        # a token F1 never exceeds 1, so a threshold of 1 keeps nothing
        if not 0.0 <= self.f1_threshold < 1.0:
            raise ValueError("f1_threshold must be in [0, 1)")
        if min(self.min_entities_hyper, self.min_entities_topic) < 0:
            raise ValueError("min_entities_hyper and min_entities_topic must be >= 0")


def normalize_label(text: str) -> str:
    return " ".join(text.strip().upper().split())


def _ask(
    backend: Backend,
    task: str,
    stage: str,
    setting: str,
    examples: Optional[Sequence[FewShotExample]],
    documents: Sequence[str],
    seed: Optional[int],
    **fields: str,
) -> str:
    """One synthesis completion: the (task, stage) prompt over `documents`
    (with the built-in examples when `examples` is None) under the stage's
    decode params. Returns the trimmed completion, "" when it is empty."""
    if examples is None:
        examples = promptkit.builtin_examples(task, setting)
    prompt = promptkit.render_prompt(task, stage, setting, examples, documents, **fields)
    try:
        return complete(backend, prompt.text, default_decode_params(stage).with_seed(seed))
    except EmptyCompletion:
        return ""


def generate_question(
    pair: DocumentPair,
    answer: str,
    backend: Backend,
    task: str = TASK_MQA,
    examples: Optional[Sequence[FewShotExample]] = None,
    seed: Optional[int] = None,
) -> Optional[QuestionDraft]:
    """Generate one question (or claim) for a pair, or None when the backend
    produced nothing usable."""
    text = _ask(
        backend, task, QUESTION_GEN, pair.relation, examples,
        [pair.d1.text, pair.d2.text], seed, answer=answer,
    ).partition("\n")[0].strip()
    if not text:
        return None
    if task == TASK_MQA:
        # questions must end at their question mark; repair or give up
        mark = text.find("?")
        text = text[: mark + 1] if mark != -1 else text + "?"
    return QuestionDraft(pair=pair, task=task, text=text, prepared_answer=answer)


def entity_count_filter(
    draft: QuestionDraft, entities: Sequence[str], config: FilterConfig
) -> bool:
    """True when the question names enough entities for its setting.

    `entities` are the recognizer's entities for `draft.text`.
    """
    minimum = (
        config.min_entities_hyper if draft.pair.relation == HYPER else config.min_entities_topic
    )
    return len(entities) >= minimum


def answer_question(
    question: str,
    docs: Sequence[Document],
    backend: Backend,
    task: str = TASK_MQA,
    setting: str = HYPER,
    examples: Optional[Sequence[FewShotExample]] = None,
    seed: Optional[int] = None,
) -> str:
    """Predict an answer for the question over exactly the given documents."""
    if not 1 <= len(docs) <= 2:
        raise ValueError("answering takes one or two documents")
    return _ask(
        backend, task, ANSWERING, setting, examples,
        [doc.text for doc in docs], seed, question=question,
    ).partition("\n")[0].strip()


def _answer_tokens(text: str) -> list[str]:
    return normalize_answer(text).split()


def classify_hops(
    draft: QuestionDraft,
    pred_both: str,
    pred_first: str,
    pred_second: str,
    config: FilterConfig,
) -> Optional[dict]:
    """The kept draft's decision row, or None when it drops.

    The row is {"hops": "one" | "two", "answerable_in": the sorted list of
    "both" and each single-document context ("first", "second") whose
    prediction agrees, "final_answer": str}: the fields
    `stage_filter_answers` adds to its input row.

    When the two-document prediction agrees with a single-document one, the
    draft is kept as single-hop (topic pairs stay two-hop) and the prediction
    becomes the answer, even when it differs from the prepared answer.
    Otherwise the draft survives only if the two-document prediction matches
    the prepared answer, as two-hop. Everything else drops.

    A blank two-document prediction drops the draft. Otherwise it agrees
    with another text when, for fever, the two `normalize_label` labels are
    equal, and for MQA, `metrics.f1_tokens` of the two `normalize_answer`
    token lists is strictly above `config.f1_threshold`. Each text is
    normalized once per draft, and the prepared answer only when no
    single-document prediction agrees.
    """
    if not pred_both.strip():
        return None
    if draft.task == TASK_FEVER:
        normalize, agrees = normalize_label, str.__eq__
    else:
        threshold = config.f1_threshold
        normalize = _answer_tokens
        agrees = lambda pred, gold: f1_tokens(pred, gold) > threshold  # noqa: E731
    both = normalize(pred_both)
    agrees_first = agrees(both, normalize(pred_first))
    agrees_second = agrees(both, normalize(pred_second))
    if agrees_first or agrees_second:
        answerable_in = ["both"]  # kept sorted
        if agrees_first:
            answerable_in.append("first")
        if agrees_second:
            answerable_in.append("second")
        hops = "two" if draft.pair.relation == TOPIC else "one"
        return {"hops": hops, "answerable_in": answerable_in, "final_answer": pred_both}
    if agrees(both, normalize(draft.prepared_answer)):
        return {"hops": "two", "answerable_in": ["both"], "final_answer": draft.prepared_answer}
    return None


def generate_queries(
    pair: DocumentPair,
    question: str,
    answer: str,
    backend: Backend,
    task: str = TASK_MQA,
    examples: Optional[Sequence[FewShotExample]] = None,
    seed: Optional[int] = None,
) -> list[dict]:
    """Model query candidates (capped) plus the original question as backup.

    Each candidate is the row {"text", "origin": ORIGIN_MODEL or
    ORIGIN_BACKUP, "rank": its generation rank}.
    """
    if not question:
        raise ValueError("query generation needs a question")
    completion = _ask(
        backend, task, QUERY_GEN, pair.relation, examples,
        [pair.d1.text, pair.d2.text], seed, question=question, answer=answer,
    )
    candidates: list[dict] = []
    for line in completion.split("\n"):
        text = promptkit.read_model_line(line, "queries")
        if text:
            candidates.append({"text": text, "origin": ORIGIN_MODEL, "rank": len(candidates)})
        if len(candidates) >= MAX_MODEL_QUERIES:
            break
    candidates.append({"text": question, "origin": ORIGIN_BACKUP, "rank": len(candidates)})
    return candidates
