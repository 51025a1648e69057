"""Iterative-retrieval evaluation: the model alternates queries and an answer.

An episode renders the running context with `promptkit.render_episode`
("Question:", then each "Query:" with its retrieved "Document:" lines),
completes one line at a time, retrieves on "Query:" turns, and stops on
"Answer:". At the hop limit the harness forces an answering turn by ending
the context with "Answer:". Completions are read here, leniently: a
"Query:"/"Answer:" prefix with or without a space, whitespace stripped.
Scoring is EM/F1 for QA, accuracy for fact verification, with majority-vote
self-consistency over sampled answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .genbackend import (
    Backend,
    DecodeParams,
    EmptyCompletion,
    complete,
)
from .metrics import normalize_answer, score_pair
from .promptkit import render_episode
from .retrieval import FlatIndex, embed, search
from .synthesis import FEVER_LABELS, normalize_label

HALT_ANSWERED = "answered"
HALT_HOP_LIMIT = "hop_limit"
HALT_EMPTY = "empty_completion"


@dataclass(frozen=True)
class Transcript:
    question: str
    turns: tuple[tuple[str, tuple[str, ...]], ...]  # (emitted query, retrieved ids)
    final_answer: Optional[str]
    halted_reason: str


@dataclass
class EvalConfig:
    max_hops: int = 2
    k: int = 7
    self_consistency_samples: int = 20

    def __post_init__(self):
        for name in ("max_hops", "k", "self_consistency_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def run_episode(
    question: str,
    backend: Backend,
    index: FlatIndex,
    provider,
    config: EvalConfig,
    params: DecodeParams,
    doc_text_lookup=None,
) -> Transcript:
    """One retrieval episode for a question.

    Each turn is one completion under `params`, an eval stage's decode
    params, whose stop sequence (a newline) ends the turn at its line.
    `doc_text_lookup` maps a doc id to the text inserted into the context;
    it defaults to the id itself (tests) and is normally store lookup.
    Backend errors such as BackendUnavailable propagate: an outage is not a
    wrong answer.
    """
    texts = doc_text_lookup or (lambda doc_id: doc_id)
    turns: list[tuple[str, tuple[str, ...]]] = []
    while len(turns) < config.max_hops:
        prompt = render_episode(question, turns, texts)
        try:
            completion = complete(backend, prompt, params).strip()
        except EmptyCompletion:
            return Transcript(question, tuple(turns), None, HALT_EMPTY)
        if completion.startswith("Answer:"):
            answer = completion[len("Answer:"):].strip()
            if not answer:
                return Transcript(question, tuple(turns), None, HALT_EMPTY)
            return Transcript(question, tuple(turns), answer, HALT_ANSWERED)
        if completion.startswith("Query:"):
            query = completion[len("Query:"):].strip()
            if not query:
                return Transcript(question, tuple(turns), None, HALT_EMPTY)
            vec = embed(provider, [query])[0]
            retrieved = tuple(s.doc_id for s in search(index, vec, config.k))
            turns.append((query, retrieved))
            continue
        # anything else is unusable output
        return Transcript(question, tuple(turns), None, HALT_EMPTY)

    # hop limit: force one answering turn
    prompt = render_episode(question, turns, texts, cue="Answer:")
    try:
        completion = complete(backend, prompt, params).strip()
    except EmptyCompletion:
        return Transcript(question, tuple(turns), None, HALT_HOP_LIMIT)
    if completion.startswith("Answer:"):
        completion = completion[len("Answer:"):].strip()
    if not completion or completion.startswith("Query:"):
        return Transcript(question, tuple(turns), None, HALT_HOP_LIMIT)
    return Transcript(question, tuple(turns), completion, HALT_ANSWERED)


def score_qa(predictions: Sequence[str], golds: Sequence[str]) -> tuple[float, float]:
    """Mean EM and F1, both in percent."""
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("nothing to score")
    pairs = [score_pair(p, g) for p, g in zip(predictions, golds)]
    em = 100.0 * sum(1 for s in pairs if s.em) / len(pairs)
    f1 = 100.0 * sum(s.f1 for s in pairs) / len(pairs)
    return em, f1


def score_fever(predictions: Sequence[str], golds: Sequence[str]) -> float:
    """Label accuracy in percent; labels must be in the three-class set."""
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("nothing to score")
    allowed = set(FEVER_LABELS)
    correct = 0
    for pred, gold in zip(predictions, golds):
        pred_label, gold_label = normalize_label(pred), normalize_label(gold)
        if pred_label not in allowed or gold_label not in allowed:
            raise ValueError(f"label outside the class set: {pred!r} / {gold!r}")
        correct += pred_label == gold_label
    return 100.0 * correct / len(golds)


def self_consistency(answers: Sequence[str]) -> str:
    """Majority answer over normalization classes.

    The winning class's first-seen surface form is returned; ties go to the
    class seen earliest.
    """
    if not answers:
        raise ValueError("self-consistency needs at least one answer")
    order: list[str] = []
    counts: dict[str, int] = {}
    surface: dict[str, str] = {}
    for answer in answers:
        key = normalize_answer(answer)
        if key not in counts:
            counts[key] = 0
            surface[key] = answer
            order.append(key)
        counts[key] += 1
    best = max(order, key=lambda key: (counts[key], -order.index(key)))
    return surface[best]
