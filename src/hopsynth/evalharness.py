"""Iterative-retrieval evaluation: the model alternates queries and an answer.

An episode renders the running context with `promptkit.render_episode`
("Question:", then each "Query:" with its retrieved "Document:" lines) and
completes one line per turn, read in one place: a "Query:" line retrieves
and the episode goes on, an "Answer:" line ends it. Prefixes are matched
with or without a space after the colon, whitespace stripped. Once
`max_hops` queries have been made, the hop limit changes only the cue: the
context ends with "Answer:", so a bare line is the answer, while a "Query:"
line, an empty completion or "Answer: Query: ..." halt with `hop_limit`.
Before the limit, any unusable line halts with `empty_completion`.
Scoring is EM/F1 for QA, accuracy for fact verification, with majority-vote
self-consistency over sampled answers.

An episode's first turn reads nothing but its question, so `open_episodes`
runs that turn for a block of episodes at once: each "Question:" context is
completed once under its own params, and the distinct opening queries are
embedded and searched EMBED_BLOCK at a time. `run_episode` continues an
episode from its opening; called without one, it opens the episode itself
the same way.
"""

from __future__ import annotations

from collections import Counter
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
from .retrieval import FlatIndex, embed, per_distinct_text, search
from .synthesis import FEVER_LABELS, normalize_label

HALT_ANSWERED = "answered"
HALT_HOP_LIMIT = "hop_limit"
HALT_EMPTY = "empty_completion"


Turn = tuple[str, tuple[str, ...]]  # (emitted query, retrieved ids)


@dataclass(frozen=True)
class Transcript:
    turns: tuple[Turn, ...]
    final_answer: Optional[str]
    halted_reason: str


@dataclass(frozen=True)
class Opening:
    """An episode's first turn: the completed line, and the turn it adds when
    that line is a query (None when the episode ends on it)."""
    line: str
    turn: Optional[Turn]


@dataclass
class EvalConfig:
    max_hops: int = 2
    k: int = 7
    self_consistency_samples: int = 20
    mode: str = "greedy"  # greedy | self_consistency

    def __post_init__(self):
        for name in ("max_hops", "k", "self_consistency_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.mode not in ("greedy", "self_consistency"):
            raise ValueError(f"mode {self.mode!r} is not one of greedy, self_consistency")


def _complete_line(backend: Backend, prompt: str, params: DecodeParams) -> str:
    try:
        return complete(backend, prompt, params).strip()
    except EmptyCompletion:
        return ""


def _query_of(line: str) -> str:
    return line[len("Query:"):].strip() if line.startswith("Query:") else ""


def open_episodes(
    episodes: Sequence[tuple[str, DecodeParams]],
    backend: Backend,
    index: FlatIndex,
    provider,
    config: EvalConfig,
) -> list[Opening]:
    """The first turn of each (question, params) episode, in order.

    Each "Question:" context is completed once, in order, under its own
    params. The distinct opening queries are then embedded and searched
    EMBED_BLOCK at a time: one provider call and one block search each,
    whose ids equal a per-query search's.
    """
    lines = [_complete_line(backend, render_episode(question, (), str), params)
             for question, params in episodes]
    queries = [_query_of(line) for line in lines]
    retrieved = per_distinct_text(
        lambda block: search(index, embed(provider, block), config.k), filter(None, queries)
    )
    return [Opening(line, (query, retrieved[query]) if query else None)
            for line, query in zip(lines, queries)]


def run_episode(
    question: str,
    backend: Backend,
    index: FlatIndex,
    provider,
    config: EvalConfig,
    params: DecodeParams,
    doc_text_lookup=None,
    opening: Optional[Opening] = None,
) -> Transcript:
    """One retrieval episode for a question, continued from its `opening`.

    Without an opening, the episode opens itself through `open_episodes`.
    Each later turn is one completion under `params`, an eval stage's decode
    params, whose stop sequence (a newline) ends the turn at its line.
    `doc_text_lookup` maps a doc id to the text inserted into the context;
    it defaults to the id itself (tests) and is normally store lookup.
    Backend errors such as BackendUnavailable propagate: an outage is not a
    wrong answer.
    """
    if opening is None:
        opening = open_episodes([(question, params)], backend, index, provider, config)[0]
    texts = doc_text_lookup or (lambda doc_id: doc_id)
    turns: list[Turn] = []
    line, turn = opening.line, opening.turn
    at_limit = False  # max_hops >= 1, so the opening turn is never at the limit
    while turn is not None:
        turns.append(turn)
        at_limit = len(turns) == config.max_hops
        prompt = render_episode(question, turns, texts, cue="Answer:" if at_limit else None)
        line = _complete_line(backend, prompt, params)
        query, turn = _query_of(line), None
        if query and not at_limit:
            turn = (query, search(index, embed(provider, [query]), config.k)[0])
    if line.startswith("Answer:"):
        answer = line[len("Answer:"):].strip()
    else:
        answer = line if at_limit else ""
    if at_limit and answer.startswith("Query:"):
        answer = ""
    halted = HALT_ANSWERED if answer else HALT_HOP_LIMIT if at_limit else HALT_EMPTY
    return Transcript(tuple(turns), answer or None, halted)


def _check_scorable(predictions: Sequence[str], golds: Sequence[str]) -> None:
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("nothing to score")


def score_qa(predictions: Sequence[str], golds: Sequence[str]) -> tuple[float, float]:
    """Mean EM and F1, both in percent."""
    _check_scorable(predictions, golds)
    pairs = [score_pair(p, g) for p, g in zip(predictions, golds)]
    em = 100.0 * sum(1 for s in pairs if s.em) / len(pairs)
    f1 = 100.0 * sum(s.f1 for s in pairs) / len(pairs)
    return em, f1


def score_fever(predictions: Sequence[str], golds: Sequence[str]) -> float:
    """Label accuracy in percent. A prediction outside the three-class set (an
    unanswered episode's "") is wrong; a gold label outside it raises ValueError."""
    _check_scorable(predictions, golds)
    correct = 0
    for pred, gold in zip(predictions, golds):
        gold_label = normalize_label(gold)
        if gold_label not in FEVER_LABELS:
            raise ValueError(f"gold label outside the class set: {gold!r}")
        correct += normalize_label(pred) == gold_label
    return 100.0 * correct / len(golds)


def self_consistency(answers: Sequence[str]) -> str:
    """Majority answer over normalization classes.

    The winning class's first-seen surface form is returned; ties go to the
    class seen earliest. A single answer wins by itself.
    """
    if not answers:
        raise ValueError("self-consistency needs at least one answer")
    keys = [normalize_answer(answer) for answer in answers]
    counts = Counter(keys)
    return answers[keys.index(max(counts, key=counts.__getitem__))]
