"""Iterative-retrieval evaluation: the model alternates queries and an answer.

An episode renders the running context with `promptkit.render_episode`
("Question:", then each "Query:" with its retrieved "Document:" lines) and
completes one line per turn, read by `promptkit.read_model_line` as
synthesis reads its query lines: a "Query:" line retrieves and the episode
goes on, an "Answer:" line ends it. Once `max_hops` queries have been made,
the hop limit changes only the cue: the context ends with HOP_LIMIT_CUE, so
a bare line is the answer, while a "Query:" line, an empty completion or
"Answer: Query: ..." halt with `hop_limit`.
Before the limit, any unusable line halts with `empty_completion`.
Scoring is EM/F1 for QA, accuracy for fact verification, with majority-vote
self-consistency over sampled answers.

Episodes play in rounds, a block at a time (`play_episodes`): each round
completes every live episode's next turn, in block order, then embeds and
searches the round's distinct new queries EMBED_BLOCK at a time. The
backend gets all first turns of a block, then all second turns, and so on;
each (prompt, seed) once. `run_episode` reads a played episode into a
`Transcript`.
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
from .promptkit import HOP_LIMIT_CUE, read_model_line, render_episode
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
class Played:
    """An episode played to its end: its turns, its last completed line, and
    whether that line was completed after the hop limit's "Answer:" cue."""
    turns: tuple[Turn, ...]
    line: str
    at_limit: bool


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


def play_episodes(
    episodes: Sequence[tuple[str, DecodeParams]],
    backend: Backend,
    index: FlatIndex,
    provider,
    config: EvalConfig,
    doc_text_lookup,
) -> list[Played]:
    """Play each (question, params) episode to its end, in rounds.

    A round renders and completes each live episode's next turn, in order,
    under the episode's own params, whose stop sequence (a newline) ends the
    turn at its line; the turn after `max_hops` queries ends in HOP_LIMIT_CUE.
    The round's distinct new queries are then embedded and searched
    EMBED_BLOCK at a time: one provider call and one block search each,
    whose ids equal a per-query search's. An episode stays live while its
    line is a query before the hop limit. `doc_text_lookup` maps a doc id to
    the text inserted into the context, such as the store's lookup. Backend
    and embedding errors such as BackendUnavailable propagate: an outage is
    not a wrong answer.
    """
    turns: list[list[Turn]] = [[] for _ in episodes]
    lines = [""] * len(episodes)
    live = range(len(episodes))
    while live:
        queries = {}
        for n in live:
            question, params = episodes[n]
            at_limit = len(turns[n]) == config.max_hops
            prompt = render_episode(question, turns[n], doc_text_lookup,
                                    HOP_LIMIT_CUE if at_limit else None)
            try:
                lines[n] = complete(backend, prompt, params).strip()
            except EmptyCompletion:
                lines[n] = ""
            query = read_model_line(lines[n], "queries")
            if query and not at_limit:
                queries[n] = query
        retrieved = per_distinct_text(
            lambda block: search(index, embed(provider, block), config.k), queries.values()
        )
        for n, query in queries.items():
            turns[n].append((query, retrieved[query]))
        live = list(queries)
    # max_hops >= 1, so an episode ends at the limit exactly when it made max_hops queries
    return [Played(tuple(episode_turns), line, len(episode_turns) == config.max_hops)
            for episode_turns, line in zip(turns, lines)]


def run_episode(question: str, played: Played) -> Transcript:
    """The transcript of a question's retrieval episode, played by
    `play_episodes`: its turns, its answer and why it halted.

    The backend is asked nothing. `question` names the episode: perfbench's
    tracer keys each `run_episode` span on the first argument.
    """
    line, at_limit = played.line, played.at_limit
    answer = read_model_line(line, "answer")
    if answer is None:
        answer = line if at_limit else ""
    if at_limit and read_model_line(answer, "queries") is not None:
        answer = ""
    halted = HALT_ANSWERED if answer else HALT_HOP_LIMIT if at_limit else HALT_EMPTY
    return Transcript(played.turns, answer or None, halted)


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
