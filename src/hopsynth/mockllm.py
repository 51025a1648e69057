"""Deterministic rule-program backends for offline runs and tests.

Both rules read prompts only through `promptkit.parse_block`.
SyntheticPipelineRule parses a synthesis prompt's target block (its last
block) and plays a cooperative-but-imperfect model:
questions embed their target answer so the answering rule can recover it,
queries quote each document's leading tokens so hash embeddings retrieve
them, and seeded coin flips inject the failure modes (empty output,
entity-free questions, wrong answers) that exercise the filter paths.
GoldScriptRule replays scripted queries/answers for evaluation episodes.
Both are pure functions of (prompt text, seed).

A SyntheticPipelineRule call draws from `pairing.derive_rng(seed, prompt)`,
by definition. Every prompt of a (task, stage, setting) starts with the same
few-shot head, the text before its target block, so the rule keeps each
head's UTF-8 bytes (`promptkit.PromptHeads`) and hashes `f"{seed}:"`, those
bytes and the encoded block: the same sha256 input, encoded once per head
instead of per call.
The cache only saves work; the output stays that of (prompt text, seed).
"""

from __future__ import annotations

import _random
import hashlib
import random
import re
from pathlib import Path
from typing import Optional

from .jsonl import InputError, is_strings, read_json
from .promptkit import PromptHeads, last_block_start, parse_block
from .synthesis import FEVER_LABELS

_ANSWER_TAG = re.compile(r" regarding (.+)\?$")
_LABEL_TAG = re.compile(r"\[(" + "|".join(FEVER_LABELS) + r")\]")
_SCRIPT_ENTRY = '{"queries": [str, ...], "answer": str}'


def _lead_words(text: str, count: int = 4) -> str:
    return " ".join(text.split(None, count)[:count])


def _named_span(text: str) -> str:
    # first run of capitalized words after the sentence-initial one
    words = text.split()
    run: list[str] = []
    for word in words[1:]:
        clean = word.strip(".,;:()\"'")
        if clean and clean[0].isupper():
            run.append(clean)
            if len(run) == 2:
                break
        elif run:
            break
    if run:
        return " ".join(run)
    return _lead_words(text, 2)


class SyntheticPipelineRule:
    """Drives the whole synthesis pipeline without a real model.

    A call reseeds the instance's one generator, so calls are
    single-threaded: one instance must not be called from two threads at
    once.
    """

    def __init__(
        self,
        p_empty: float = 0.04,
        p_plain_question: float = 0.08,
        p_wrong_answer: float = 0.08,
        p_single_hop: float = 0.35,
        p_bad_queries: float = 0.05,
    ):
        self.p_empty = p_empty
        self.p_plain_question = p_plain_question
        self.p_wrong_answer = p_wrong_answer
        self.p_single_hop = p_single_hop
        self.p_bad_queries = p_bad_queries
        self._heads = PromptHeads(str.encode)  # each head's UTF-8 bytes
        self._rng = random.Random()

    def __call__(self, prompt: str, seed: Optional[int]) -> str:
        head, block = self._heads.split(prompt)
        # derive_rng(seed, prompt): the UTF-8 of f"{seed}:{prompt}" is that of
        # its parts, which split at character boundaries
        digest = hashlib.sha256(f"{seed}:".encode("utf-8"))
        digest.update(head)
        digest.update(block.encode("utf-8"))
        rng = self._rng
        # the state of random.Random(n): Random.seed hands an int to this C
        # seeding and resets gauss_next, which the rule never draws
        _random.Random.seed(rng, int.from_bytes(digest.digest()[:8], "big"))
        target = parse_block(block)
        cue = target["cue"]
        if cue == "Question:":
            return self._question(target, rng)
        if cue == "Claim:":
            return self._claim(target, rng)
        if cue == "Answer:" and "claim" in target:
            return self._verify(target, rng)
        if cue == "Answer:":
            return self._answer(target, rng)
        if cue == "Query:":
            return self._queries(target, rng)
        return ""

    def _question(self, target, rng) -> str:
        if rng.random() < self.p_empty:
            return ""
        if rng.random() < self.p_plain_question:
            return " what is the relationship between them?"
        docs = target["documents"]
        first = _named_span(docs[0])
        second = _named_span(docs[-1])
        return f" What connects {first} with {second} regarding {target['answer']}?"

    def _answer(self, target, rng) -> str:
        match = _ANSWER_TAG.search(target.get("question", ""))
        if match is None:
            return " no idea"
        answer = match.group(1)
        if len(target["documents"]) >= 2:
            if rng.random() < self.p_wrong_answer:
                return " something else entirely"
            return f" {answer}"
        if rng.random() < self.p_single_hop:
            return f" {answer}"
        return " no idea"

    def _claim(self, target, rng) -> str:
        if rng.random() < self.p_empty:
            return ""
        docs = target["documents"]
        first = _named_span(docs[0])
        second = _named_span(docs[-1])
        return f" The record shows {first} relates to {second} [{target['answer']}]."

    def _verify(self, target, rng) -> str:
        match = _LABEL_TAG.search(target.get("claim", ""))
        if match is None:
            return " NOT ENOUGH INFO"
        label = match.group(1)
        if len(target["documents"]) >= 2:
            if rng.random() < self.p_wrong_answer:
                wrong = [l for l in FEVER_LABELS if l != label]
                return " " + rng.choice(wrong)
            return " " + label
        if rng.random() < self.p_single_hop:
            return " " + label
        return " " + rng.choice(FEVER_LABELS)

    def _queries(self, target, rng) -> str:
        if rng.random() < self.p_bad_queries:
            return " Query: zzz unfindable gibberish"
        docs = target["documents"]
        lines = [f"Query: {_lead_words(doc)}" for doc in docs[:2]]
        return " " + "\n".join(lines)


class GoldScriptRule:
    """Replay scripted evaluation episodes.

    The script maps a question to {"queries": [s, ...], "answer": s}
    (queries optional). The episode's question is its (last) Question line;
    the rule emits the scripted query after the Query lines already in the
    episode, then the answer. Loadable from a JSON file for CLI runs.
    """

    def __init__(self, script: dict[str, dict]):
        self.script = script

    @classmethod
    def from_file(cls, path: str | Path) -> "GoldScriptRule":
        """A script read from a JSON file; a file that is not one, or an entry
        of another shape, raises InputError naming `<path>` (and the question)."""
        script = read_json(path)
        if not isinstance(script, dict):
            raise InputError(f"{path}: not a JSON object of question -> {_SCRIPT_ENTRY}")
        for question, entry in script.items():
            if not (isinstance(entry, dict) and isinstance(entry.get("answer"), str)
                    and is_strings(entry.get("queries", []))):
                raise InputError(f"{path}: question {question!r}: {entry!r} is not {_SCRIPT_ENTRY}")
        return cls(script)

    def __call__(self, prompt: str, seed: Optional[int]) -> str:
        episode = parse_block(prompt[last_block_start(prompt):])
        entry = self.script.get(episode.get("question", ""))
        if entry is None:
            return ""
        emitted = len(episode["queries"])
        queries = entry.get("queries", [])
        if emitted < len(queries):
            return f"Query: {queries[emitted]}\n"
        return f"Answer: {entry['answer']}\n"
