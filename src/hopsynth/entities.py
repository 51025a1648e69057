"""Entity recognizer plug-ins.

The pipeline only needs "which entity-like strings appear in this text".
Two built-ins: a heuristic recognizer that needs no network, and a client
for the HTTP protocol (POST /v1/entities {"texts": [...]} ->
{"entities": [[...]]}) so an external tagger can be swapped in.
"""

from __future__ import annotations

import re

from .httpjson import JsonSession, post_with_retries

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_WORD = re.compile(r"\S+")


def _is_capitalized(word: str) -> bool:
    for ch in word:
        if ch.isalpha():
            return ch.isupper()
    return False


def _has_digit(word: str) -> bool:
    return any(ch.isdigit() for ch in word)


def _strip_edges(word: str) -> str:
    return word.strip("\"'.,;:!?()[]{}")


class HeuristicRecognizer:
    """Capitalized-token spans not at sentence start, plus digit spans.

    Spans are maximal runs of qualifying words. A run anchored at the first
    word of a sentence sheds that word (sentence case is not evidence of a
    name) and keeps the remainder, so "Does The Border Surrender or ..."
    still yields "The Border Surrender".
    """

    def __call__(self, texts: list[str]) -> list[list[str]]:
        return [self.entities(text) for text in texts]

    def entities(self, text: str) -> list[str]:
        found: list[str] = []
        seen: set[str] = set()
        for sentence in _SENTENCE_SPLIT.split(text):
            words = [(m.group(), m.start()) for m in _WORD.finditer(sentence)]
            for span in self._runs(words, _is_capitalized, skip_sentence_start=True):
                if span not in seen:
                    seen.add(span)
                    found.append(span)
            for span in self._runs(words, _has_digit, skip_sentence_start=False):
                if span not in seen:
                    seen.add(span)
                    found.append(span)
        return found

    @staticmethod
    def _runs(words, predicate, skip_sentence_start):
        runs = []
        current: list[str] = []
        start_index = None
        for index, (word, _) in enumerate(words):
            if predicate(_strip_edges(word)):
                if not current:
                    start_index = index
                current.append(_strip_edges(word))
            else:
                if current:
                    runs.append((start_index, current))
                    current = []
        if current:
            runs.append((start_index, current))
        spans = []
        for start, run in runs:
            if skip_sentence_start and start == 0:
                run = run[1:]
            span = " ".join(w for w in run if w)
            if span:
                spans.append(span)
        return spans


class RecognizerError(RuntimeError):
    """The entity endpoint kept failing, or its reply was not one list of strings per text."""


class HttpRecognizer:
    """Client for the /v1/entities wire protocol."""

    def __init__(self, endpoint: str, timeout: float = 30.0, session=None):
        self.session = session or JsonSession(endpoint, timeout)

    def __call__(self, texts: list[str]) -> list[list[str]]:
        payload = post_with_retries(
            self.session, "/v1/entities", {"texts": texts}, RecognizerError
        )
        groups = payload.get("entities") if isinstance(payload, dict) else None
        if not isinstance(groups, list) or len(groups) != len(texts) or not all(
            isinstance(group, list) and all(isinstance(e, str) for e in group)
            for group in groups
        ):
            raise RecognizerError(f"bad entity payload for {len(texts)} texts: {payload!r:.200}")
        return groups
