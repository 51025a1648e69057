"""Entity recognizer plug-ins.

The pipeline only needs "which entity-like strings appear in this text".
Two built-ins: a heuristic recognizer that needs no network, and a client
for the HTTP protocol (POST /v1/entities {"texts": [...]} ->
{"entities": [[...]]}) so an external tagger can be swapped in.
"""

from __future__ import annotations

import re
from itertools import groupby

from .httpjson import ENCODER, JsonSession, post_with_retries

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def _is_capitalized(word: str) -> bool:
    for ch in word:
        if ch.isalpha():
            return ch.isupper()
    return False


def _has_digit(word: str) -> bool:
    """True when a character of `word` is a digit. No code point is both
    `isalpha()` and `isdigit()`, so an all-letter word (most words) is
    answered by one C call without the walk over its characters."""
    if word.isalpha():
        return False
    return any(ch.isdigit() for ch in word)


def _runs(words: list[str], predicate) -> list[str]:
    """Maximal runs of consecutive words that satisfy `predicate`, space-joined."""
    return [" ".join(run) for matched, run in groupby(words, predicate) if matched]


class HeuristicRecognizer:
    """Capitalized-token spans not at sentence start, plus digit spans.

    Spans are maximal runs of qualifying words, each stripped of edge
    punctuation. Capitalized runs skip a sentence's first word (sentence
    case is not evidence of a name), so "Does The Border Surrender or ..."
    still yields "The Border Surrender".
    """

    def __call__(self, texts: list[str]) -> list[list[str]]:
        return [self.entities(text) for text in texts]

    def entities(self, text: str) -> list[str]:
        found: dict[str, None] = {}  # first occurrence order
        for sentence in _SENTENCE_SPLIT.split(text):
            words = [word.strip("\"'.,;:!?()[]{}") for word in sentence.split()]
            found.update(dict.fromkeys(_runs(words[1:], _is_capitalized)))
            found.update(dict.fromkeys(_runs(words, _has_digit)))
        return list(found)


class RecognizerError(RuntimeError):
    """The entity endpoint kept failing, or its reply was not one list of strings per text."""


class HttpRecognizer:
    """Client for the /v1/entities wire protocol."""

    def __init__(self, endpoint: str, timeout: float = 30.0, session=None):
        self.session = session or JsonSession(endpoint, timeout)

    def __call__(self, texts: list[str]) -> list[list[str]]:
        data = ENCODER.encode({"texts": texts}).encode("ascii")
        payload = post_with_retries(self.session, "/v1/entities", data, RecognizerError)
        groups = payload.get("entities") if isinstance(payload, dict) else None
        if not isinstance(groups, list) or len(groups) != len(texts) or not all(
            isinstance(group, list) and all(isinstance(e, str) for e in group)
            for group in groups
        ):
            raise RecognizerError(f"bad entity payload for {len(texts)} texts: {payload!r:.200}")
        return groups

    def close(self) -> None:
        self.session.close()
