"""Answer normalization and scoring, and the pipeline's token pattern.

Normalization and scoring follow the SQuAD v1 convention: lowercase, strip
punctuation, drop articles, collapse whitespace, then compare whitespace
tokens as multisets. `score_pair` scores one prediction; `f1_tokens` scores
token lists that a caller normalized once.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass

# one pipeline token: a maximal alphanumeric run or one other non-space character
TOKEN_PATTERN = r"\w+|[^\w\s]"
_WORD_RE = re.compile(r"\w+")
_ARTICLES = {"a", "an", "the"}
_DROP_PUNCT = str.maketrans("", "", string.punctuation)


@dataclass(frozen=True)
class ScorePair:
    """EM/F1 for one prediction. em=True implies f1 == 1.0."""

    em: bool
    f1: float


def word_tokens(text: str) -> list[str]:
    r"""The tokens of `TOKEN_PATTERN` in `text` that hold an alphanumeric character.

    These are exactly the maximal `\w` runs that are not all underscores,
    because `\w` matches a character exactly when it `isalnum()` or is `_`.
    """
    return [word for word in _WORD_RE.findall(text) if word.strip("_")]


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation chars, drop articles, single-space join."""
    no_punct = text.lower().translate(_DROP_PUNCT)
    kept = [tok for tok in no_punct.split() if tok not in _ARTICLES]
    return " ".join(kept)


def f1_tokens(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    """Multiset-overlap F1 of two token lists, for callers that normalize
    a text once and score it against several others.

    Equal lists (both empty included) score 1.0 and lists without a shared
    token (one empty included) 0.0, each without counting; the rest count
    the overlap as `Counter(pred) & Counter(gold)`.
    """
    if pred_tokens == gold_tokens:
        return 1.0
    if set(pred_tokens).isdisjoint(gold_tokens):
        return 0.0
    num_same = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def score_pair(pred: str, gold: str) -> ScorePair:
    """Exact match and token F1 of one prediction against its gold answer,
    each side normalized once: both empty after normalization score 1.0,
    exactly one empty 0.0."""
    pred, gold = normalize_answer(pred), normalize_answer(gold)
    return ScorePair(em=pred == gold, f1=f1_tokens(pred.split(), gold.split()))


def word_count(text: str) -> int:
    """Whitespace word count, used for dataset statistics."""
    return len(text.split())
