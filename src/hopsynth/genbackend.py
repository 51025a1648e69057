"""Text-completion backends: a remote HTTP endpoint and a deterministic mock.

Wire protocol: POST {endpoint}/v1/completions with
    {"prompt": s, "max_tokens": n, "temperature": x, "top_p": x,
     "top_k": n|null, "stop": [s], "seed": n|null}
returning {"text": s}. A request is the prompt text plus `DecodeParams`;
`stop` carries the stage's stop sequences, and `complete` trims the
returned text at them too. The mock backend answers with a rule program
and is a pure function of (prompt text, seed).

A request body is the bytes of `json.dumps(body, allow_nan=False)`, in the
key order above, built from three pieces. Every synthesis prompt of a
stage starts with the same few-shot head, so `HttpBackend` keeps the
escaped text of each head (`promptkit.PromptHeads`). It escapes only the
target block per request, and encodes the params with `httpjson.ENCODER`.
The bytes are identical because `json.dumps` escapes a string one code
point at a time (`encode_basestring_ascii`): the escape of head + block is
the escape of the head followed by that of the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from .httpjson import ENCODER, JsonSession, post_with_retries
from .promptkit import (
    ANSWERING,
    EPISODE_STOP,
    QUERY_GEN,
    QUESTION_GEN,
    STOP_SEQUENCES,
    PromptHeads,
)

EVAL_GREEDY = "eval_greedy"
EVAL_SELF_CONSISTENCY = "eval_self_consistency"


class BackendUnavailable(RuntimeError):
    """The endpoint kept failing after bounded retries."""


class MalformedResponse(RuntimeError):
    """The endpoint answered with something other than {"text": str}."""


class EmptyCompletion(RuntimeError):
    """The completion was empty after stop-sequence trimming."""


@dataclass(frozen=True)
class DecodeParams:
    max_tokens: int
    temperature: float = 1.0
    top_p: float = 1.0
    top_k: Optional[int] = None
    stop: tuple[str, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if not 0.0 <= self.temperature < math.inf:  # False for NaN too
            raise ValueError("temperature must be finite and non-negative")
        # one sampling family at a time: nucleus, top-k, or greedy
        if self.top_k is not None and self.top_p < 1.0:
            raise ValueError("top_k and nucleus top_p are mutually exclusive")
        if self.temperature == 0.0 and (self.top_k is not None or self.top_p < 1.0):
            raise ValueError("greedy decoding takes no top_k/top_p narrowing")

    def with_seed(self, seed: Optional[int]) -> DecodeParams:
        """These params under `seed`: `dataclasses.replace(self, seed=seed)`
        without its walk over the fields or a second `__post_init__`, as one
        request's params are made per completion. The other fields are this
        instance's, which its own `__post_init__` already checked, and a seed
        takes no check."""
        params = object.__new__(DecodeParams)
        vars(params).update(vars(self), seed=seed)
        return params


# Built once: the params are frozen, so every request shares its stage's.
_STAGE_PARAMS = {
    QUESTION_GEN: DecodeParams(max_tokens=64, top_p=0.9, stop=STOP_SEQUENCES),
    ANSWERING: DecodeParams(max_tokens=16, top_p=0.9, stop=STOP_SEQUENCES),
    QUERY_GEN: DecodeParams(max_tokens=64, top_p=0.9, stop=STOP_SEQUENCES),
    EVAL_GREEDY: DecodeParams(max_tokens=64, temperature=0.0, stop=EPISODE_STOP),
    EVAL_SELF_CONSISTENCY: DecodeParams(
        max_tokens=64, temperature=0.7, top_k=40, stop=EPISODE_STOP),
}


def default_decode_params(stage: str) -> DecodeParams:
    """Decoding defaults per pipeline stage: synthesis completions stop at the
    end of the prompt's target block, evaluation turns at the end of a line."""
    params = _STAGE_PARAMS.get(stage)
    if params is None:
        raise ValueError(f"unknown stage: {stage}")
    return params


def trim_at_stop(text: str, stops: Sequence[str]) -> str:
    """Cut at the earliest occurrence of any stop sequence."""
    cut = len(text)
    for stop in stops:
        if stop:
            idx = text.find(stop)
            if idx != -1:
                cut = min(cut, idx)
    return text[:cut]


# A rule program computes a completion from (prompt_text, seed).
RuleProgram = Callable[[str, Optional[int]], str]


class MockBackend:
    """Deterministic backend: the completion is the rule program's answer.

    A rule that answers "" scripts "the model has nothing useful to say
    here" (callers see EmptyCompletion).
    """

    def __init__(self, rule: RuleProgram):
        self.rule = rule

    def raw_complete(self, prompt_text: str, params: DecodeParams) -> str:
        return self.rule(prompt_text, params.seed)


def _body_start(head: str) -> bytes:
    """A completion body up to the escaped `head`: `{"prompt": "` and the
    head's escape without its closing quote."""
    return f'{{"prompt": {encode_basestring_ascii(head)[:-1]}'.encode("ascii")


class HttpBackend:
    """Client for the completion wire protocol with bounded retries."""

    def __init__(self, endpoint: str, timeout: float = 120.0, session=None):
        self.session = session or JsonSession(endpoint, timeout)
        self._heads = PromptHeads(_body_start)

    def raw_complete(self, prompt_text: str, params: DecodeParams) -> str:
        start, block = self._heads.split(prompt_text)
        rest = ENCODER.encode({
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "top_k": params.top_k,
            "stop": list(params.stop),
            "seed": params.seed,
        })
        # the block's escape without its opening quote, then the params' members
        data = start + f"{encode_basestring_ascii(block)[1:]}, {rest[1:]}".encode("ascii")
        payload = post_with_retries(self.session, "/v1/completions", data, BackendUnavailable)
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            raise MalformedResponse(f"bad completion payload: {payload!r}")
        return payload["text"]

    def close(self) -> None:
        self.session.close()


Backend = MockBackend | HttpBackend


def complete(backend: Backend, prompt: str, params: DecodeParams) -> str:
    """Run one completion and trim it at the first of `params.stop`.

    Raises EmptyCompletion when nothing is left after trimming.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    raw = backend.raw_complete(prompt, params)
    trimmed = trim_at_stop(raw, params.stop)
    if not trimmed.strip():
        raise EmptyCompletion("completion empty after stop trimming")
    return trimmed
