import json
import threading
from contextlib import closing
from dataclasses import fields, replace
from itertools import product
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from hopsynth import genbackend
from hopsynth.corpus import Document
from hopsynth.evalharness import EvalConfig, play_episodes, run_episode
from hopsynth.genbackend import (
    BackendUnavailable,
    DecodeParams,
    EmptyCompletion,
    HttpBackend,
    MalformedResponse,
    MockBackend,
    complete,
    default_decode_params,
    trim_at_stop,
)
from hopsynth.pairing import DocumentPair
from hopsynth.promptkit import (
    ANSWERING,
    HEADS_MAX,
    QUERY_GEN,
    QUESTION_GEN,
    STOP_SEQUENCES,
    builtin_examples,
    render_prompt,
)
from hopsynth.retrieval import HashEmbedder, build_flat_index, embed
from hopsynth.synthesis import answer_question, generate_queries, generate_question


def test_default_params_per_stage():
    qg = default_decode_params("question_gen")
    assert (qg.max_tokens, qg.top_p) == (64, 0.9)
    ans = default_decode_params("answering")
    assert ans.max_tokens == 16
    assert ans.top_p == 0.9
    assert default_decode_params("query_gen").max_tokens == 64
    greedy = default_decode_params("eval_greedy")
    assert greedy.temperature == 0.0 and greedy.max_tokens == 64
    sc = default_decode_params("eval_self_consistency")
    assert (sc.top_k, sc.temperature) == (40, 0.7)
    with pytest.raises(ValueError):
        default_decode_params("nope")
    for stage in ("question_gen", "answering", "query_gen"):
        assert default_decode_params(stage).stop == STOP_SEQUENCES == ("\n\n", "\nDocument:")
    for stage in ("eval_greedy", "eval_self_consistency"):
        assert default_decode_params(stage).stop == ("\n",)


def test_with_seed_equals_replace():
    # with_seed copies the fields without __init__; a field it lost would differ here
    stages = ("question_gen", "answering", "query_gen", "eval_greedy", "eval_self_consistency")
    for stage in stages:
        params = default_decode_params(stage)
        assert default_decode_params(stage) is params  # built once per stage
        for seed in (None, 0, 2**63 - 1):
            assert params.with_seed(seed) == replace(params, seed=seed)
    odd = DecodeParams(max_tokens=3, temperature=0.5, top_p=1.0, top_k=7, stop=("x",), seed=1)
    assert odd.with_seed(2) == replace(odd, seed=2)
    assert [f.name for f in fields(DecodeParams)] == [
        "max_tokens", "temperature", "top_p", "top_k", "stop", "seed"]


def test_params_single_sampling_family():
    with pytest.raises(ValueError):
        DecodeParams(max_tokens=8, top_p=0.9, top_k=40)
    with pytest.raises(ValueError):
        DecodeParams(max_tokens=8, temperature=0.0, top_p=0.5)
    DecodeParams(max_tokens=8, top_p=0.9)  # nucleus
    DecodeParams(max_tokens=8, temperature=0.7, top_k=40)  # top-k
    DecodeParams(max_tokens=8, temperature=0.0)  # greedy


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_params_refuse_a_temperature_no_body_can_carry(temperature):
    # a NaN or infinite temperature cannot be encoded as JSON, and NaN < 0 is False
    with pytest.raises(ValueError, match="temperature must be finite and non-negative"):
        DecodeParams(max_tokens=8, temperature=temperature)


def test_mock_stop_trimming():
    backend = MockBackend(rule=lambda text, seed: {"P": " Paris\n\nmore"}[text])
    params = default_decode_params("answering")
    assert complete(backend, "P", params) == " Paris"
    assert complete(backend, "P", replace(params, stop=())) == " Paris\n\nmore"


def test_trim_idempotent_and_earliest():
    stops = ["\n\n", "\nDocument:"]
    text = "alpha\nDocument: x\n\nrest"
    once = trim_at_stop(text, stops)
    assert once == "alpha"
    assert trim_at_stop(once, stops) == once


def test_mock_deterministic():
    backend = MockBackend(rule=lambda text, seed: {"What?": " yes"}[text])
    params = replace(default_decode_params("answering"), seed=3)
    outputs = {complete(backend, "What?", params) for _ in range(100)}
    assert outputs == {" yes"}


def test_mock_rule_program_sees_seed():
    backend = MockBackend(rule=lambda text, seed: f"{text}|{seed}")
    params = replace(default_decode_params("answering"), seed=11)
    assert complete(backend, "x", params) == "x|11"


def test_mock_miss_is_empty_completion():
    backend = MockBackend(rule=lambda text, seed: {"seen": " yes"}.get(text, ""))
    with pytest.raises(EmptyCompletion):
        complete(backend, "unseen", default_decode_params("answering"))


class _Handler(BaseHTTPRequestHandler):
    requests_seen = []
    fail_times = 0
    payload = {"text": " yes"}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append((self.path, body))
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        data = json.dumps(type(self).payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    _Handler.requests_seen = []
    _Handler.fail_times = 0
    _Handler.payload = {"text": " yes"}
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_passthrough_and_wire_format(http_server):
    params = DecodeParams(max_tokens=16, top_p=0.9, stop=("\n\n",), seed=5)
    with closing(HttpBackend(http_server)) as backend:
        out = complete(backend, "Q", params)
    assert out == " yes"
    path, body = _Handler.requests_seen[-1]
    assert path == "/v1/completions"
    assert body == {
        "prompt": "Q",
        "max_tokens": 16,
        "temperature": 1.0,
        "top_p": 0.9,
        "top_k": None,
        "stop": ["\n\n"],
        "seed": 5,
    }


def test_http_retries_then_succeeds(http_server, sleeps):
    _Handler.fail_times = 2
    with closing(HttpBackend(http_server)) as backend:
        out = complete(backend, "Q", DecodeParams(max_tokens=8))
    assert out == " yes"
    assert len(_Handler.requests_seen) == 3
    assert sleeps == [0.2, 0.4]


def test_http_gives_up_after_retries(http_server, sleeps):
    _Handler.fail_times = 10
    with closing(HttpBackend(http_server)) as backend, pytest.raises(BackendUnavailable):
        complete(backend, "Q", DecodeParams(max_tokens=8))
    assert _Handler.fail_times == 7  # exactly 3 attempts consumed
    assert sleeps == [0.2, 0.4]


def test_http_malformed_response(http_server, sleeps):
    _Handler.payload = {"wrong": 1}
    with closing(HttpBackend(http_server)) as backend, pytest.raises(MalformedResponse):
        complete(backend, "Q", DecodeParams(max_tokens=8))
    assert len(_Handler.requests_seen) == 1  # not retried
    assert sleeps == []


class RecordingSession:
    """A JSON session stand-in that records each request body, decoded."""

    def __init__(self, text):
        self.text, self.bodies = text, []

    def post(self, path, data):
        self.bodies.append(json.loads(data))
        return {"text": self.text}


@pytest.mark.parametrize("task,answer", [("mqa", "Paris"), ("fever", "SUPPORTS")])
def test_synthesis_requests_send_the_block_stops(task, answer):
    session = RecordingSession(" Paris?\nQuery: Paris\n\nDocument: spill")
    backend = HttpBackend("http://127.0.0.1:9", session=session)
    d1 = Document("a", "A", "Paris is a city.", (), None)
    d2 = Document("b", "B", "France has Paris.", (), None)
    pair = DocumentPair(d1, d2, "hyper")
    assert generate_question(pair, answer, backend, task=task).text.startswith("Paris")
    # the completion is cut at the block stop; an answer is its first line
    assert answer_question("Where?", [d1, d2], backend, task=task) == "Paris?"
    queries = generate_queries(pair, "Where?", answer, backend, task=task)
    assert [q["text"] for q in queries] == ["Paris", "Where?"]
    assert [body["stop"] for body in session.bodies] == [["\n\n", "\nDocument:"]] * 3


def test_episode_requests_send_the_line_stop():
    session = RecordingSession("Answer: Paris\nQuery: more")
    backend = HttpBackend("http://127.0.0.1:9", session=session)
    provider = HashEmbedder(dim=16)
    index = build_flat_index(["d1"], embed(provider, ["Paris"]))
    params = default_decode_params("eval_greedy")
    played = play_episodes([("Where?", params)], backend, index, provider, EvalConfig(), str)
    transcript = run_episode("Where?", played[0])
    assert transcript.final_answer == "Paris"
    assert [body["stop"] for body in session.bodies] == [["\n"]]


class BodySession:
    """A JSON session stand-in that keeps the bytes of each posted body."""

    def __init__(self):
        self.bodies = []

    def post(self, path, data):
        self.bodies.append(data)
        return {"text": " yes"}


def _dumps_body(prompt, params) -> bytes:
    """The body as `json.dumps` encodes the wire protocol's request dict."""
    body = {"prompt": prompt, "max_tokens": params.max_tokens, "temperature": params.temperature,
            "top_p": params.top_p, "top_k": params.top_k, "stop": list(params.stop),
            "seed": params.seed}
    return json.dumps(body, allow_nan=False).encode()


def _stage_heads():
    """The few-shot head of each synthesis stage, fever and mqa."""
    heads = []
    for task, stage in product(("fever", "mqa"), (QUESTION_GEN, ANSWERING, QUERY_GEN)):
        prompt = render_prompt(task, stage, "hyper", builtin_examples(task, "hyper"), ["a", "b"],
                               answer="x", question="y?").text
        heads.append(prompt[:prompt.rindex("\n\n") + 2])
    return heads


_BLOCKS = [
    "Document: Paris is a city.\nAnswer: SUPPORTS\nClaim:",
    "Document: Zürich – 𝔘nter den Linden\nDocument: Ås–😀 \U0010ffff\nQuestion:",
    'Document: "quoted" back\\slash \\u0041 tab\t nul\x00 \x1f \x7f   \ud800 \udfff\nQuery:',
    "",
]
_PARAMS = [
    default_decode_params("question_gen").with_seed(None),
    default_decode_params("answering").with_seed(-3),
    default_decode_params("eval_greedy").with_seed(2 ** 70),
    default_decode_params("eval_self_consistency").with_seed(0),
    DecodeParams(max_tokens=5, temperature=1e-300, top_p=0.25, stop=("é\n", '"', "😀")),
]


def _count_escapes(monkeypatch):
    """Count the calls of `genbackend`'s string escape: one per request for its
    target block, plus one per head that enters the cache."""
    calls = []
    escape = genbackend.encode_basestring_ascii
    monkeypatch.setattr(genbackend, "encode_basestring_ascii",
                        lambda text: calls.append(text) or escape(text))
    return calls


def test_completion_bodies_are_the_json_dumps_bytes():
    heads = _stage_heads()
    # fever's question_gen and answering heads have the same length and other
    # text, so a hit on the length alone would send the wrong head
    assert len(heads[0]) == len(heads[1]) and heads[0] != heads[1]
    wide = heads[1].replace("Document: ", "Document: Zürich – 𝔘nter ", 1)
    prompts = [head + block for head in [*heads, heads[0], wide] for block in _BLOCKS]
    prompts += ["Document: no blank line\nClaim:", "Question: q?\n", "\n\n", "x\n\n\n\ny"]
    session = BodySession()
    backend = HttpBackend("http://127.0.0.1:9", session=session)
    calls = [(prompt, params) for params in _PARAMS for prompt in prompts]
    for prompt, params in calls:
        assert backend.raw_complete(prompt, params) == " yes"
    assert session.bodies == [_dumps_body(prompt, params) for prompt, params in calls]


def test_each_head_is_escaped_once_per_cache_entry(monkeypatch):
    escapes = _count_escapes(monkeypatch)
    question_gen, answering, query_gen = _stage_heads()[:3]  # fever's
    backend = HttpBackend("http://127.0.0.1:9", session=BodySession())

    def head_escapes(heads):
        before = len(escapes)
        for head in heads:
            for block in _BLOCKS:
                backend.raw_complete(head + block, _PARAMS[0])
        return len(escapes) - before - len(heads) * len(_BLOCKS)

    assert head_escapes([question_gen, query_gen] * 3) == 2
    # answering has question_gen's length, so each switch replaces the entry
    assert head_escapes([answering, question_gen, answering]) == 3


def test_completion_bodies_past_the_head_cache_bound(monkeypatch):
    escapes = _count_escapes(monkeypatch)
    heads = [f"Document: {'x' * n}\nAnswer: a\nQuestion: q?\n\n" for n in range(2 * HEADS_MAX + 1)]
    session = BodySession()
    backend = HttpBackend("http://127.0.0.1:9", session=session)
    calls = [(head + block, params) for head in heads for block in _BLOCKS[:2]
             for params in _PARAMS[:2]]
    for prompt, params in calls:
        backend.raw_complete(prompt, params)
    assert session.bodies == [_dumps_body(prompt, params) for prompt, params in calls]
    assert len(escapes) - len(calls) == len(heads)  # each head escaped once, then hit
