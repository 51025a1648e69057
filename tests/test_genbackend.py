import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from hopsynth.genbackend import (
    BackendUnavailable,
    DecodeParams,
    EmptyCompletion,
    HttpBackend,
    MalformedResponse,
    MockBackend,
    complete,
    default_decode_params,
    prompt_key,
    trim_at_stop,
)
from hopsynth.promptkit import PromptText


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


def test_params_single_sampling_family():
    with pytest.raises(ValueError):
        DecodeParams(max_tokens=8, top_p=0.9, top_k=40)
    with pytest.raises(ValueError):
        DecodeParams(max_tokens=8, temperature=0.0, top_p=0.5)
    DecodeParams(max_tokens=8, top_p=0.9)  # nucleus
    DecodeParams(max_tokens=8, temperature=0.7, top_k=40)  # top-k
    DecodeParams(max_tokens=8, temperature=0.0)  # greedy


def test_mock_stop_trimming():
    prompt = PromptText("P", ("\n\n",))
    backend = MockBackend(table={prompt_key("P"): " Paris\n\nmore"})
    params = default_decode_params("answering")
    assert complete(backend, prompt, params) == " Paris"


def test_trim_idempotent_and_earliest():
    stops = ["\n\n", "\nDocument:"]
    text = "alpha\nDocument: x\n\nrest"
    once = trim_at_stop(text, stops)
    assert once == "alpha"
    assert trim_at_stop(once, stops) == once


def test_mock_deterministic():
    prompt = PromptText("What?", ("\n\n",))
    backend = MockBackend(table={prompt_key("What?"): " yes"})
    params = replace(default_decode_params("answering"), seed=3)
    outputs = {complete(backend, prompt, params) for _ in range(100)}
    assert outputs == {" yes"}


def test_mock_rule_program_sees_seed():
    backend = MockBackend(rule=lambda text, seed: f"{text}|{seed}")
    params = replace(default_decode_params("answering"), seed=11)
    assert complete(backend, PromptText("x", ()), params) == "x|11"


def test_mock_miss_is_empty_completion():
    backend = MockBackend(table={})
    with pytest.raises(EmptyCompletion):
        complete(backend, PromptText("unseen", ("\n\n",)), default_decode_params("answering"))


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.requests_seen = []
    _Handler.fail_times = 0
    _Handler.payload = {"text": " yes"}
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_http_passthrough_and_wire_format(http_server):
    backend = HttpBackend(http_server, backoff_base=0.01)
    params = DecodeParams(max_tokens=16, top_p=0.9, stop=("\n\n",), seed=5)
    out = complete(backend, PromptText("Q", ("\n\n",)), params)
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


def test_http_retries_then_succeeds(http_server):
    _Handler.fail_times = 2
    backend = HttpBackend(http_server, max_retries=3, backoff_base=0.01)
    out = complete(backend, PromptText("Q", ()), DecodeParams(max_tokens=8))
    assert out == " yes"


def test_http_gives_up_after_retries(http_server):
    _Handler.fail_times = 10
    backend = HttpBackend(http_server, max_retries=3, backoff_base=0.01)
    with pytest.raises(BackendUnavailable):
        complete(backend, PromptText("Q", ()), DecodeParams(max_tokens=8))
    assert _Handler.fail_times == 7  # exactly 3 attempts consumed


def test_http_malformed_response(http_server):
    _Handler.payload = {"wrong": 1}
    backend = HttpBackend(http_server, backoff_base=0.01)
    with pytest.raises(MalformedResponse):
        complete(backend, PromptText("Q", ()), DecodeParams(max_tokens=8))
    assert len(_Handler.requests_seen) == 1  # not retried
