"""The shared JSON-over-HTTP transport and retry policy of the three clients."""

import json
import os
import shutil
import ssl
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from hopsynth.entities import HttpRecognizer, RecognizerError
from hopsynth.genbackend import BackendUnavailable, DecodeParams, HttpBackend
from hopsynth.httpjson import HttpStatusError, JsonSession
from hopsynth.retrieval import EmbeddingError, HttpEmbedder

SRC = Path(__file__).resolve().parent.parent / "src"


def _reply(path, body):
    if path.endswith("/v1/completions"):
        return {"text": " yes"}
    if path.endswith("/v1/embeddings"):
        return {"vectors": [[float(len(t)), 1.0] for t in body["texts"]]}
    if path.endswith("/v1/entities"):
        return {"entities": [[t.upper()] for t in body["texts"]]}
    return {"echo": body}


class _Handler(BaseHTTPRequestHandler):
    """Answers each route from `server.reply` after failing `server.fail_times` requests."""

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server.seen.append(self.path)
        if server.fail_times > 0:
            server.fail_times -= 1
            status, payload = 500, {"error": "down"}
        else:
            status, payload = 200, server.reply(self.path, body)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if server.drop_idle:  # close without announcing it, as idle timeouts do
            self.close_connection = True

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    def __init__(self, handler, fail_times=0, reply=_reply, drop_idle=False):
        super().__init__(("127.0.0.1", 0), handler)
        self.fail_times, self.reply, self.drop_idle = fail_times, reply, drop_idle
        self.seen = []
        self.connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


@contextmanager
def serving(protocol="HTTP/1.1", tls=None, **options):
    handler = type("Handler", (_Handler,), {"protocol_version": protocol})
    server = _Server(handler, **options)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.mark.parametrize("protocol,connections", [("HTTP/1.1", 1), ("HTTP/1.0", 5)])
def test_one_connection_per_session_when_kept_alive(protocol, connections):
    with serving(protocol) as (server, url):
        session = JsonSession(url + "/api/", timeout=5)
        try:
            got = [session.post("/echo", {"n": n}) for n in range(5)]
        finally:
            session.close()
    assert got == [{"echo": {"n": n}} for n in range(5)]
    assert server.seen == ["/api/echo"] * 5
    assert server.connections == connections


def test_dropped_idle_connection_is_resent_without_backoff(sleeps):
    with serving(drop_idle=True) as (server, url):
        backend = HttpBackend(url, timeout=5)
        try:
            for seed in range(5):
                assert backend.raw_complete("Q", DecodeParams(max_tokens=8, seed=seed)) == " yes"
        finally:
            backend.session.close()
    assert sleeps == []
    assert server.seen == ["/v1/completions"] * 5
    assert server.connections == 5


def test_status_error_closes_the_connection():
    with serving(fail_times=1) as (server, url):
        session = JsonSession(url, timeout=5)
        try:
            with pytest.raises(HttpStatusError, match="500"):
                session.post("/echo", {})
            assert session.post("/echo", {}) == {"echo": {}}
        finally:
            session.close()
    assert server.connections == 2


def test_rejects_endpoints_that_are_not_http_urls():
    for endpoint in ("ftp://host/x", "localhost:8000", ""):
        with pytest.raises(ValueError, match="http"):
            JsonSession(endpoint, timeout=1)


def _clients(url):
    """Per client: the client, one call, its result from `_reply`, its error once retries run out."""
    return {
        "backend": (
            HttpBackend(url, timeout=5),
            lambda client: client.raw_complete("Q", DecodeParams(max_tokens=8)),
            " yes",
            BackendUnavailable,
        ),
        "embedder": (
            HttpEmbedder(url, timeout=5),
            lambda client: [v.tolist() for v in client(["abc"])],
            [[3.0, 1.0]],
            EmbeddingError,
        ),
        "recognizer": (
            HttpRecognizer(url, timeout=5),
            lambda client: client(["alice"]),
            [["ALICE"]],
            RecognizerError,
        ),
    }


@pytest.mark.parametrize("name", ["backend", "embedder", "recognizer"])
def test_client_retries_then_succeeds(name, sleeps):
    with serving(fail_times=2) as (server, url):
        client, call, expected, _ = _clients(url)[name]
        try:
            assert call(client) == expected
        finally:
            client.session.close()
    assert len(server.seen) == 3
    assert sleeps == [0.2, 0.4]


@pytest.mark.parametrize("name", ["backend", "embedder", "recognizer"])
def test_client_gives_up_after_three_attempts(name, sleeps):
    with serving(fail_times=10) as (server, url):
        client, call, _, error = _clients(url)[name]
        with pytest.raises(error, match="3 attempts") as raised:
            call(client)
    assert isinstance(raised.value.__cause__, HttpStatusError)
    assert len(server.seen) == 3
    assert sleeps == [0.2, 0.4]


_ENTITY_PAYLOADS = [
    {"entities": ["Alice", "Bob"]},
    {"entities": [["Alice"], [1990]]},
    {"entities": [["Alice"]]},
    {"entities": [["Alice"], ["Bob"], []]},
    {"entities": None},
    {"wrong": []},
    ["Alice", "Bob"],
]
_VECTOR_PAYLOADS = [{"vectors": [[1.0]]}, {"wrong": 1}, [[1.0], [2.0]]]


@pytest.mark.parametrize(
    "make,payload,error",
    [(HttpRecognizer, p, RecognizerError) for p in _ENTITY_PAYLOADS]
    + [(HttpEmbedder, p, EmbeddingError) for p in _VECTOR_PAYLOADS],
)
def test_malformed_payload_is_rejected_without_retry(make, payload, error, sleeps):
    with serving(reply=lambda path, body: payload) as (server, url):
        client = make(url, timeout=5)
        try:
            with pytest.raises(error, match="bad .* payload"):
                client(["Alice met Bob.", "Bob left."])
        finally:
            client.session.close()
    assert len(server.seen) == 1
    assert sleeps == []


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
def test_https_verifies_the_server_certificate(tmp_path, sleeps):
    key, cert = tmp_path / "key.pem", tmp_path / "cert.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1"],
        check=True, capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    with serving(tls=context) as (server, url):
        with pytest.raises(EmbeddingError) as raised:
            HttpEmbedder(url.replace("http://", "https://"), timeout=5)(["a"])
    assert isinstance(raised.value.__cause__, ssl.SSLCertVerificationError)
    assert server.seen == []


def test_pipeline_import_leaves_requests_out():
    code = (
        "import sys, hopsynth.pipeline; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "[]"
