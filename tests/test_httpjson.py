"""The shared JSON-over-HTTP transport and retry policy of the three clients."""

import gc
import http.client
import io
import json
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from hopsynth.cli import main
from hopsynth.config import PipelineConfig, parse_config_file
from hopsynth.entities import HeuristicRecognizer, HttpRecognizer, RecognizerError
from hopsynth.genbackend import BackendUnavailable, DecodeParams, HttpBackend, MockBackend
from hopsynth.httpjson import (TRANSPORT_ERRORS, HttpProtocolError, HttpStatusError,
                               JsonSession)
from hopsynth.mockllm import SyntheticPipelineRule
from hopsynth import pipeline
from hopsynth.pipeline import run_all
from hopsynth.retrieval import EmbeddingError, HashEmbedder, HttpEmbedder

from synthcorpus import make_corpus, write_corpus

SRC = Path(__file__).resolve().parent.parent / "src"


def _body(value) -> bytes:
    """`value` as the JSON bytes a client posts."""
    return json.dumps(value, allow_nan=False).encode()


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
        # the handler writes a reply's head and body apart; without this, Nagle
        # holds the body until the client's delayed ACK of the head
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
            got = [session.post("/echo", _body({"n": n})) for n in range(5)]
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
                session.post("/echo", _body({}))
            assert session.post("/echo", _body({})) == {"echo": {}}
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


class StatusSession:
    """A session whose endpoint answers every request with one HTTP status."""

    def __init__(self, status):
        self.status = status
        self.requests = 0

    def post(self, path, body):
        self.requests += 1
        raise HttpStatusError(self.status, f"{self.status} Status for POST {path}")


@pytest.mark.parametrize("status,requests", [
    (301, 1), (302, 1), (307, 1), (308, 1),  # redirects are not followed
    (400, 1), (401, 1), (404, 1), (413, 1),  # cannot succeed on retry
    (408, 3), (429, 3), (500, 3), (503, 3),  # may succeed later
])
@pytest.mark.parametrize("make,error", [
    (HttpBackend, BackendUnavailable),
    (HttpEmbedder, EmbeddingError),
    (HttpRecognizer, RecognizerError),
])
def test_client_retries_only_statuses_that_can_succeed_later(make, error, status, requests,
                                                              sleeps):
    session = StatusSession(status)
    client = make("http://127.0.0.1:9", session=session)
    with pytest.raises(error, match=str(status)) as raised:
        if make is HttpBackend:
            client.raw_complete("Q", DecodeParams(max_tokens=8))
        else:
            client(["alice"])
    assert raised.value.__cause__.status == status
    assert session.requests == requests
    assert sleeps == ([0.2, 0.4] if requests == 3 else [])


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
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'"
        " or m == 'http.client'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "[]"


class _Wires:
    """Stands in for `socket.create_connection`: each connection is one end of
    a socket pair whose other end already holds the next scripted reply bytes.

    A reply given as `(data, "eof")` is followed by the server closing its end.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.addresses, self.server_ends = [], []

    def __call__(self, address, timeout=None):
        client, server = socket.socketpair()
        client.settimeout(timeout)
        data = self.replies.pop(0)
        if isinstance(data, tuple):
            server.sendall(data[0])
            server.shutdown(socket.SHUT_WR)
        else:
            server.sendall(data)
        self.addresses.append(address)
        self.server_ends.append(server)
        return _NoDelayIgnored(client)

    def requests(self):
        """The bytes each connection's client sent, in connection order."""
        sent = []
        for server in self.server_ends:
            server.settimeout(0)
            chunks = []
            try:
                while chunk := server.recv(65536):
                    chunks.append(chunk)
            except BlockingIOError:
                pass
            sent.append(b"".join(chunks))
            server.close()
        return sent


class _NoDelayIgnored:
    """A socket-pair end that accepts the TCP_NODELAY option a TCP socket takes."""

    def __init__(self, sock):
        self.sock = sock

    def setsockopt(self, *args):
        pass

    def __getattr__(self, name):
        return getattr(self.sock, name)


@pytest.fixture
def wires(monkeypatch):
    made = []

    def install(*replies):
        made.append(_Wires(replies))
        monkeypatch.setattr(socket, "create_connection", made[-1])
        return made[-1]

    yield install
    for fake in made:
        for server in fake.server_ends:
            server.close()


def _ok(payload, *headers):
    data = json.dumps(payload).encode()
    head = [b"HTTP/1.1 200 OK", b"Content-Type: application/json",
            b"Content-Length: %d" % len(data), *headers]
    return b"\r\n".join(head) + b"\r\n\r\n" + data


def test_chunked_reply_with_extensions_and_trailers_keeps_the_connection(wires):
    body = json.dumps({"chunked": True}).encode()
    chunked = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x;name=value\r\n%s\r\n" % (5, body[:5])
        + b"%X\r\n%s\r\n" % (len(body) - 5, body[5:])
        + b"0;last\r\nX-Checksum: abc\r\nX-Other: 1\r\n\r\n"
    )
    fake = wires(chunked + _ok({"n": 2}))
    session = JsonSession("http://example.test:8080/api", timeout=5)
    assert session.post("/echo", _body({"n": 1})) == {"chunked": True}
    assert session.post("/echo", _body({"n": 2})) == {"n": 2}
    session.close()
    assert fake.addresses == [("example.test", 8080)]


def test_interim_1xx_replies_are_skipped(wires):
    fake = wires(b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>\r\n\r\n" + _ok({"x": 1})
                 + _ok({"x": 2}))
    session = JsonSession("http://example.test", timeout=5)
    assert [session.post("/echo", _body({})) for _ in range(2)] == [{"x": 1}, {"x": 2}]
    session.close()
    assert len(fake.addresses) == 1


def test_no_content_reply_has_no_body(wires, sleeps):
    wires(*[b"HTTP/1.1 204 No Content\r\n\r\n"] * 3)  # no length, yet nothing to wait for
    with pytest.raises(BackendUnavailable) as raised:
        HttpBackend("http://example.test", timeout=5).raw_complete("Q", DecodeParams(max_tokens=8))
    assert isinstance(raised.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("reply", [
    _ok({"x": 1}, b"Connection: keep-alive, close"),
    (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{\"x\": 1}", "eof"),
])
def test_closing_replies_open_a_new_connection_for_the_next_call(wires, reply):
    fake = wires(reply, reply)
    session = JsonSession("http://example.test/", timeout=5)
    assert [session.post("/echo", _body({})) for _ in range(2)] == [{"x": 1}, {"x": 1}]
    session.close()
    assert fake.addresses == [("example.test", 80)] * 2


_OVER_LONG = b"x" * 65_537
_BAD_REPLIES = {
    "long status line": b"HTTP/1.1 200 " + _OVER_LONG + b"\r\n\r\n{}",
    "long header line": b"HTTP/1.1 200 OK\r\nX-Long: " + _OVER_LONG + b"\r\n\r\n{}",
    "101 headers": b"HTTP/1.1 200 OK\r\n" + b"X-A: 1\r\n" * 101 + b"Content-Length: 2\r\n\r\n{}",
    "garbage status": b"SPDY/3 OK\r\nContent-Length: 2\r\n\r\n{}",
    "gzip": _ok({"x": 1}, b"Content-Encoding: gzip"),
}


@pytest.mark.parametrize("name", sorted(_BAD_REPLIES))
def test_malformed_reply_is_retried_then_raises_the_client_error(wires, sleeps, name):
    fake = wires(*[_BAD_REPLIES[name]] * 3)
    backend = HttpBackend("http://example.test", timeout=5)
    with pytest.raises(BackendUnavailable, match="3 attempts") as raised:
        backend.raw_complete("Q", DecodeParams(max_tokens=8))
    assert isinstance(raised.value.__cause__, HttpProtocolError)
    assert sleeps == [0.2, 0.4]
    assert [r.split(b"\r\n")[0] for r in fake.requests()] == [
        b"POST /v1/completions HTTP/1.1"
    ] * 3


class _Replay:
    """A socket whose reply is `data`: all that `http.client.HTTPResponse` reads."""

    def __init__(self, data):
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def _stdlib_reply(data):
    """The JSON that stdlib `http.client` decodes from `data`, the reply to a POST."""
    response = http.client.HTTPResponse(_Replay(data), method="POST")
    response.begin()
    return json.loads(response.read())


# a reply in each framing JsonSession reads, and one with a header line it
# skips; each decodes to {"x": 1}
_FRAMINGS = {
    "content-length": _ok({"x": 1}),
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4;name=value\r\n{\"x\"\r\n4\r\n: 1}\r\n0\r\nX-Checksum: abc\r\n\r\n"),
    "eof after connection close": b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"x\": 1}",
    "http/1.0": b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{\"x\": 1}",
    "100 continue first": b"HTTP/1.1 100 Continue\r\n\r\n" + _ok({"x": 1}),
    "header line without a colon": _ok({"x": 1}, b"X-No-Colon"),
}
_MALFORMED = {
    "short body": b"HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n{\"x\": 1}",
    "bad chunk size": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                       b"zz\r\n{}\r\n0\r\n\r\n"),
    "garbage status": _BAD_REPLIES["garbage status"],
    "101 headers": _BAD_REPLIES["101 headers"],
    "unsupported transfer-encoding": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n"
                                      b"\r\n8\r\n{\"x\": 1}\r\n0\r\n\r\n"),
    "chunk data past its size": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                                 b"4\r\n{\"x\": 1}\r\n0\r\n\r\n"),
}
# the replies the two readers read differently: (JsonSession's outcome, http.client's)
_DIFFERENCES = {
    # JsonSession skips every interim 1xx reply, http.client only 100 Continue
    "103 early hints first": (
        b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n" + _ok({"x": 1}), {"x": 1}, "raises"),
    # http.client counts the blank line that ends the headers toward its 100
    "100 headers": (_ok({"x": 1}, *[b"X-A: %d" % i for i in range(98)]), {"x": 1}, "raises"),
    # JsonSession refuses a Content-Length that is not a number, as RFC 9112
    # asks; http.client ignores it and reads the body to the end of the connection
    "malformed content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: 8x\r\n\r\n{\"x\": 1}", "raises", {"x": 1}),
}


def _outcome(read, errors):
    try:
        return read()
    except errors:
        return "raises"


@pytest.mark.parametrize("name", [*_FRAMINGS, *_MALFORMED, *_DIFFERENCES])
def test_reply_reads_as_http_client_reads_it(wires, name):
    if name in _DIFFERENCES:
        data, *expected = _DIFFERENCES[name]
    else:
        data = {**_FRAMINGS, **_MALFORMED}[name]
        expected = [{"x": 1} if name in _FRAMINGS else "raises"] * 2
    wires((data, "eof"))
    session = JsonSession("http://example.test", timeout=5)
    ours = _outcome(lambda: session.post("/echo", _body({})), TRANSPORT_ERRORS)
    session.close()
    theirs = _outcome(lambda: _stdlib_reply(data), (http.client.HTTPException, ValueError))
    assert [ours, theirs] == expected


def test_a_reply_with_100_headers_is_read(wires):
    wires(_ok({"x": 1}, *[b"X-A: %d" % i for i in range(98)]))  # with the two of _ok
    session = JsonSession("http://example.test", timeout=5)
    assert session.post("/echo", _body({})) == {"x": 1}
    session.close()


@pytest.mark.parametrize("endpoint", [
    "http://127.0.0.1:8000/v1\r\nX-Injected: 1",
    "http://127.0.0.1:8000/my api",
    "http://127.0.0.1:8000/a\tb",
])
def test_endpoint_with_whitespace_or_control_characters_is_refused(endpoint):
    with pytest.raises(ValueError, match="whitespace"):
        JsonSession(endpoint, timeout=1)


@pytest.mark.parametrize("endpoint,address,target,host", [
    ("http://user:secret@[::1]:8081/api/", ("::1", 8081), b"/api/echo", b"[::1]:8081"),
    ("http://user@Example.TEST:80", ("example.test", 80), b"/echo", b"example.test"),
])
def test_request_head_and_host_header(wires, endpoint, address, target, host):
    fake = wires(_ok({"x": 1}))
    session = JsonSession(endpoint, timeout=5)
    session.post("/echo", _body({"a": 1}))
    session.close()
    head, _, body = fake.requests()[0].partition(b"\r\n\r\n")
    assert fake.addresses == [address]
    assert head.split(b"\r\n") == [
        b"POST " + target + b" HTTP/1.1",
        b"Host: " + host,
        b"Content-Type: application/json",
        b"Accept-Encoding: identity",
        b"Content-Length: 8",
    ]
    assert body == b'{"a": 1}'


def test_each_request_is_one_write(monkeypatch):
    connect, counted = socket.create_connection, []

    class Counting:
        def __init__(self, sock):
            self.sock, self.writes = sock, 0

        def sendall(self, data):
            self.writes += 1
            return self.sock.sendall(data)

        def __getattr__(self, name):
            return getattr(self.sock, name)

    def counting_connection(*args, **kwargs):
        counted.append(Counting(connect(*args, **kwargs)))
        return counted[-1]

    monkeypatch.setattr(socket, "create_connection", counting_connection)
    with serving() as (server, url):
        session = JsonSession(url, timeout=5)
        try:
            for n in range(4):
                assert session.post("/echo", _body({"n": n, "pad": "x" * 5000})) == {
                    "echo": {"n": n, "pad": "x" * 5000}
                }
        finally:
            session.close()
    assert [c.writes for c in counted] == [4]


def _mock_services(dim):
    """Replies from the in-process clients of a mock run, one per route."""
    backend = MockBackend(SyntheticPipelineRule())
    embedder, recognizer = HashEmbedder(dim), HeuristicRecognizer()
    lock = threading.Lock()  # the rule draws from one generator

    def reply(path, body):
        with lock:
            if path.endswith("/v1/completions"):
                params = DecodeParams(
                    max_tokens=body["max_tokens"], temperature=body["temperature"],
                    top_p=body["top_p"], top_k=body["top_k"], stop=tuple(body["stop"]),
                    seed=body["seed"])
                return {"text": backend.raw_complete(body["prompt"], params)}
            if path.endswith("/v1/embeddings"):
                return {"vectors": [vector.tolist() for vector in embedder(body["texts"])]}
            return {"entities": recognizer(body["texts"])}

    return reply


def test_runs_close_the_http_clients_they_build(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl", make_corpus(n_docs=30, seed=5, n_topics=3))
    items = tmp_path / "items.jsonl"
    items.write_text(json.dumps({"id": "q0", "question": "Who?", "answer": "x"}) + "\n")
    with serving(reply=_mock_services(PipelineConfig().embeddings.dim)) as (server, url):
        config_file = tmp_path / "config.txt"
        config_file.write_text("".join(f"{kind}.kind = http\n{kind}.endpoint = {url}\n"
                                       for kind in ("backend", "embeddings", "recognizer")))
        base = ["--config", str(config_file), "--seed", "3"]
        store, rows = tmp_path / "store.jsonl", None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_all(corpus, tmp_path / "http",
                    parse_config_file(config_file, PipelineConfig(seed=3, dev_size=2)))
            assert main(base + ["ingest", "--in", str(corpus), "--out", str(store)]) == 0
            for command in ("pair", "gen-questions", "filter-answers", "gen-queries", "verify"):
                out = tmp_path / f"{command}.jsonl"
                inputs = [] if rows is None else ["--in", str(rows)]
                assert main(base + [command, "--store", str(store), *inputs,
                                    "--out", str(out)]) == 0
                rows = out
            assert main(base + ["eval", "--in", str(items), "--corpus", str(corpus),
                                "--out", str(tmp_path / "report.json")]) == 0
            gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    # the clients sent what the in-process components take
    run_all(corpus, tmp_path / "mock", PipelineConfig(seed=3, dev_size=2))
    for name in ("train.jsonl", "dev.jsonl", "store.jsonl"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "mock" / name).read_bytes()


def test_stages_close_the_http_clients_they_build(tmp_path):
    # stage_pair, the one stage that builds a client it was not given,
    # closes it before it returns; one that is passed in stays open
    corpus = write_corpus(tmp_path / "corpus.jsonl", make_corpus(n_docs=30, seed=5, n_topics=3))
    with serving(reply=_mock_services(PipelineConfig().embeddings.dim)) as (server, url):
        config = PipelineConfig(seed=3)
        for client in (config.backend, config.embeddings, config.recognizer):
            client.kind, client.endpoint = "http", url
        store = pipeline.build_store(corpus, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rows, _ = pipeline.stage_pair(store, config)
            gc.collect()
        assert rows

        class Recognizer(HttpRecognizer):
            closes = 0

            def close(self):
                self.closes += 1
                super().close()

        recognizer = Recognizer(url)
        pipeline.stage_pair(store, config, recognizer=recognizer)
        assert recognizer.closes == 0
        recognizer.close()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
