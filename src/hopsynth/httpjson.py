"""JSON over HTTP for the completion, embedding and entity clients.

Each client owns one `JsonSession`: a persistent HTTP/1.1 connection to its
endpoint, reused for every call. `https` endpoints use the default
certificate-verifying TLS context; proxy environment variables are not read.

The session speaks the little of HTTP/1.1 (RFC 9112) it needs itself. A
request is one write: the request line, `Host`, `Content-Type:
application/json`, `Content-Length` and `Accept-Encoding: identity`, then the
JSON body. A reply body is framed by `Content-Length`, by `Transfer-Encoding:
chunked`, or by the server closing the connection; the connection is closed
after `Connection: close` and after an HTTP/1.0 reply. A reply with a
malformed status line, a line over 65,536 bytes, more than 100 headers or
trailers, a `Content-Encoding` other than identity or another
`Transfer-Encoding` raises `HttpProtocolError`. `check_endpoint` refuses a
bad endpoint when the session is made, and the config when the key is set.
`post_with_retries` is the one retry policy the clients share.

A client encodes its own request body, and a session posts the bytes it is
given. Every body is JSON as `json.dumps(value, allow_nan=False)` writes it:
the clients encode with the one module-level `ENCODER`, which `json.dumps`
with `allow_nan=False` would build again on every call. The completion
client also keeps the escaped text of each few-shot head (`genbackend`).
A client's `close` closes its session.
"""

from __future__ import annotations

import json
import socket
import ssl
import time
from urllib.parse import urlsplit

ATTEMPTS = 3
BACKOFF_BASE = 0.2  # seconds; a failed attempt n (from 0) sleeps BACKOFF_BASE * 2**n
RETRIED_4XX = (408, 429)  # request timeout, too many requests: the only 4xx worth a retry

MAX_LINE = 65536  # bytes per status, header, chunk-size or trailer line
MAX_HEADERS = 100  # header lines per reply (and trailer lines per chunked body)

# What a failed request raises: socket and TLS errors, `HttpStatusError`,
# `HttpProtocolError`, or a reply body that is not JSON (a ValueError).
TRANSPORT_ERRORS = (OSError, ValueError)

# The encoder of every request body: json.dumps's defaults, NaN and infinity refused.
ENCODER = json.JSONEncoder(allow_nan=False)

_DEFAULT_PORTS = {"http": 80, "https": 443}
_NO_BODY = (204, 304)


class HttpStatusError(OSError):
    """The endpoint answered with a status outside 2xx, kept in `status`."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class HttpProtocolError(OSError):
    """The endpoint's reply is not HTTP/1.1 this client reads."""


def check_endpoint(endpoint: str):
    """`urlsplit(endpoint)` of an http:// or https:// URL with a host, a port
    from 0 to 65535 if it names one, and no whitespace, control or non-ASCII
    characters; any other endpoint raises ValueError naming it."""
    parts = urlsplit(endpoint)
    if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
        raise ValueError(f"endpoint must be an http:// or https:// URL: {endpoint!r}")
    if not (endpoint.isascii() and endpoint.isprintable()) or " " in endpoint:
        raise ValueError(
            f"endpoint holds whitespace, control or non-ASCII characters: {endpoint!r}"
        )
    try:
        parts.port
    except ValueError as exc:
        raise ValueError(f"endpoint port is not valid ({exc}): {endpoint!r}") from None
    return parts


class JsonSession:
    """One keep-alive connection to one endpoint; each `post` is one request."""

    def __init__(self, endpoint: str, timeout: float):
        parts = check_endpoint(endpoint)
        self._timeout = timeout
        self._address = (parts.hostname, parts.port or _DEFAULT_PORTS[parts.scheme])
        self._tls = ssl.create_default_context() if parts.scheme == "https" else None
        host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
        if parts.port not in (None, _DEFAULT_PORTS[parts.scheme]):
            host = f"{host}:{parts.port}"
        self._base = parts.path.rstrip("/")
        self._fixed_headers = (
            f"Host: {host}\r\nContent-Type: application/json\r\n"
            "Accept-Encoding: identity\r\n"
        )
        self._sock: socket.socket | None = None
        self._reader = None

    def post(self, path: str, data: bytes) -> object:
        """POST `data`, a JSON body the caller encoded, to `path` under the
        endpoint; return the decoded reply.

        The server handles the request once per call. When the server has
        closed a reused idle connection before any reply arrived, the request
        is sent again at once over a new connection. Any error closes the
        connection and propagates (one of `TRANSPORT_ERRORS`).
        """
        target = self._base + path
        request = (
            f"POST {target} HTTP/1.1\r\n{self._fixed_headers}"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii") + data
        try:
            reused = self._sock is not None
            try:
                status, reason, (length, chunked, close) = self._exchange(request)
            except ConnectionError:
                if not reused:
                    raise
                self.close()
                status, reason, (length, chunked, close) = self._exchange(request)
            raw = self._read_body(status, length, chunked)
            if close:
                self.close()
            if not 200 <= status < 300:
                raise HttpStatusError(status, f"{status} {reason} for POST {target}")
            return json.loads(raw)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _exchange(self, request: bytes) -> tuple[int, str, tuple[int | None, bool, bool]]:
        """Send `request` in one write; read the reply's status line and headers.

        Returns the status, the reason and the reply's `_framing`.
        """
        if self._sock is None:
            sock = socket.create_connection(self._address, self._timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._tls is not None:
                    sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
            except BaseException:
                sock.close()
                raise
            self._sock, self._reader = sock, sock.makefile("rb")
        self._sock.sendall(request)
        while True:
            line = self._read_line("status")
            if not line:
                raise ConnectionResetError("server closed the connection before replying")
            version, status, reason = _status(line)
            framing = _framing(version, self._read_block("header"))
            if not 100 <= status < 200:  # an interim 1xx reply precedes the real one
                return status, reason, framing

    def _read_line(self, what: str) -> bytes:
        line = self._reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise HttpProtocolError(f"{what} line over {MAX_LINE} bytes")
        return line

    def _read_block(self, what: str) -> list[bytes]:
        """The lines of a header (or trailer) block, up to its blank line or EOF."""
        lines = []
        while True:
            line = self._read_line(what)
            if line in (b"\r\n", b"\n", b""):
                return lines
            if len(lines) == MAX_HEADERS:
                raise HttpProtocolError(f"more than {MAX_HEADERS} {what} lines")
            lines.append(line)

    def _read_body(self, status: int, length: int | None, chunked: bool) -> bytes:
        if status in _NO_BODY:
            return b""
        if chunked:
            chunks = []
            while (size := _chunk_size(self._read_line("chunk size"))) > 0:
                chunks.append(self._read_exactly(size))
                if self._read_line("chunk end") not in (b"\r\n", b"\n"):
                    raise HttpProtocolError("chunk data not followed by a line end")
            self._read_block("trailer")
            return b"".join(chunks)
        if length is not None:
            return self._read_exactly(length)
        data = self._reader.read()
        self.close()  # no framing: the body ran to the end of the connection
        return data

    def _read_exactly(self, size: int) -> bytes:
        data = self._reader.read(size)
        if len(data) < size:
            raise HttpProtocolError(f"reply ended after {len(data)} of {size} body bytes")
        return data


def _framing(version: str, lines: list[bytes]) -> tuple[int | None, bool, bool]:
    """(Content-Length, chunked, close after) from a reply's header lines."""
    length, chunked, close = None, False, version == "HTTP/1.0"
    for line in lines:
        name, colon, value = line.partition(b":")
        if not colon:
            continue  # an obsolete folded line or a malformed one: none of ours
        name, value = name.strip().lower(), value.strip()
        if name == b"content-length":
            if not value.isdigit():
                raise HttpProtocolError(f"malformed Content-Length {value[:80]!r}")
            length = int(value)
        elif name == b"transfer-encoding":
            if value.lower() != b"chunked":
                raise HttpProtocolError(f"unsupported Transfer-Encoding {value[:80]!r}")
            chunked = True
        elif name == b"content-encoding":
            if value.lower() not in (b"", b"identity"):
                raise HttpProtocolError(f"unsupported Content-Encoding {value[:80]!r}")
        elif name == b"connection":
            close |= b"close" in (token.strip() for token in value.lower().split(b","))
    return length, chunked, close


def _status(line: bytes) -> tuple[str, int, str]:
    """(version, status, reason) of a status line such as `HTTP/1.1 200 OK`."""
    version, _, rest = line.rstrip(b"\r\n").partition(b" ")
    status, _, reason = rest.partition(b" ")
    if version not in (b"HTTP/1.0", b"HTTP/1.1") or len(status) != 3 or not status.isdigit():
        raise HttpProtocolError(f"malformed status line {line[:80]!r}")
    return version.decode(), int(status), reason.decode("latin-1").strip()


def _chunk_size(line: bytes) -> int:
    digits = line.split(b";", 1)[0].strip()  # chunk extensions after `;` are ignored
    if not 0 < len(digits) <= 16 or digits.lstrip(b"0123456789abcdefABCDEF"):
        raise HttpProtocolError(f"malformed chunk size line {line[:80]!r}")
    return int(digits, 16)


def post_with_retries(session, path: str, data: bytes, error: type[Exception]) -> object:
    """`session.post(path, data)`, tried up to ATTEMPTS times.

    A transport failure is followed by a sleep of `BACKOFF_BASE * 2**attempt`
    and another attempt; after the last one, `error` is raised from it. A
    3xx status (redirects are not followed) and a 4xx other than 408 and 429
    (a bad request, a refused credential, a body too large) cannot succeed
    on a retry, so they raise `error` at once, without a sleep.
    `session.post` is looked up on every attempt, so a wrapper set on the
    session instance sees each request.
    """
    last: Exception | None = None
    for attempt in range(ATTEMPTS):
        try:
            return session.post(path, data)
        except TRANSPORT_ERRORS as exc:
            if (isinstance(exc, HttpStatusError) and 300 <= exc.status < 500
                    and exc.status not in RETRIED_4XX):
                raise error(f"POST {path} failed: {exc}") from exc
            last = exc
            if attempt + 1 < ATTEMPTS:
                time.sleep(BACKOFF_BASE * 2 ** attempt)
    raise error(f"POST {path} failed after {ATTEMPTS} attempts: {last}") from last
