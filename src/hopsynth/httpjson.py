"""JSON over HTTP for the completion, embedding and entity clients.

Each client owns one `JsonSession`: a persistent HTTP/1.1 connection to its
endpoint, reused for every call (`https` endpoints use the default
certificate-verifying TLS context; proxy environment variables are not
read). `post_with_retries` is the one retry policy the clients share.
"""

from __future__ import annotations

import http.client
import json
import ssl
import time
from urllib.parse import urlsplit

ATTEMPTS = 3
BACKOFF_BASE = 0.2  # seconds; a failed attempt n (from 0) sleeps BACKOFF_BASE * 2**n

# What a failed request raises: socket and TLS errors, `HttpStatusError`, a
# broken HTTP exchange, or a reply body that is not JSON.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)

_HEADERS = {"Content-Type": "application/json"}


class HttpStatusError(OSError):
    """The endpoint answered with a status outside 2xx."""


class JsonSession:
    """One keep-alive connection to one endpoint; each `post` is one request."""

    def __init__(self, endpoint: str, timeout: float):
        parts = urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL: {endpoint!r}")
        self._timeout = timeout
        self._https = parts.scheme == "https"
        self._host, self._port = parts.hostname, parts.port
        self._base = parts.path.rstrip("/")
        self._conn: http.client.HTTPConnection | None = None

    def post(self, path: str, body) -> object:
        """POST `body` as JSON to `path` under the endpoint; return the decoded reply.

        The server handles the request once per call. When the server has
        closed a reused idle connection before any reply arrived, the request
        is sent again at once over a new connection. Any error closes the
        connection and propagates (one of `TRANSPORT_ERRORS`).
        """
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        target = self._base + path
        try:
            conn = self._connection()
            reused = conn.sock is not None
            try:
                conn.request("POST", target, data, _HEADERS)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", target, data, _HEADERS)
                response = conn.getresponse()
            raw = response.read()
            if not 200 <= response.status < 300:
                raise HttpStatusError(f"{response.status} {response.reason} for POST {target}")
            return json.loads(raw)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self._https:
                self._conn = http.client.HTTPSConnection(
                    self._host, self._port, timeout=self._timeout,
                    context=ssl.create_default_context(),
                )
            else:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
        return self._conn


def post_with_retries(session, path: str, body, error: type[Exception]) -> object:
    """`session.post(path, body)`, tried up to ATTEMPTS times.

    A transport failure is followed by a sleep of `BACKOFF_BASE * 2**attempt`
    and another attempt; after the last one, `error` is raised from it.
    `session.post` is looked up on every attempt, so a wrapper set on the
    session instance sees each request.
    """
    last: Exception | None = None
    for attempt in range(ATTEMPTS):
        try:
            return session.post(path, body)
        except TRANSPORT_ERRORS as exc:
            last = exc
            if attempt + 1 < ATTEMPTS:
                time.sleep(BACKOFF_BASE * 2 ** attempt)
    raise error(f"POST {path} failed after {ATTEMPTS} attempts: {last}") from last
