"""Loopback stub for hopsynth's three HTTP protocols.

Serves /v1/completions, /v1/embeddings and /v1/entities with the same
in-process components the mock workloads use (`MockBackend` with
`SyntheticPipelineRule`, `HashEmbedder`, `HeuristicRecognizer`), so an HTTP
run must emit exactly what the in-process run emits. It is one process and
one thread: an asyncio loop multiplexes the clients' keep-alive connections.
Each response goes out in a single write with TCP_NODELAY set, so no request
stalls on a delayed ACK.

GET /stats returns {"requests": n, "busy_s": x}, where busy_s is the time
spent computing responses; POST /reset rebuilds the components (dropping the
embedder's token cache) and zeroes both counters.

    python3 perfbench/stub.py          # prints "port <n>" once listening
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import time

from hopsynth.entities import HeuristicRecognizer
from hopsynth.genbackend import DecodeParams, MockBackend
from hopsynth.mockllm import SyntheticPipelineRule
from hopsynth.retrieval import HashEmbedder
from workloads import EMBED_DIM


class Services:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.backend = MockBackend(rule=SyntheticPipelineRule())
        self.embedder = HashEmbedder(dim=EMBED_DIM)
        self.recognizer = HeuristicRecognizer()
        self.requests = 0
        self.busy_s = 0.0

    def handle(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        """Status and JSON body; busy_s covers routing, compute and encoding."""
        started = time.perf_counter()
        try:
            status, payload = self._route(method, path, body)
        except Exception as exc:  # answer 500 and keep serving; the client retries or fails
            status, payload = 500, {"error": repr(exc)}
        data = json.dumps(payload).encode("utf-8")
        if path.startswith("/v1/"):
            self.requests += 1
            self.busy_s += time.perf_counter() - started
        return status, data

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/stats":
            return 200, {"requests": self.requests, "busy_s": self.busy_s}
        if method != "POST":
            return 405, {"error": method}
        if path == "/reset":
            self.reset()
            return 200, {}
        payload = json.loads(body)
        if path == "/v1/completions":
            params = DecodeParams(
                max_tokens=payload["max_tokens"], temperature=payload["temperature"],
                top_p=payload["top_p"], top_k=payload["top_k"],
                stop=tuple(payload["stop"]), seed=payload["seed"],
            )
            return 200, {"text": self.backend.raw_complete(payload["prompt"], params)}
        if path == "/v1/embeddings":
            vectors = self.embedder(payload["texts"])
            return 200, {"vectors": [vector.tolist() for vector in vectors]}
        if path == "/v1/entities":
            return 200, {"entities": self.recognizer(payload["texts"])}
        return 404, {"error": path}


async def serve_connection(services: Services, reader, writer) -> None:
    writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        while True:
            request_line = await reader.readline()
            if not request_line:
                break
            method, path, _ = request_line.decode("latin-1").split(" ", 2)
            length, close = 0, False
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value.strip().lower() == "close":
                    close = True
            body = await reader.readexactly(length) if length else b""
            status, data = services.handle(method, path, body)
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + data)
            await writer.drain()
            if close:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()


async def main() -> None:
    services = Services()
    server = await asyncio.start_server(
        lambda r, w: serve_connection(services, r, w), "127.0.0.1", 0
    )
    print(f"port {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        sys.exit(0)
