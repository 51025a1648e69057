#!/usr/bin/env python3
"""Benchmark the HTTP client: `JsonSession.post` against a stdlib client, on the loopback stub.

Starts `perfbench/stub.py` as a subprocess pinned, like this process, to
one CPU (the highest this process may use), so client and stub take turns
on it as they do in the benchmark's HTTP workload. Two keep-alive clients
post the same completion request, a 6 KB JSON body: `JsonSession` and the
reference, one `http.client.HTTPConnection` that encodes the body with
`json.dumps` and decodes each reply with `json.loads`. The script asserts
that both decode the same reply, then times `--requests` POSTs by each
with `layerbench.alternate`, `--repeats` passes of each side, and reads how
long the stub spent computing replies over all passes. `hopsynth` is
imported from PYTHONPATH, so the same script times any checkout's client:

    PYTHONPATH=src python3 benchmarks/bench_http.py --requests 2000 --repeats 5

It ends with `layerbench.report`'s table and JSON line. `client_us`
(`ref_client_us`) is the median wall time per request of `JsonSession`
(the reference) less the stub's mean compute time per request, `stub_us`.
"""

import argparse
import http.client
import json
import os
import subprocess
import sys
from pathlib import Path

import hopsynth
from hopsynth.httpjson import JsonSession
from layerbench import ROOT, alternate, report

PERFBENCH = ROOT / "perfbench"
BODY_BYTES = 6_000
PATH = "/v1/completions"


def completion_body() -> dict:
    """A completion request of BODY_BYTES bytes of JSON that the stub's rule answers."""
    target = "\n\nDocument: Alpha.\nDocument: Beta.\nAnswer: Beta\nQuestion:"
    body = {"prompt": target, "max_tokens": 64, "temperature": 0.0, "top_p": 1.0,
            "top_k": None, "stop": ["\n\n"], "seed": 7}
    filler = "Document: " + " ".join(f"word{i}" for i in range(BODY_BYTES // 6))
    body["prompt"] = filler[: BODY_BYTES - len(json.dumps(body))] + target
    return body


def request(connection: http.client.HTTPConnection, method: str, path: str, body=None):
    """The decoded reply to one request over a stdlib keep-alive connection."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    connection.request(method, path, data, {"Content-Type": "application/json"})
    return json.loads(connection.getresponse().read())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=2_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # the stub inherits it
    src = Path(hopsynth.__file__).resolve().parent.parent
    env = {"PATH": os.defpath, "LC_ALL": "C.UTF-8",
           "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    stub = subprocess.Popen([sys.executable, str(PERFBENCH / "stub.py")], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = stub.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError("stub did not start")
        port = int(line.split()[1])
        body = completion_body()
        size = len(json.dumps(body).encode())
        session = JsonSession(f"http://127.0.0.1:{port}", timeout=10)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            if session.post(PATH, body) != request(connection, "POST", PATH, body):
                raise SystemExit("JsonSession and http.client decode different replies")
            request(connection, "POST", "/reset")
            timing = alternate(lambda: [session.post(PATH, body) for _ in range(args.requests)],
                               lambda: [request(connection, "POST", PATH, body)
                                        for _ in range(args.requests)], args.repeats)
            stats = request(connection, "GET", "/stats")
        finally:
            session.close()
            connection.close()
    finally:
        stub.terminate()
        stub.wait(timeout=10)
        stub.stdout.close()

    stub_us = stats["busy_s"] / stats["requests"] * 1e6
    request_us, ref_request_us = (timing[side] / args.requests * 1e6 for side in ("s", "ref_s"))
    report(args, [{"layer": "post", "body_bytes": size, **timing, "stub_us": round(stub_us, 1),
                   "request_us": round(request_us, 1),
                   "client_us": round(request_us - stub_us, 1),
                   "ref_client_us": round(ref_request_us - stub_us, 1)}])


if __name__ == "__main__":
    main()
