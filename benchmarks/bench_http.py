#!/usr/bin/env python3
"""Benchmark the HTTP client: time `JsonSession.post` against the loopback stub.

Starts `perfbench/stub.py` as a subprocess pinned, like this process, to
one CPU (the highest this process may use), so client and stub take turns
on it as they do in the benchmark's HTTP workload. Then it times `--requests`
completion POSTs, each a 6 KB JSON body, over one keep-alive `JsonSession`,
best of `--repeats`, and reads how long the stub spent computing replies.
`hopsynth` is imported from PYTHONPATH, so the same script times any
checkout's client:

    PYTHONPATH=src python3 benchmarks/bench_http.py --requests 2000 --repeats 5

The last line printed is one JSON object with every figure; `client_us` is
the wall time per request less the stub's compute time.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import hopsynth
from hopsynth.httpjson import JsonSession

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BODY_BYTES = 6_000


def completion_body() -> dict:
    """A completion request of BODY_BYTES bytes of JSON that the stub's rule answers."""
    target = "\n\nDocument: Alpha.\nDocument: Beta.\nAnswer: Beta\nQuestion:"
    body = {"prompt": target, "max_tokens": 64, "temperature": 0.0, "top_p": 1.0,
            "top_k": None, "stop": ["\n\n"], "seed": 7}
    filler = "Document: " + " ".join(f"word{i}" for i in range(BODY_BYTES // 6))
    body["prompt"] = filler[: BODY_BYTES - len(json.dumps(body))] + target
    return body


def stub_call(url: str, method: str, path: str) -> dict:
    data = b"" if method == "POST" else None
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(urllib.request.Request(url + path, data, method=method), timeout=10) as reply:
        return json.loads(reply.read())


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
        url = f"http://127.0.0.1:{int(line.split()[1])}"
        body = completion_body()
        size = len(json.dumps(body).encode())
        best = None
        for _ in range(args.repeats):
            stub_call(url, "POST", "/reset")
            session = JsonSession(url, timeout=10)
            started = time.perf_counter()
            for _ in range(args.requests):
                session.post("/v1/completions", body)
            wall = time.perf_counter() - started
            session.close()
            busy = stub_call(url, "GET", "/stats")["busy_s"]
            if best is None or wall < best[0]:
                best = (wall, busy)
    finally:
        stub.terminate()
        stub.wait(timeout=10)
        stub.stdout.close()

    wall, busy = best
    per = 1e6 / args.requests
    print(f"{args.requests} POSTs of {size} bytes, best of {args.repeats}: "
          f"{wall * per:.0f} us per request, stub {busy * per:.0f} us")
    print(json.dumps({
        "hopsynth": str(src), "requests": args.requests, "repeats": args.repeats,
        "body_bytes": size, "wall_s": round(wall, 4), "stub_busy_s": round(busy, 4),
        "request_us": round(wall * per, 1), "client_us": round((wall - busy) * per, 1),
    }))


if __name__ == "__main__":
    main()
