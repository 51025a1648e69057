#!/usr/bin/env python3
"""Benchmark the completion client: `HttpBackend.raw_complete` against a stdlib client, on the loopback stub.

Records the completion requests of a fever synthesis run: the question,
answering and query stages under synth-fever-http's config (perfbench's
`workloads`, seed 7) on the benchmark's seeded corpus of the workload's
size (`layerbench.seeded_store`), with the mock backend. Each request is a
prompt that promptkit rendered, one of the three stage heads with its own
target block, and its `DecodeParams`. `--requests` of them, spread evenly
over the recording, make one pass.

Starts `perfbench/stub.py` as a subprocess pinned, like this process, to
one CPU (the highest this process may use), so client and stub take turns
on it as they do in the benchmark's HTTP workload. Two keep-alive clients
send the same requests: `HttpBackend`, as the pipeline runs it, and the
reference, one `http.client.HTTPConnection` that builds the request's body
as a dict, encodes it with `json.dumps(body, allow_nan=False)` and reads
`text` from the reply decoded by `json.loads`. The script asserts that both
get the same completion for every recorded request, then times the passes
with `layerbench.alternate`, `--repeats` of each side, and reads how long
the stub spent computing replies over all passes. `hopsynth` is imported
from PYTHONPATH, so the same script times any checkout's client:

    PYTHONPATH=src python3 benchmarks/bench_http.py --requests 2000 --repeats 5

It ends with `layerbench.report`'s table and JSON line. `client_us`
(`ref_client_us`) is the median wall time per request of `HttpBackend` (the
reference) less the stub's mean compute time per request, `stub_us`.
"""

import argparse
import http.client
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hopsynth
from hopsynth.config import build_recognizer
from hopsynth.genbackend import HttpBackend, MockBackend
from hopsynth.mockllm import SyntheticPipelineRule
from hopsynth.pipeline import stage_filter_answers, stage_pair, stage_queries, stage_questions
from layerbench import ROOT, alternate, report, seeded_store
# perfbench/workloads.py, which importing layerbench put on sys.path
from workloads import WORKLOADS, make_config

PERFBENCH = ROOT / "perfbench"
PATH = "/v1/completions"
FEVER = WORKLOADS["synth-fever-http"]


class RecordingBackend(MockBackend):
    """The mock backend, keeping each request's (prompt, params)."""

    def __init__(self):
        super().__init__(SyntheticPipelineRule())
        self.requests = []

    def raw_complete(self, prompt_text, params):
        self.requests.append((prompt_text, params))
        return super().raw_complete(prompt_text, params)


def fever_requests() -> list:
    """The completion requests of synth-fever-http's three synthesis stages, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        config = make_config(FEVER, 7, Path(tmp))
    store = seeded_store(FEVER.docs, config)
    backend = RecordingBackend()
    rows, _ = stage_pair(store, config)
    rows, _ = stage_questions(store, rows, config, backend, build_recognizer(config))
    rows, _ = stage_filter_answers(store, rows, config, backend)
    stage_queries(store, rows, config, backend)
    return backend.requests


def reference_complete(connection: http.client.HTTPConnection, prompt_text, params) -> str:
    """One completion over a stdlib keep-alive connection, its body encoded by `json.dumps`."""
    body = {"prompt": prompt_text, "max_tokens": params.max_tokens,
            "temperature": params.temperature, "top_p": params.top_p, "top_k": params.top_k,
            "stop": list(params.stop), "seed": params.seed}
    data = json.dumps(body, allow_nan=False).encode("utf-8")
    connection.request("POST", PATH, data, {"Content-Type": "application/json"})
    return json.loads(connection.getresponse().read())["text"]


def stub_request(connection: http.client.HTTPConnection, method: str, path: str) -> dict:
    connection.request(method, path, b"" if method == "POST" else None)
    return json.loads(connection.getresponse().read())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=2_000, help="completions per pass")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    recorded = fever_requests()
    calls = [recorded[n * len(recorded) // args.requests] for n in range(args.requests)]
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
        backend = HttpBackend(f"http://127.0.0.1:{port}", timeout=10)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for prompt_text, params in recorded:
                if (backend.raw_complete(prompt_text, params)
                        != reference_complete(connection, prompt_text, params)):
                    raise SystemExit("HttpBackend and the reference got different completions")
            stub_request(connection, "POST", "/reset")
            timing = alternate(
                lambda: [backend.raw_complete(*call) for call in calls],
                lambda: [reference_complete(connection, *call) for call in calls],
                args.repeats)
            stats = stub_request(connection, "GET", "/stats")
        finally:
            backend.session.close()
            connection.close()
    finally:
        stub.terminate()
        stub.wait(timeout=10)
        stub.stdout.close()

    prompt_chars = sum(len(prompt_text) for prompt_text, _ in calls) / len(calls)
    stub_us = stats["busy_s"] / stats["requests"] * 1e6
    request_us, ref_request_us = (timing[side] / args.requests * 1e6 for side in ("s", "ref_s"))
    report(args, [{"layer": "raw_complete", "docs": FEVER.docs, "recorded": len(recorded),
                   "prompt_chars": round(prompt_chars), **timing,
                   "stub_us": round(stub_us, 1), "request_us": round(request_us, 1),
                   "client_us": round(request_us - stub_us, 1),
                   "ref_client_us": round(ref_request_us - stub_us, 1)}])


if __name__ == "__main__":
    main()
