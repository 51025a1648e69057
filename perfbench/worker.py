"""One workload process: set up, then make one timed call of the entry point.

Started by run.py with the pinned environment, once per call, so every call
runs cold in its own interpreter and with its own random hash seed, as a new
`hopsynth` process would. `--t0` is the parent's monotonic clock just before
it started this process, so setup time covers interpreter start, the
hopsynth imports and building the backend, embedder and recognizer. With
`--setup-only` the process stops there.

The backend, embedder and recognizer are wrapped in counters of operations
(calls into those objects) and failed operations. On `run_eval` the backend
wrapper also keeps, per question, a digest of the queries and retrieved
documents in the prompt of the answering turn, so the gate can check
retrieval. With `--trace 1` the call is traced (see tracing.py). The call's
monotonic start, wall and CPU time, peak RSS, counters and digests go to
<workdir>/call<i>.json and its outputs to <workdir>/call<i>/.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import resource
import time
import traceback
from pathlib import Path
from urllib.parse import urlsplit

ANSWER_CUE = "\nAnswer:"
RETRIEVAL_LINES = ("Query: ", "Document: ")


def retrieval_digest(prompt: str) -> str:
    """sha256 of a prompt's query and document lines, in order."""
    lines = [line for line in prompt.split("\n") if line.startswith(RETRIEVAL_LINES)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Ops:
    """Operations attempted and failed on the objects passed to the entry point."""

    def __init__(self):
        self.calls = 0
        self.failed = 0

    def run(self, fn, *args):
        self.calls += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise


class CountedBackend:
    """A backend that counts operations; with `retrieved`, it also maps each
    question to the retrieval digest of its answering-turn prompt."""

    def __init__(self, inner, ops: Ops, retrieved=None):
        self.inner, self.ops, self.retrieved = inner, ops, retrieved

    def raw_complete(self, prompt_text, params):
        if self.retrieved is not None and prompt_text.endswith(ANSWER_CUE):
            question = prompt_text.partition("\n")[0]
            self.retrieved[question] = retrieval_digest(prompt_text)
        return self.ops.run(self.inner.raw_complete, prompt_text, params)


class CountedCallable:
    """An embedder or recognizer: a callable on a list of texts."""

    def __init__(self, inner, ops: Ops):
        self.inner, self.ops = inner, ops

    @property
    def dim(self):
        return self.inner.dim

    def __call__(self, texts):
        return self.ops.run(self.inner, texts)


def stub_request(url: str, method: str, path: str) -> dict:
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request(method, path, body=b"" if method == "POST" else None)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def build_objects(config):
    from hopsynth.config import build_backend, build_embedder, build_recognizer

    return build_backend(config), build_embedder(config), build_recognizer(config)


def one_call(workload, objects, config, out: Path, tracer, stub_url) -> dict:
    from hopsynth import pipeline

    ops = {"backend": Ops(), "embedder": Ops(), "recognizer": Ops()}
    retrieved = {} if workload.entry == "run_eval" else None
    backend, provider, recognizer = objects
    backend = CountedBackend(backend, ops["backend"], retrieved)
    provider = CountedCallable(provider, ops["embedder"])
    recognizer = CountedCallable(recognizer, ops["recognizer"])
    if tracer is not None:
        backend, provider, recognizer = tracer.install(backend, provider, recognizer)
    if stub_url:
        stub_request(stub_url, "POST", "/reset")
    out.mkdir()
    workdir = out.parent
    error = None
    cpu_started = time.process_time()
    started = time.monotonic()
    try:
        if workload.entry == "run_all":
            report = pipeline.run_all(workdir / "corpus.jsonl", out, config,
                                      backend=backend, provider=provider, recognizer=recognizer)
        else:
            report = pipeline.run_eval(workdir / "questions.jsonl", workdir / "corpus.jsonl",
                                       config, backend=backend, provider=provider)
    except Exception:
        report, error = None, traceback.format_exc()
    ended = time.monotonic()
    cpu = time.process_time() - cpu_started
    if tracer is not None:
        tracer.uninstall()
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    call = {"started": started, "wall_s": ended - started, "cpu_s": cpu, "error": error,
            "traced": tracer is not None,
            "ops": {name: [o.calls, o.failed] for name, o in ops.items()}}
    if retrieved is not None:
        call["retrieved"] = retrieved
    if stub_url:
        call["stub"] = stub_request(stub_url, "GET", "/stats")
    return call


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--call", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--stub-url")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS, make_config

    workload = WORKLOADS[args.workload]
    config = make_config(workload, args.seed, args.workdir, args.stub_url)
    objects = build_objects(config)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    call = one_call(workload, objects, config, args.workdir / f"call{args.call}", tracer,
                    args.stub_url)
    call["t0"], call["setup_s"] = args.t0, setup_s
    call["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        call["layers"] = tracer.layer_metrics(call["ops"]["backend"][0], call.get("stub", {}))
        tracer.write_spans(args.workdir / "spans.jsonl")
    (args.workdir / f"call{args.call}.json").write_text(json.dumps(call, indent=2) + "\n")


if __name__ == "__main__":
    main()
