#!/usr/bin/env python3
"""hopsynth benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload synth-mqa-2k --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory. Inputs are generated from `--seed` (not timed) into
`.bench_build/perfbench/<workload>/`. The workload runs in a fresh process
with a pinned environment (see workloads.py), through `pipeline.run_all` or
`pipeline.run_eval`: one call per process, until `--seconds` have passed
and at least MIN_CALLS calls were made, all on one CPU. setup_s is also
sampled in separate set-up-only processes. A speed meter on the same CPU
(speedmeter.py) samples how fast the host runs fixed work throughout, and
every set-up and call time is scaled by the speed it saw during that
interval, because the shared host's speed drifts by a third within minutes.

Every run then passes a correctness gate: each emitted instance passes
`validate_instance` against the run's store and index, counters conserve
`attempts = emitted + dropped`, every call of the run emits byte-identical
files although each process has its own hash seed, the HTTP workload emits
exactly what the in-process mock emits, each evaluation episode retrieves
what a brute-force top-k over the index retrieves, and evaluation
predictions and F1 equal what the gold script implies.

The last stdout line is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
`attempted` and `failed` count operations, i.e. calls into the backend,
embedder and recognizer objects handed to the entry point. The exit code
is 0 when the gate passes, 1 when it fails and 2 when no run was possible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speedmeter import SpeedMeter, speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 6
MIN_CALLS = 2
CALL_TIMEOUT_S = 75
OUTPUT_FILES = ("train.jsonl", "dev.jsonl", "store.jsonl", "report.json")


class GateError(AssertionError):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def generate_inputs(workload, seed: int, workdir: Path) -> int:
    """Write the run's inputs; returns the item count items_per_s divides."""
    import inputs

    records = inputs.make_corpus(workload.docs, seed)
    inputs.write_jsonl(workdir / "corpus.jsonl", records)
    if workload.entry == "run_all":
        return len(records)
    items, script = inputs.make_eval_set(records, workload.questions, seed)
    inputs.write_jsonl(workdir / "questions.jsonl", items)
    (workdir / "script.json").write_text(json.dumps(script, ensure_ascii=False))
    return len(items)


def environment_record(env: dict) -> dict:
    import importlib.util

    import numpy

    from hopsynth import _kernels

    sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout may be a plain source tree
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "select_topk_path": "numba" if _kernels.numba_enabled() else "argsort",
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "hash_seed": "random per process",
        "env": env,
    }


def worker_command(args, workdir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir), *extra]


def sample_setup(args, workdir: Path, env: dict) -> tuple[float, float]:
    """One set-up-only process; returns its start (monotonic) and setup_s."""
    t0 = time.monotonic()
    done = subprocess.run(worker_command(args, workdir, "--t0", repr(t0), "--setup-only"),
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return t0, json.loads(done.stdout.splitlines()[-1])["setup_s"]


def pin_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU.

    The speed meter must sample the CPU the workload runs on. The HTTP stub
    shares it with the client: they take turns (one request in flight), and
    on separate CPUs each turn wakes an idle one. On a 2-core
    KVM guest the HTTP call took 16 to 17 s with the stub on the other CPU
    and 13 s on the same CPU, minutes later and with the host no faster.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Stub:
    """The HTTP stub process; stopped and waited for on exit."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")], env=env,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError("stub did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_call(args, workdir: Path, env: dict, stub_url, index: int, trace: bool) -> dict:
    """One entry-point call in a fresh worker process; returns its record."""
    extra = ["--call", str(index), "--trace", str(int(trace))]
    if stub_url:
        extra += ["--stub-url", stub_url]
    t0 = time.monotonic()
    subprocess.run(worker_command(args, workdir, "--t0", repr(t0), *extra), env=env,
                   timeout=CALL_TIMEOUT_S, check=True)
    return json.loads((workdir / f"call{index}.json").read_text())


def run_calls(args, workdir: Path, env: dict, stub_url) -> list[dict]:
    """Untraced calls until --seconds have passed and MIN_CALLS were made;
    with --trace 1, one untraced call and then one traced call."""
    calls = []
    started = time.perf_counter()
    while True:
        trace = bool(args.trace and calls)
        calls.append(run_call(args, workdir, env, stub_url, len(calls), trace))
        if calls[-1]["error"] or trace:
            return calls
        if not args.trace and len(calls) >= MIN_CALLS and (
            time.perf_counter() - started >= args.seconds
        ):
            return calls


# -- correctness gate ---------------------------------------------------------


def file_digests(out: Path) -> dict:
    digests = {}
    for name in OUTPUT_FILES:
        path = out / name
        if path.exists():
            data = path.read_bytes()
            if name == "report.json":  # drop the output paths, which name the call dir
                report = json.loads(data)
                report.pop("outputs", None)
                data = json.dumps(report, sort_keys=True).encode()
            digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def gate_synthesis(config, workdir: Path) -> dict:
    """Check a run_all workload's outputs; returns its yield and answer F1."""
    from dataclasses import replace

    from hopsynth import pipeline
    from hopsynth.emitter import read_jsonl
    from hopsynth.evalharness import score_qa
    from hopsynth.retrieval import HashEmbedder
    from hopsynth.verification import validate_instance

    out = workdir / "call0"
    report = json.loads((out / "report.json").read_text())
    counters = report["counters"]
    check(report["conserved"] and pipeline.counters_conserved(counters),
          f"attempts != emitted + dropped: {counters}")

    mock_config = replace(config, backend=replace(config.backend, kind="mock", endpoint=None),
                          embeddings=replace(config.embeddings, kind="mock", endpoint=None),
                          recognizer=replace(config.recognizer, kind="heuristic", endpoint=None))
    if config.backend.kind == "http":
        mock_report = pipeline.run_all(workdir / "corpus.jsonl", workdir / "mock", mock_config)
        check(mock_report["counters"] == counters, "HTTP run's counters differ from the mock run")
        for name in ("train.jsonl", "dev.jsonl", "store.jsonl"):
            check((workdir / "mock" / name).read_bytes() == (out / name).read_bytes(),
                  f"HTTP run's {name} differs from the in-process mock run")

    instances = read_jsonl(out / "train.jsonl") + read_jsonl(out / "dev.jsonl")
    check(len(instances) == counters["emitted"] > 0,
          f"{len(instances)} instances written, {counters['emitted']} emitted")
    store = pipeline.build_store(workdir / "corpus.jsonl", mock_config)
    embedder = HashEmbedder(dim=config.embeddings.dim)
    index = pipeline.build_index(store, embedder)
    for instance in instances:
        problems = validate_instance(instance, store, index, embedder, config.verify)
        check(not problems, "; ".join(problems))

    pairs, _ = pipeline.stage_pair(store, mock_config)
    prepared = {(row["d1"], row["d2"]): row["answer"] for row in pairs}
    _, f1 = score_qa([inst.answer for inst in instances],
                     [prepared[inst.source_pair] for inst in instances])
    return {"yield_frac": counters["emitted"] / counters["attempts"], "eval_f1": f1}


def brute_force_topk(matrix, query, k: int) -> list[int]:
    """Rows of the k highest dot products, ties by ascending row (= doc id)."""
    import numpy as np

    scores = matrix @ np.asarray(query, dtype=np.float32)
    threshold = np.partition(scores, len(scores) - k)[len(scores) - k]
    rows = np.flatnonzero(scores >= threshold)
    return [int(r) for r in rows[np.lexsort((rows, -scores[rows]))][:k]]


def expected_retrieval(config, workdir: Path, script: dict) -> dict:
    """Per question, the retrieval digest of the answering-turn prompt that
    an exact top-k over the run's index gives for the scripted queries."""
    from hopsynth import pipeline
    from hopsynth.retrieval import HashEmbedder
    from worker import retrieval_digest

    store = pipeline.build_store(workdir / "corpus.jsonl", config)
    embedder = HashEmbedder(dim=config.embeddings.dim)
    index = pipeline.build_index(store, embedder)
    texts = [store.documents[doc_id].text for doc_id in index.doc_ids]
    expected = {}
    for question, entry in script.items():
        lines = []
        for query in entry["queries"][: config.eval.max_hops]:
            lines.append(f"Query: {query}")
            rows = brute_force_topk(index.matrix, embedder([query])[0], config.eval.k)
            lines += [f"Document: {texts[row]}" for row in rows]
        expected[f"Question: {question}"] = retrieval_digest("\n".join(lines))
    return expected


def gate_eval(config, workdir: Path, calls: list[dict]) -> dict:
    """Check a run_eval workload against the gold script and a brute-force
    top-k; returns yield and F1."""
    from hopsynth.evalharness import score_qa

    script = json.loads((workdir / "script.json").read_text())
    items = [json.loads(line) for line in (workdir / "questions.jsonl").read_text().splitlines()]
    retrieval = expected_retrieval(config, workdir, script)
    for i, call in enumerate(calls):
        wrong = [q for q, digest in retrieval.items() if call["retrieved"].get(q) != digest]
        check(not wrong, f"call {i}: {len(wrong)} of {len(retrieval)} episodes retrieved other "
                         f"documents than an exact top-k, e.g. for {wrong[0] if wrong else ''!r}")
    report = json.loads((workdir / "call0" / "report.json").read_text())
    answers = [script[item["question"]]["answer"] for item in items]
    predictions = [record["prediction"] for record in report["items"]]
    check(predictions == answers, "predictions differ from the gold script's answers")
    _, f1 = score_qa(answers, [item["answer"] for item in items])
    check(report["f1"] == f1, f"run_eval F1 {report['f1']} != scripted {f1}")
    answered = sum(1 for p in predictions if p)
    return {"yield_frac": answered / len(items), "eval_f1": report["f1"]}


# -- reporting ----------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_layers(layers: dict, traced_wall: float) -> None:
    """One line per layer metric; self times also as a share of the traced
    call's wall time and per call."""
    print(f"{'layer metric':<40} {'value':>14}  {'unit':<6} {'of wall':>8} {'per call':>12}")
    for name, (value, unit) in layers.items():
        share = per_call = ""
        if unit == "s" and not name.startswith("trace."):
            share = f"{100 * value / traced_wall:7.2f}%"
        calls = layers.get(name[: -len(".s")] + ".calls", (0,))[0] if name.endswith(".s") else 0
        if calls:
            per_call = f"{1e6 * value / calls:9.1f} us"
        shown = f"{value:.4f}" if isinstance(value, float) else f"{value}"
        print(f"{name:<40} {shown:>14}  {unit:<6} {share:>8} {per_call:>12}")
    client, busy = layers["genbackend.http.client_s"][0], layers["stub.busy_s"][0]
    if client:
        print(f"HTTP transport and wait (client_s - stub.busy_s): {client - busy:.4f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hopsynth" / "__init__.py").is_file():
        print(f"error: no hopsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, make_config, pinned_env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / "perfbench" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    phases = {"inputs_s": time.perf_counter()}
    n_items = generate_inputs(workload, args.seed, workdir)
    env = pinned_env(ROOT)
    pin_cpu()
    record = environment_record(env)
    (workdir / "environment.json").write_text(json.dumps(record, indent=2) + "\n")

    meter = stub = None
    try:
        meter = SpeedMeter(workdir / "speed.json", env)
        phases["setup_samples_s"] = time.perf_counter()
        setups = [sample_setup(args, workdir, env) for _ in range(SETUP_SAMPLES)]
        phases["workload_s"] = time.perf_counter()
        stub = Stub(env) if workload.http else None
        calls = run_calls(args, workdir, env, stub.url if stub else None)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"CORRECTNESS GATE FAILED: no result from the workload process ({exc})")
        print(json.dumps({"correct": False, "attempted": n_items, "failed": n_items,
                          "metrics": {}}))
        return 1
    finally:
        if stub:
            stub.close()
        probes = meter.stop() if meter else []
    if not probes:
        print("CORRECTNESS GATE FAILED: no result (the speed meter recorded no probes)")
        print(json.dumps({"correct": False, "attempted": n_items, "failed": n_items,
                          "metrics": {}}))
        return 1
    setups += [(call["t0"], call["setup_s"]) for call in calls]
    setup_speeds = [speed(probes, t0, t0 + s) for t0, s in setups]
    for call in calls:
        call["speed"] = speed(probes, call["started"], call["started"] + call["wall_s"])
    attempted = sum(ops for call in calls for ops, _ in call["ops"].values())
    failed = sum(failed for call in calls for _, failed in call["ops"].values())

    phases["gate_s"] = time.perf_counter()
    problem, quality = None, {}
    errors = [call["error"] for call in calls if call["error"]]
    config = make_config(workload, args.seed, workdir, stub.url if stub else None)
    try:
        check(not errors, errors[0] if errors else "")
        first = file_digests(workdir / "call0")
        for i in range(1, len(calls)):
            check(file_digests(workdir / f"call{i}") == first, f"call {i} output differs from call 0")
        if workload.entry == "run_all":
            quality = gate_synthesis(config, workdir)
        else:
            quality = gate_eval(config, workdir, calls)
    except GateError as exc:
        problem = str(exc)
    except Exception:  # a gate that cannot finish is a failed gate
        problem = traceback.format_exc()
    if errors:  # a run that raises fails every item
        attempted = failed = max(attempted, n_items)

    phases["end"] = time.perf_counter()
    marks = list(phases.values())
    phase_s = {name: round(end - start, 2) for name, start, end in zip(phases, marks, marks[1:])}
    untraced = [call for call in calls if not call["traced"]]
    print(f"workload {workload.name}: seed {args.seed}, {n_items} items, {len(calls)} calls, "
          f"wall s {[round(c['wall_s'], 3) for c in calls]}, "
          f"cpu s {[round(c['cpu_s'], 3) for c in calls]}, "
          f"host speed {[round(c['speed'], 3) for c in calls]}")
    print(f"setup s {[round(s, 3) for _, s in setups]}, "
          f"host speed {[round(v, 3) for v in setup_speeds]}, {len(probes)} speed probes")
    print(f"phases: {json.dumps(phase_s)}")
    print(f"environment: {json.dumps({k: v for k, v in record.items() if k != 'env'})}")
    print(f"pinned env: {json.dumps(env)}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.6f})")
    metrics = {}
    if problem:
        print(f"CORRECTNESS GATE FAILED: {problem}")
    if args.trace and "layers" in calls[-1]:
        traced = calls[-1]["wall_s"]
        layers = dict(calls[-1]["layers"])
        layers["trace.wall_s"] = (traced, "s")
        untraced_wall = untraced[0]["wall_s"]
        layers["trace.overhead_s"] = (traced - untraced_wall, "s")
        print_layers(layers, traced)
        print(f"tracing overhead: traced call {traced:.3f} s - untraced call "
              f"{untraced_wall:.3f} s = {traced - untraced_wall:.3f} s")
        metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    elif not args.trace:
        metrics = {
            "setup_s": metric(statistics.median(
                s * v for (_, s), v in zip(setups, setup_speeds)), "s"),
            "items_per_s": metric(n_items / statistics.median(
                c["wall_s"] * c["speed"] for c in untraced), "1/s"),
            "peak_rss_mb": metric(max(call["peak_rss_mb"] for call in calls), "MB"),
            "yield_frac": metric(quality.get("yield_frac", 0.0), "frac"),
            "eval_f1": metric(quality.get("eval_f1", 0.0), "%"),
        }
        for name, entry in metrics.items():
            print(f"{name:<14} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps({"correct": problem is None, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
