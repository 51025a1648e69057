"""Golden output digests: a change that means to keep outputs byte-identical
must keep these.

Each digest is the sha256 of an output file's bytes, or of a report as
sorted-key JSON (the synthesis report without its output paths). A change
that alters outputs on purpose updates the digests here and says in
CHANGES.md which rows changed and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopsynth.config import PipelineConfig
from hopsynth.pipeline import run_all, run_eval

from synthcorpus import make_corpus, write_corpus

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

GOLDEN = {
    "mqa": {
        "train": "98b368ce2b363641fa9c4a6576826632d84df308df7a845da76cf99200118a3b",
        "dev": "a49f3bad48985a11bdf13e21883d0855990c36d2a99a8e4371ecea0a61e85b90",
        "store": "2a06bf63a6aec2729f49992be6fd6e34eb878e05137b45de2ddbc1b0ff26b872",
        "report": "3fb3d9796c5c7cb39b93b4cef55a3299497e78cd1b0b52431251b191b4fee143",
    },
    "fever": {
        "train": "3d023fab009fefac952536845799adcab22c1328d081f40fd348e7ed82465baa",
        "dev": "1a98d0cb53e35f47114f5ad8370f39fb07bad4a30450c09642555c3f5f04d885",
        "store": "2a06bf63a6aec2729f49992be6fd6e34eb878e05137b45de2ddbc1b0ff26b872",
        "report": "c973e2332da00edfbe9adb45ad1fb2974f19f490adffd60be43ade10578d9e5a",
    },
    "eval": "25d6398fe8e1314f0d5c9ac3d95ae719c2833f14875060e3d127b7dd4066d1ca",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode("utf-8"))


def run_all_digests(task: str, workdir) -> dict:
    """Digests of `run_all` on a 300-doc synthetic corpus."""
    workdir = Path(workdir)
    corpus = write_corpus(workdir / "corpus.jsonl", make_corpus(n_docs=300, seed=5, n_topics=12))
    config = PipelineConfig(task=task, seed=23, dev_size=40)
    report = run_all(corpus, workdir / "out", config)
    outputs = report.pop("outputs")
    digests = {name: _sha(Path(outputs[name]).read_bytes()) for name in ("train", "dev", "store")}
    digests["report"] = _json_sha(report)
    return digests


def test_run_all_mqa_digests(tmp_path):
    assert run_all_digests("mqa", tmp_path) == GOLDEN["mqa"]


def test_run_all_fever_digests_under_another_hash_seed(tmp_path):
    # a fresh interpreter with its own string-hash seed must write the same bytes
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(TESTS)]),
    }
    code = (
        "import json, sys, test_golden; "
        "print(json.dumps(test_golden.run_all_digests('fever', sys.argv[1])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == GOLDEN["fever"]


def test_run_eval_report_digest(tmp_path):
    records = inputs.make_corpus(600, seed=9)
    items, script = inputs.make_eval_set(records, 300, seed=9)
    corpus = inputs.write_jsonl(tmp_path / "corpus.jsonl", records)
    questions = inputs.write_jsonl(tmp_path / "questions.jsonl", items)
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    config = PipelineConfig(seed=9)
    config.backend.mock_script = str(tmp_path / "script.json")
    report = run_eval(questions, corpus, config)
    assert 0 < report["f1"] < 100
    assert _json_sha(report) == GOLDEN["eval"]
