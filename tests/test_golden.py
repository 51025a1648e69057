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

from hopsynth.cli import main
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
    # mqa with topics.labeler = keyword (one cluster of every document) and none
    "mqa-keyword": {
        "train": "f903b4065c93d4bdc0f7e8d99b99800683bd9543ff3db61d43411d171e65e5db",
        "dev": "a7c77a2f16e18b0276ced8e0cee86f652f0b34a23f8dbe9451d83cc9d0e21e56",
        "store": "c753bb0dcbb10a6b25777278c748890536469be65e289b1e4e24236dcd7f6072",
        "report": "e6ad6171b7507129f8dcbdc6f65797541ef0b8b71430089fed5e0e879d1273bc",
    },
    "mqa-none": {
        "train": "2f840cbf49a909b32b779be4c2d995d249c69417897510220f58a66c6fe5d483",
        "dev": "5c0ad05d8faae96546301a4aff45f1043f5ab0f36c81c34de1bc7bc5612f34c2",
        "store": "c3c3a9827ae11834428d1516dbe5c647c7beb068f72dafb2d27626a56ddf6e2b",
        "report": "90e05b01cd6359b0536353565bc3658a68b206432e263d6d234e8e5722926b39",
    },
    "eval": "25d6398fe8e1314f0d5c9ac3d95ae719c2833f14875060e3d127b7dd4066d1ca",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode("utf-8"))


def run_all_digests(task: str, workdir, labeler: str = "file") -> dict:
    """Digests of `run_all` on a 300-doc synthetic corpus.

    Under `topics.labeler = keyword` or `none` the records carry no topic,
    so `keyword` labels every document itself; the synthetic texts hold no
    keyword, so all 300 share one cluster.
    """
    workdir = Path(workdir)
    records = make_corpus(n_docs=300, seed=5, n_topics=12)
    if labeler != "file":
        for record in records:
            del record["topic"]
    corpus = write_corpus(workdir / "corpus.jsonl", records)
    config = PipelineConfig(task=task, seed=23, dev_size=40)
    config.topics.labeler = labeler
    report = run_all(corpus, workdir / "out", config)
    outputs = report.pop("outputs")
    digests = {name: _sha(Path(outputs[name]).read_bytes()) for name in ("train", "dev", "store")}
    digests["report"] = _json_sha(report)
    return digests


def test_run_all_mqa_digests(tmp_path):
    assert run_all_digests("mqa", tmp_path) == GOLDEN["mqa"]


@pytest.mark.parametrize("labeler", ["keyword", "none"])
def test_run_all_mqa_digests_per_topic_labeler(tmp_path, labeler):
    assert run_all_digests("mqa", tmp_path, labeler) == GOLDEN[f"mqa-{labeler}"]


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


DEMO = ROOT / "demo"
# sha256 of each stage command's output on demo/ with demo/config.txt; the
# store is ingest's output, train and dev are emit's
DEMO_CHAIN = {
    "store": "9dec42993c65bb83e7ae5fac66e1273b2193792094e844a5a735e33cea56b9ce",
    "pairs": "6de667c98e3fd704b490a1436cb94afa5a174ceab1556946482e6e5c6fce9a5d",
    "drafts": "8a32771bbe641506ac4024dcba6ce91a74b6e90d400db84885d4801a169e3d7a",
    "decisions": "79d0b8ca8f10e5560b3036b31ebf354cbce5231ca80437383ee16b1d7bda5e21",
    "candidates": "e37527b07e000adaa08a3b4fc465eeb53e9f5697cea706bbcd43a3c752f38e3e",
    "instances": "ea812390ab00b101e4a95ad6c423c3e315569af32779ea0e595bf29da1568c89",
    "train": "064e328aa33061563d4d3b0de359cc05e641b3058708c025fd48a5b8d222660a",
    "dev": "5b7dc25f47d79dd6dc216fe2f02363658ff9ff4e2e66c9bc1f8b630a418dffe1",
}


def demo_chain_digests(workdir) -> dict:
    """Run the stage commands in order on demo/; digest each output file."""
    workdir = Path(workdir)
    base = ["--config", str(DEMO / "config.txt")]
    paths = {name: workdir / f"{name}.jsonl" for name in DEMO_CHAIN}
    store = ["--store", str(paths["store"])]
    steps = (
        ["ingest", "--in", str(DEMO / "corpus.jsonl"), "--out", str(paths["store"])],
        ["pair", *store, "--out", str(paths["pairs"])],
        ["gen-questions", *store, "--in", str(paths["pairs"]), "--out", str(paths["drafts"])],
        ["filter-answers", *store, "--in", str(paths["drafts"]),
         "--out", str(paths["decisions"])],
        ["gen-queries", *store, "--in", str(paths["decisions"]),
         "--out", str(paths["candidates"])],
        ["verify", *store, "--in", str(paths["candidates"]), "--out", str(paths["instances"])],
        ["emit", "--in", str(paths["instances"]), "--out", str(workdir / "splits")],
    )
    for argv in steps:
        assert main(base + argv) == 0, argv[0]
    paths["train"] = workdir / "splits" / "train.jsonl"
    paths["dev"] = workdir / "splits" / "dev.jsonl"
    return {name: _sha(path.read_bytes()) for name, path in paths.items()}


def test_demo_cli_stage_chain_digests_and_run_all(tmp_path):
    assert demo_chain_digests(tmp_path) == DEMO_CHAIN
    # run-all chains the same stages in one process and writes the same files
    out = tmp_path / "run_all"
    assert main([
        "--config", str(DEMO / "config.txt"), "run-all",
        "--in", str(DEMO / "corpus.jsonl"), "--out", str(out),
    ]) == 0
    for name in ("train", "dev", "store"):
        assert _sha((out / f"{name}.jsonl").read_bytes()) == DEMO_CHAIN[name], name
