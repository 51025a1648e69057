"""Each layer benchmark runs at a small size: it exits 0, so its own check
that the layer equals its reference held, and its last stdout line is one
JSON object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SMALL_RUNS = {
    "bench_search": ["--sizes", "300", "--queries", "130", "--repeats", "1"],
    "bench_embed": ["--sizes", "200", "--repeats", "1"],
    "bench_pairing": ["--sizes", "200"],
    "bench_synthesis": ["--sizes", "150", "--repeats", "1"],
    "bench_http": ["--requests", "50", "--repeats", "1"],
    "bench_memory": ["--sizes", "200", "--eval-sizes", "200", "--questions", "50"],
}


# the figures a script's JSON line holds for each size it ran
SIZE_FIELDS = {
    "bench_search": {"matvec_s", "block_s", "ratio", "ratio_q1", "ratio_q3", "gemm_s",
                     "select_s", "certify_s", "fallback_s", "fallback_frac"},
}


def test_every_benchmark_script_has_a_small_run():
    assert sorted(SMALL_RUNS) == sorted(p.stem for p in (ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_benchmark_checks_its_layer_and_prints_one_json_line(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "benchmarks" / f"{name}.py"),
                          *SMALL_RUNS[name]],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert isinstance(result, dict)
    for row in result["sizes"] if name in SIZE_FIELDS else ():
        assert SIZE_FIELDS[name] <= row.keys()
        assert row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]
