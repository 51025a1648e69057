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


def test_every_benchmark_script_has_a_small_run():
    assert sorted(SMALL_RUNS) == sorted(p.stem for p in (ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_benchmark_checks_its_layer_and_prints_one_json_line(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "benchmarks" / f"{name}.py"),
                          *SMALL_RUNS[name]],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    assert isinstance(json.loads(out.stdout.splitlines()[-1]), dict)
