"""Each layer benchmark runs at a small size: it exits 0, so its own checks
held, and its last stdout line is `benchmarks/layerbench.py`'s `report`
line, the same layout for every script. Every script but `bench_memory.py`
and `bench_scale.py` checks its layer against a reference and times the two
with `alternate`, whose statistic is tested here with a fake clock."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import layerbench  # noqa: E402

SMALL_RUNS = {
    "bench_search": ["--sizes", "300", "--queries", "130", "--repeats", "1"],
    "bench_embed": ["--sizes", "200", "--repeats", "1"],
    "bench_pairing": ["--sizes", "200"],
    "bench_synthesis": ["--sizes", "150", "--repeats", "1"],
    "bench_http": ["--requests", "50", "--repeats", "1"],
    "bench_memory": ["--sizes", "200", "--eval-sizes", "200", "--questions", "50"],
    "bench_scale": ["--sizes", "200"],
}

# `alternate`'s figures, which every timed row holds
TIMED = {"s", "ref_s", "ratio", "ratio_q1", "ratio_q3"}


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
    assert result.keys() == {"script", "hopsynth", "args", "rows"}
    assert result["script"] == name
    assert result["hopsynth"] == str(ROOT / "src" / "hopsynth" / "__init__.py")
    assert result["rows"]
    for row in result["rows"]:
        assert "layer" in row and "n" not in row  # a size column is `docs`
        # every row but bench_memory's and bench_scale's is timed; theirs hold
        # seconds and peak MB
        assert TIMED <= row.keys() or "peak_mb" in row
        if TIMED <= row.keys():
            assert row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"]


def test_alternate_swaps_the_first_side_and_takes_medians(monkeypatch):
    # each call records its side and advances a fake clock: the layer's pass p
    # takes p + 1 ticks, the reference's always 2
    clock, calls = [0.0], []

    def side(name, ticks):
        def run():
            calls.append(name)
            clock[0] += ticks(sum(c == name for c in calls))
        return run

    monkeypatch.setattr(layerbench, "perf_counter", lambda: clock[0])
    timing = layerbench.alternate(side("layer", float), side("ref", lambda _: 2.0), 5)
    assert calls == ["layer", "ref", "ref", "layer", "layer", "ref", "ref", "layer",
                     "layer", "ref"]
    # layer 1..5 ticks against 2: ratios 0.5, 1, 1.5, 2, 2.5
    assert timing == {"s": 3.0, "ref_s": 2.0, "ratio": 1.5, "ratio_q1": 1.0, "ratio_q3": 2.0}

    calls.clear()
    timing = layerbench.alternate(side("layer", float), side("ref", lambda _: 2.0), 1)
    assert calls == ["layer", "ref"]
    assert timing["ratio_q1"] <= timing["ratio"] <= timing["ratio_q3"]
