"""Every committed benchmark record (`BENCH_*.json` at the repo root) has the
fields a reader compares across changes. A file with a `workload` holds
`perfbench/run.py` records, each consistent with BENCHMARK.json and with the
record's own runs; a file with a `script` holds runs of that
`benchmarks/<script>.py`, each its `layerbench.report` line."""

import json
import re
import statistics
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SCRIPT_FILES = [path for path in BENCH_FILES if "script" in json.loads(path.read_text())]
WORKLOAD_FILES = [path for path in BENCH_FILES if path not in SCRIPT_FILES]


def _half_unit(values) -> Decimal:
    """Half a unit of the finest decimal place any of the stored values shows."""
    return Decimal(5).scaleb(min(Decimal(repr(v)).as_tuple().exponent for v in values) - 1)


def test_bench_records_are_committed():
    assert WORKLOAD_FILES and SCRIPT_FILES


def _record_identity(record):
    assert record["role"] in ("parent", "change")
    assert re.fullmatch(r"[0-9a-f]{40}", record["sha"])
    assert re.fullmatch(r"[0-9a-f]{64}", record["src_sha256"])


@pytest.mark.parametrize("path", WORKLOAD_FILES, ids=lambda path: path.name)
def test_bench_record_fields(path):
    bench = json.loads(path.read_text())
    assert bench["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert bench["records"]
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    for record in bench["records"]:
        assert record["workload"] == bench["workload"]
        _record_identity(record)
        assert len(record["seeds"]) == record["runs"]
        metrics = record["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == units
        for name, m in metrics.items():
            assert m["q1"] <= m["median"] <= m["q3"], name
        per_seed = record.get("items_per_s_per_seed")
        if per_seed is not None:
            assert sorted(per_seed) == sorted(map(str, record["seeds"]))
            median = metrics["items_per_s"]["median"]
            tolerance = _half_unit(per_seed.values()) + _half_unit([median])
            assert abs(Decimal(repr(statistics.median(per_seed.values())))
                       - Decimal(repr(median))) <= tolerance


@pytest.mark.parametrize("path", SCRIPT_FILES, ids=lambda path: path.name)
def test_bench_script_record_fields(path):
    bench = json.loads(path.read_text())
    assert (ROOT / "benchmarks" / f"{bench['script']}.py").is_file()
    assert bench["records"]
    for record in bench["records"]:
        _record_identity(record)
        assert record["runs"]
        for run in record["runs"]:
            assert run.keys() == {"script", "args", "rows"}
            assert run["script"] == bench["script"]
            assert run["args"] == record["runs"][0]["args"]
            assert run["rows"] and all("layer" in row and "docs" in row for row in run["rows"])
        # rows of one size hold the same fields in every run, and the digests
        # of what a run wrote do not change from run to run
        for rows in zip(*(run["rows"] for run in record["runs"]), strict=True):
            assert len({tuple(row) for row in rows}) == 1
            digests = {tuple((k, v) for k, v in row.items() if k.endswith("_sha")) for row in rows}
            assert len(digests) == 1, (record["role"], rows[0]["docs"])
