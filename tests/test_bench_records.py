"""Every committed benchmark record (`BENCH_*.json` at the repo root) has the
fields a reader compares across changes, each consistent with BENCHMARK.json
and with the record's own runs."""

import json
import re
import statistics
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _half_unit(values) -> Decimal:
    """Half a unit of the finest decimal place any of the stored values shows."""
    return Decimal(5).scaleb(min(Decimal(repr(v)).as_tuple().exponent for v in values) - 1)


def test_bench_records_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_record_fields(path):
    bench = json.loads(path.read_text())
    assert bench["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert bench["records"]
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    for record in bench["records"]:
        assert record["workload"] == bench["workload"]
        assert re.fullmatch(r"[0-9a-f]{40}", record["sha"])
        assert re.fullmatch(r"[0-9a-f]{64}", record["src_sha256"])
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
