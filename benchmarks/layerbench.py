"""The timer, the inputs and the report shared by the layer benchmarks in this directory.

`alternate` times a layer against its reference in alternating passes and
swaps which side goes first on every pass, so neither side always runs
after the other (warm caches, a CPU frequency step) and a drift of the
host's speed between passes moves the ratio of a pass's two times less than
either time. `seeded_store` loads the benchmark's seeded corpus
(`perfbench/inputs.py`, `make_corpus`, seed 7) with `pipeline.build_store`.
`report` prints a script's rows, one dict each, as a table and then as the
last line: one JSON object `{"script", "hopsynth", "args", "rows"}`, where
`hopsynth` is the `__file__` of the package imported from PYTHONPATH, the
one the script measured.

Importing this module puts `perfbench/` and `tests/` on `sys.path`, so a
script can then import `inputs` and `tests/oracles.py`'s references.
"""

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import hopsynth
from hopsynth.pipeline import build_store

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

from inputs import make_corpus, write_jsonl  # noqa: E402

def alternate(layer, reference, passes: int) -> dict:
    """Time `layer()` and `reference()` in `passes` passes of one call each;
    the reference goes first in the odd passes. Returns each side's median
    seconds (`s`, `ref_s`) and the median over the passes of the layer's
    time over the reference's in the same pass (`ratio`), with its quartiles
    (`ratio_q1`, `ratio_q3`)."""
    times = np.empty((passes, 2))
    for p in range(passes):
        for side in (0, 1) if p % 2 == 0 else (1, 0):
            run = (layer, reference)[side]
            started = perf_counter()
            run()
            times[p, side] = perf_counter() - started
    seconds, ref_seconds = np.median(times, axis=0)
    q1, ratio, q3 = np.percentile(times[:, 0] / times[:, 1], [25, 50, 75])
    figures = {"s": seconds, "ref_s": ref_seconds, "ratio": ratio, "ratio_q1": q1,
               "ratio_q3": q3}
    return {name: round(float(value), 6) for name, value in figures.items()}


def seeded_store(n_docs: int, config, topics: bool = True):
    """`pipeline.build_store` under `config` over `make_corpus(n_docs, seed=7)`,
    written to a temporary file that is deleted once loaded. With `topics`
    false the records' topics are dropped first, as in a corpus that carries
    none."""
    records = make_corpus(n_docs, seed=7)
    if not topics:
        for record in records:
            del record["topic"]
    with tempfile.TemporaryDirectory() as tmp:
        return build_store(write_jsonl(Path(tmp) / "corpus.jsonl", records), config)


def report(args, rows: list[dict]) -> None:
    """Print `rows` as a table, one column per key in the order the keys first
    appear, then one JSON line with the script's name, `hopsynth.__file__`,
    the script's parsed `args` and the rows."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    table = [columns] + [[_cell(row.get(key, "")) for key in columns] for row in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        print(" ".join(cell.rjust(width) for cell, width in zip(line, widths)).rstrip())
    print(json.dumps({"script": Path(sys.argv[0]).stem, "hopsynth": hopsynth.__file__,
                      "args": vars(args), "rows": rows}))


def _cell(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)
