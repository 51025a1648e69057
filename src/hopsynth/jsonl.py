"""JSONL files: one JSON object per line.

The one reader and writer of every JSONL file hopsynth reads or writes:
corpora and stores, stage rows, datasets, few-shot examples and embedding
tables. It imports nothing from the package, so every module can use it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable


def read_numbered_rows(
    path, error: type[Exception] = ValueError, fields: tuple[str, ...] = ()
) -> list[tuple[int, dict]]:
    """(line number, object) for each non-blank line, in file order.

    `path` is a file path or an `importlib.resources` file. A line that is
    not valid JSON, not a JSON object, or an object without one of `fields`
    raises `error` naming `<path>:<line>`.
    """
    source = Path(path) if isinstance(path, str) else path
    rows = []
    for line_no, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            message = f"invalid JSON ({exc.msg} at column {exc.colno})"
            raise error(f"{path}:{line_no}: {message}") from exc
        if not isinstance(row, dict):
            raise error(f"{path}:{line_no}: not a JSON object")
        for name in fields:
            if name not in row:
                raise error(f"{path}:{line_no}: missing field {name!r}")
        rows.append((line_no, row))
    return rows


def read_rows(path, fields: tuple[str, ...] = ()) -> list[dict]:
    """The objects of a JSONL file, blank lines skipped; see `read_numbered_rows`."""
    return [row for _, row in read_numbered_rows(path, fields=fields)]


def write_rows(rows: Iterable[dict], path) -> None:
    """Write one JSON object per line, non-ASCII kept as is."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
