"""JSONL files: one JSON object per line.

The one reader and writer of every JSONL file hopsynth reads or writes:
corpora and stores, stage rows, datasets, evaluation items, few-shot
examples and embedding tables; `read_json` reads the one whole-file JSON
input, the mock backend's script. It imports nothing from the package,
so every module can use it.

Lines split on `\n` only, and a `\r` before it is dropped with it. The writer
keeps non-ASCII characters as they are, U+2028, U+2029 and U+0085 included,
which `str.splitlines` would also split on. The reader reads the open file
line by line, decodes each line as UTF-8 and yields each object as it is
parsed, so reading holds one line at a time and the caller decides which
objects it keeps. It is also the one checker of a row's fields, required
and optional.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional

# A field's check: (valid, expected), read as "<field> <value!r> is not <expected>".
Check = tuple[Callable[[object], bool], str]
STRING: Check = (lambda value: isinstance(value, str), "a string")
NON_EMPTY: Check = (lambda value: isinstance(value, str) and value != "", "a non-empty string")


class InputError(ValueError):
    """A line of an input file is bad; the message names `<path>:<line>`."""


def is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8 ({exc.reason} at byte {exc.start + 1})"


def read_text(path, error: type[Exception] = InputError) -> str:
    """A whole UTF-8 file's text; a file that is not UTF-8 raises `error` naming `<path>`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {_not_utf8(exc)}") from exc


def read_json(path):
    """A whole JSON file's value; a file that is not UTF-8 or not JSON raises
    InputError naming `<path>`."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        message = f"invalid JSON ({exc.msg} at line {exc.lineno} column {exc.colno})"
        raise InputError(f"{path}: {message}") from exc


def read_numbered_rows(
    path, error: type[Exception] = InputError, fields: Mapping[str, Optional[Check]] = {},
    optional: Mapping[str, Check] = {},
) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line, in file order.

    `path` is a file path or an `importlib.resources` file. The file is
    opened at the call, so an unreadable path raises OSError here, and read
    lazily as the result is iterated. `fields` maps each field a row must
    hold to None, or to the `Check` its value must pass; `optional` maps a
    field a row may hold to the `Check` its value must pass when present,
    checked after the required ones. A line that is not UTF-8, not valid
    JSON or not a JSON object raises `error` naming `<path>:<line>`, and so
    does a row without a required field (`missing field 'x'`) or with a
    value a check refuses (`x <value!r> is not <expected>`).
    """
    source = Path(path) if isinstance(path, str) else path
    checks = [(name, True, *(check or (None, None))) for name, check in fields.items()]
    checks += [(name, False, *check) for name, check in optional.items()]
    return _numbered_rows(source.open("rb"), path, error, checks)


def _numbered_rows(handle, path, error, checks) -> Iterator[tuple[int, dict]]:
    with handle:
        for line_no, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{line_no}: {_not_utf8(exc)}") from exc
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                message = f"invalid JSON ({exc.msg} at column {exc.colno})"
                raise error(f"{path}:{line_no}: {message}") from exc
            if not isinstance(row, dict):
                raise error(f"{path}:{line_no}: not a JSON object")
            for name, required, valid, expected in checks:
                if name not in row:
                    if required:
                        raise error(f"{path}:{line_no}: missing field {name!r}")
                elif valid is not None and not valid(row[name]):
                    raise error(f"{path}:{line_no}: {name} {row[name]!r} is not {expected}")
            yield line_no, row


def refuse_multiline(row: dict, names: Iterable[str], where: str) -> None:
    """Raise InputError naming `where` when a field of `names` spans lines,
    as each is one line of a prompt."""
    for name in names:
        if "\n" in row[name]:
            raise InputError(f"{where}: {name} {row[name]!r} spans more than one line")


def row_line(row: dict) -> str:
    """A row as one line of a JSONL file: non-ASCII kept as is, ended by `\n`."""
    return json.dumps(row, ensure_ascii=False) + "\n"


def write_jsonl(lines: Iterable[str], path) -> None:
    """Write lines that `row_line` made, as they are, in UTF-8; a missing directory is made."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.writelines(lines)


def write_rows(rows: Iterable[dict], path) -> None:
    """Write one JSON object per line (`row_line`); a missing directory is made."""
    write_jsonl(map(row_line, rows), path)
