import pytest

from hopsynth.jsonl import read_numbered_rows, write_rows


def test_line_separator_characters_round_trip(tmp_path):
    # str.splitlines would break a line at each of these; JSONL lines end at \n only
    rows = [{"text": f"a{mark}b", "n": i} for i, mark in enumerate("\u2028\u2029\x85")]
    path = tmp_path / "rows.jsonl"
    write_rows(rows, path)
    assert [row for _, row in read_numbered_rows(path)] == rows


def test_blank_lines_and_crlf_keep_line_numbers(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\r\n  \n{"a": 2}\r\n{"a":\n')
    rows = read_numbered_rows(path)
    assert next(rows) == (1, {"a": 1})
    assert next(rows) == (4, {"a": 2})
    with pytest.raises(ValueError, match=r"rows\.jsonl:5: invalid JSON \(Expecting value at column 6\)"):
        next(rows)


def test_unreadable_path_raises_at_the_call(tmp_path):
    with pytest.raises(OSError):
        read_numbered_rows(tmp_path / "missing.jsonl")


def test_invalid_utf8_names_the_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    rows = read_numbered_rows(path)
    assert next(rows) == (1, {"a": 1})
    with pytest.raises(ValueError, match=r"rows\.jsonl:2: not UTF-8 \(invalid start byte at byte 8\)"):
        next(rows)



def test_optional_field_is_checked_only_when_present(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": "x"}\n{"a": "y", "b": ["z"]}\n{"a": "w", "b": 5}\n')
    rows = read_numbered_rows(path, fields={"a": None},
                              optional={"b": (lambda value: isinstance(value, list), "a list")})
    assert next(rows) == (1, {"a": "x"})
    assert next(rows) == (2, {"a": "y", "b": ["z"]})
    with pytest.raises(ValueError, match=r"rows\.jsonl:3: b 5 is not a list"):
        next(rows)


def test_required_fields_are_checked_before_optional_ones(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"b": 5}\n')
    rows = read_numbered_rows(path, fields={"a": None}, optional={"b": (lambda value: False, "x")})
    with pytest.raises(ValueError, match=r"rows\.jsonl:1: missing field 'a'"):
        next(rows)
