import csv
import importlib
import io
import json
import math
import os
import re
import stat
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pac_route.io
from pac_route.io import atomic_write_json, atomic_write_text, load_json, load_records
from pac_route.records import RECORD_FIELDS, RecordColumns
from reference import record_to_dict, write_records_jsonl

# ------------------------------------------------- per-record reference readers
# The record-at-a-time readers load_records replaced, kept as oracles.  They
# return one dict per record and apply the checks the old per-record class made
# of itself: a non-empty string id, a finite uncertainty in [0, 1], token counts
# >= 0 and embeddings as float tuples.  Five differences from the originals,
# each a fix the column loader makes too: every row error names its path:line
# (the per-record check used to name only the record), a CSV error names the
# physical line (a blank line used to shift the count), the fields stored
# unchecked must have their JSON type (labels and answers strings, losses
# numbers, embeddings arrays), the fields converted must have their JSON type
# too (an uncertainty is a number and a token count an integer, never a bool
# or a string, as in a CSV cell), and a token count too large for a float is
# a row error (it used to crash when the table was built).

_EMBEDDING_FIELDS = ("thinking_embedding", "cheap_embedding")
_INT_FIELDS = ("tokens_thinking", "tokens_cheap")
_FLOAT_FIELDS = ("uncertainty", "loss")
_ARRAY_FIELDS = ("uncertainty", *_INT_FIELDS)
_JSON_TYPES = {
    "uncertainty": (int, float), "group_label": (str,), "loss": (int, float),
    "thinking_answer": (str,), "cheap_answer": (str,), "gold_answer": (str,),
    "thinking_embedding": (list,), "cheap_embedding": (list,),
    "tokens_thinking": (int,), "tokens_cheap": (int,),
}


def _record_from_mapping(data: dict, source: str) -> tuple[dict, int]:
    row = {key: value for key, value in data.items() if key in RECORD_FIELDS}
    unknown = len(data) - len(row)
    if "id" not in row or "uncertainty" not in row:
        raise ValueError(f"{source}: record needs at least id and uncertainty")
    for name, types in _JSON_TYPES.items():
        if row.get(name) is not None and type(row[name]) not in types:
            raise ValueError(f"{source}: field {name!r} has the wrong type")
    try:
        if not isinstance(row["id"], str) or not row["id"]:
            raise ValueError("record id must be a non-empty string")
        u = row["uncertainty"] = float(row["uncertainty"])
        if not math.isfinite(u) or not 0.0 <= u <= 1.0:
            raise ValueError(f"uncertainty {u} outside [0, 1]")
        for name in _INT_FIELDS:
            if row.get(name) is not None and float(row[name]) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in _EMBEDDING_FIELDS:
            if row.get(name) is not None:
                row[name] = tuple(float(x) for x in row[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{source}: {exc}") from exc
    return row, unknown


def read_records_jsonl_reference(path) -> tuple[list[dict], int]:
    records = []
    ignored = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(data, dict):
                raise ValueError(f"{path}:{lineno}: each line must be a JSON object")
            record, unknown = _record_from_mapping(data, f"{path}:{lineno}")
            records.append(record)
            ignored += unknown
    return records, ignored


def read_records_csv_reference(path) -> tuple[list[dict], int]:
    records = []
    ignored = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: missing CSV header row")
        present = set(reader.fieldnames) & set(_EMBEDDING_FIELDS)
        if present:
            raise ValueError(
                f"{path}: embedding columns {sorted(present)} are not supported in CSV; use JSONL"
            )
        repeated = sorted(name for name, count in Counter(reader.fieldnames).items()
                          if count > 1 and name in RECORD_FIELDS)
        if repeated:
            raise ValueError(f"{path}:1: the header names fields {repeated} more than once")
        for row in reader:
            lineno = reader.line_num
            data: dict = {}
            unknown = 0
            for key, raw in row.items():
                if key not in RECORD_FIELDS:
                    unknown += 1
                    continue
                if raw is None or raw == "":
                    continue
                try:
                    if key in _FLOAT_FIELDS:
                        data[key] = float(raw)
                    elif key in _INT_FIELDS:
                        data[key] = int(raw)
                    else:
                        data[key] = raw
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
            record, _ = _record_from_mapping(data, f"{path}:{lineno}")
            records.append(record)
            ignored += unknown
    return records, ignored


def _value(name: str, value) -> str:
    # repr keeps NaN equal to NaN and an int apart from a float; the float
    # columns hold None as NaN
    if name in _ARRAY_FIELDS:
        return repr(math.nan if value is None else float(value))
    return repr(value)


def column_values(columns: RecordColumns) -> dict:
    """Every column as comparable values."""
    return {name: [_value(name, v) for v in getattr(columns, name)] for name in RECORD_FIELDS}


def row_values(rows: list[dict]) -> dict:
    """The columns of checked rows as `column_values` gives them."""
    return {name: [_value(name, row.get(name)) for row in rows] for name in RECORD_FIELDS}


def assert_same_columns(got: RecordColumns, rows: list[dict]) -> None:
    assert column_values(got) == row_values(rows)
    for name in _ARRAY_FIELDS:
        assert getattr(got, name).dtype == np.float64


def outcome(read, path):
    """("ok", columns of the records, ignored) or ("error", the line named)."""
    try:
        records, ignored = read(path)
    except ValueError as exc:
        match = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
        assert match, f"error without path:line: {exc}"
        return "error", int(match.group(1))
    if isinstance(records, RecordColumns):
        return "ok", column_values(records), ignored
    return "ok", row_values(records), ignored


# --------------------------------------------------------------- load_records


def test_jsonl_round_trip(tmp_path):
    records = [
        dict(id="a", uncertainty=0.2, group_label="math", loss=0.5,
             thinking_answer="4", cheap_answer="7", gold_answer="4",
             thinking_embedding=(1.0, 0.0), cheap_embedding=(0.5, 0.5),
             tokens_thinking=120, tokens_cheap=9),
        dict(id="b", uncertainty=0.9),
    ]
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    back, ignored = load_records(path)
    assert_same_columns(back, records)
    assert back.lines.tolist() == [1, 2]
    assert ignored == 0


def test_jsonl_skips_blank_lines_and_counts_unknown_fields(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"id": "a", "uncertainty": 0.1, "mystery": 1, "extra": "x"}\n'
        "\n"
        '{"id": "b", "uncertainty": 0.2}\n'
    )
    columns, ignored = load_records(path)
    assert columns.id == ["a", "b"]
    assert columns.lines.tolist() == [1, 3]
    assert ignored == 2


def test_jsonl_rejects_non_object_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError):
        load_records(path)


def test_jsonl_requires_id_and_uncertainty(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(ValueError) as info:
        load_records(path)
    assert "uncertainty" in str(info.value)


@pytest.mark.parametrize("field, value, what", [
    ("uncertainty", '"0.5"', "a number"),
    ("uncertainty", "true", "a number"),
    ("uncertainty", "false", "a number"),
    ("tokens_thinking", "1.5", "an integer"),
    ("tokens_thinking", "7.0", "an integer"),
    ("tokens_cheap", "true", "an integer"),
    ("tokens_cheap", '"7"', "an integer"),
])
def test_jsonl_rejects_values_of_the_wrong_json_type(tmp_path, field, value, what):
    # as strict as a CSV cell: no string or bool for a number, no float for a count
    good = '{"id": "a", "uncertainty": 0.5, "tokens_thinking": 10, "tokens_cheap": 2}\n'
    bad = json.loads(good)
    bad.update(id="b", **{field: json.loads(value)})
    path = tmp_path / "records.jsonl"
    path.write_text(good * 3 + json.dumps(bad) + "\n" + good)
    with pytest.raises(ValueError) as info:
        load_records(path)
    assert str(info.value) == f"{path}:4: field {field!r}: must be {what}, got {json.loads(value)!r}"


def test_csv_reading_with_blanks(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "id,uncertainty,group_label,loss,tokens_thinking,tokens_cheap\n"
        "a,0.25,math,0.5,100,10\n"
        "b,0.75,,,,\n"
    )
    columns, ignored = load_records(path)
    assert ignored == 0
    assert columns.loss[0] == 0.5
    assert columns.tokens_thinking[0] == 100
    assert columns.group_label[1] is None
    assert columns.loss[1] is None
    assert np.isnan(columns.tokens_cheap[1])


def test_csv_rejects_embedding_columns(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("id,uncertainty,thinking_embedding\na,0.5,1.0\n")
    with pytest.raises(ValueError) as info:
        load_records(path)
    assert "JSONL" in str(info.value)


@pytest.mark.parametrize("header, named", [
    ("id,uncertainty,uncertainty,loss", "uncertainty"),
    ("id,loss,uncertainty,group_label,loss,group_label", "loss"),
])
def test_csv_rejects_a_header_naming_a_field_twice(tmp_path, header, named):
    path = tmp_path / "records.csv"
    path.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
    with pytest.raises(ValueError) as info:
        load_records(path)
    assert str(info.value) == f"{path}:1: the header names field {named!r} more than once"


def test_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_records(path)


def test_load_records_detects_format(tmp_path):
    jl = tmp_path / "r.jsonl"
    jl.write_text('{"id": "a", "uncertainty": 0.5}\n')
    cv = tmp_path / "r.csv"
    cv.write_text("id,uncertainty\na,0.5\n")
    assert load_records(jl)[0].id[0] == "a"
    assert load_records(cv)[0].id[0] == "a"
    # explicit format wins over the extension
    odd = tmp_path / "r.data"
    odd.write_text("id,uncertainty\nb,0.5\n")
    assert load_records(odd, "csv")[0].id[0] == "b"
    with pytest.raises(ValueError):
        load_records(jl, "parquet")


def test_loader_keeps_benchmark_sized_input_exact(tmp_path):
    # more rows than one parsing block, with a blank line and an unknown
    # field in the second block
    rng = np.random.default_rng(5)
    rows = [{"id": f"r{i}", "uncertainty": float(rng.uniform()),
             **({"group_label": "g"} if i % 3 else {}),
             **({"tokens_thinking": int(rng.integers(0, 500))} if i % 5 else {})}
            for i in range(20_000)]
    rows[15_000]["note"] = "x"
    text = "".join(json.dumps(r) + "\n" for r in rows[:9000]) + "\n" + \
        "".join(json.dumps(r) + "\n" for r in rows[9000:])
    path = tmp_path / "big.jsonl"
    path.write_text(text)
    assert outcome(load_records, path) == outcome(read_records_jsonl_reference, path)
    columns, ignored = load_records(path)
    assert ignored == 1 and columns.lines[9000] == 9002


def test_jsonl_objects_sharing_lines_are_an_error(tmp_path):
    # joined with a comma these two lines parse as two objects, but line 1
    # holds one object and the start of another
    path = tmp_path / "r.jsonl"
    path.write_text('{"id": "a", "uncertainty": 0.1}, {"id": "b", "uncertainty": 0.2, "x": [{"c": 1}\n'
                    '{"d": 2}]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
        load_records(path)


def test_jsonl_value_that_looks_like_a_seam_loads(tmp_path):
    rows = [{"id": f"r{i}", "uncertainty": 0.5, "group_label": "}, {" if i == 1 else "g"} for i in range(3)]
    path = tmp_path / "r.jsonl"
    write_records_jsonl(rows, path)
    assert outcome(load_records, path) == outcome(read_records_jsonl_reference, path)
    assert load_records(path)[0].group_label == ["g", "}, {", "g"]


def test_clean_jsonl_blocks_never_go_line_by_line(tmp_path, monkeypatch):
    monkeypatch.setattr(pac_route.io, "_BLOCK", 3)
    monkeypatch.setattr(pac_route.io, "_parse_lines", lambda *args: pytest.fail("a clean block went line by line"))
    rows = [{"id": f"r{i}", "uncertainty": i / 10, "group_label": "g", "tokens_cheap": i} for i in range(10)]
    path = tmp_path / "r.jsonl"
    write_records_jsonl(rows, path)
    assert outcome(load_records, path) == outcome(read_records_jsonl_reference, path)
    assert load_records(path)[0].lines.tolist() == list(range(1, 11))


def test_csv_syntax_error_comes_after_the_rows_read_before_it(tmp_path):
    # a cell over the csv module's field size limit (131072 characters) ends
    # reading; a bad row before it still wins
    long_cell = "x" * 200_000
    path = tmp_path / "r.csv"
    for text, message in [
        (f"id,uncertainty\na,1.5\nb,{long_cell}\n", ":2: uncertainty 1.5 outside"),
        (f"id,uncertainty\na,abc\nb,{long_cell}\n", ":2: field 'uncertainty'"),
        (f"id,{long_cell}\na,0.5\n", ":1: field larger than field limit"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            load_records(path)


# each format: (file name, header, a row with uncertainty {u}, a row whose id is not UTF-8)
NOT_UTF8 = {
    "jsonl": ("r.jsonl", b"", b'{"id": "a", "uncertainty": %s, "loss": 0.0}\n',
              b'{"id": "b\xff", "uncertainty": 0.5, "loss": 0.0}\n'),
    "csv": ("r.csv", b"id,uncertainty,loss\n", b"a,%s,0\n", b"b\xff,0.5,0\n"),
}


@pytest.mark.parametrize("fmt", sorted(NOT_UTF8))
@pytest.mark.parametrize("good_rows", [1, 3000])
def test_a_line_that_is_not_utf8_is_named(tmp_path, fmt, good_rows):
    name, header, row, bad = NOT_UTF8[fmt]
    path = tmp_path / name
    path.write_bytes(header + row % b"0.5" * good_rows + bad + row % b"0.5")
    line = len(header.splitlines()) + good_rows + 1
    position = bad.index(b"\xff")
    with pytest.raises(ValueError) as info:
        load_records(path)
    assert str(info.value) == (f"{path}:{line}: 'utf-8' codec can't decode byte 0xff "
                               f"in position {position}: invalid start byte")


@pytest.mark.parametrize("fmt", sorted(NOT_UTF8))
@pytest.mark.parametrize("first, message", [
    (b"1.5", "uncertainty 1.5 outside [0, 1]"),
    (b'"abc"', "field 'uncertainty'"),
])
def test_a_bad_row_before_a_line_that_is_not_utf8_wins(tmp_path, monkeypatch, fmt, first, message):
    monkeypatch.setattr(pac_route.io, "_BLOCK", 2)
    name, header, row, bad = NOT_UTF8[fmt]
    path = tmp_path / name
    path.write_bytes(header + row % b"0.5" + row % first + row % b"0.5" + bad)
    line = len(header.splitlines()) + 2
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + ".*" + re.escape(message)):
        load_records(path)


BOM_FILES = {
    "jsonl": ("r.jsonl", b'{"id": "a", "uncertainty": 0.5, "loss": 0.0}\n{"id": "b", "uncertainty": 0.25}\n'),
    "csv": ("r.csv", b"id,uncertainty,loss\na,0.5,0\nb,0.25,\n"),
}


@pytest.mark.parametrize("fmt", sorted(BOM_FILES))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, fmt):
    # Excel's "CSV UTF-8" starts with one; the header's first name must still read `id`
    name, text = BOM_FILES[fmt]
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    (want, want_ignored), (got, ignored) = load_records(plain), load_records(marked)
    assert column_values(got) == column_values(want) and got.lines.tolist() == want.lines.tolist()
    assert ignored == want_ignored == 0


def test_a_byte_order_mark_after_the_first_line_is_a_bad_row(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_bytes(b'{"id": "a", "uncertainty": 0.5}\n\xef\xbb\xbf{"id": "b", "uncertainty": 0.5}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: Unexpected UTF-8 BOM")):
        load_records(path)


@pytest.mark.parametrize("fmt", sorted(NOT_UTF8))
def test_a_byte_order_mark_keeps_the_line_that_is_not_utf8(tmp_path, fmt):
    name, header, row, bad = NOT_UTF8[fmt]
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + header + row % b"0.5" * (3 - len(header.splitlines()) - 1) + bad)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: 'utf-8' codec can't decode byte 0xff")):
        load_records(path)


def test_load_json_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "policy.json"
    path.write_bytes(b'\xef\xbb\xbf{"version": 1}\n')
    assert load_json(path) == {"version": 1}


# ------------------------------------------- loader against the reference readers

_IDS = st.one_of(st.text(min_size=1, max_size=6), st.sampled_from(['a"b', "c\\d", "é", "日本", "😀"]))
_BAD = st.sampled_from([None, [1], {"a": 1}, True, "abc", "", -1, 1.5, math.nan, math.inf, "0.5", 10 ** 400])
# values of the right size in a JSON type a CSV cell could not convert to
_NOT_A_NUMBER = st.sampled_from([True, False, "0.5", "1"])
_NOT_AN_INTEGER = st.sampled_from([True, False, 1.5, 7.0, "7"])


def _field(good, wrong_type=None):
    # mostly valid values: one in twelve from the bad pool, and one in twelve
    # of a wrong type where the field has one
    pools = [_BAD] if wrong_type is None else [_BAD, wrong_type]
    return st.integers(0, 11).flatmap(lambda i: pools[i] if i < len(pools) else good)


_FIELD_VALUES = {
    "id": _field(_IDS),
    "uncertainty": _field(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])), _NOT_A_NUMBER),
    "group_label": _field(st.sampled_from(["a", "b", "ü", None])),
    "loss": _field(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, None]))),
    "thinking_answer": _field(st.text(max_size=3)),
    "cheap_answer": _field(st.text(max_size=3)),
    "gold_answer": _field(st.text(max_size=3)),
    "thinking_embedding": _field(st.lists(st.floats(-2.0, 2.0), max_size=3)),
    "cheap_embedding": _field(st.lists(st.floats(-2.0, 2.0), max_size=3)),
    "tokens_thinking": _field(st.integers(0, 10 ** 6), _NOT_AN_INTEGER),
    "tokens_cheap": _field(st.integers(0, 10 ** 6), _NOT_AN_INTEGER),
    "note": st.integers(0, 9),
}


@st.composite
def record_row(draw, fields=tuple(sorted(_FIELD_VALUES))):
    names = draw(st.lists(st.sampled_from(fields), unique=True, max_size=7))
    row = {"id": draw(_IDS), "uncertainty": draw(st.floats(0.0, 1.0))}
    row.update({name: draw(_FIELD_VALUES[name]) for name in names})
    return row


@st.composite
def jsonl_line(draw):
    kind = draw(st.sampled_from(["row"] * 24 + ["blank"] * 3 + ["array", "two", "syntax", "fragment"]))
    if kind == "blank":
        # form feed and no-break space: str.strip removes them, JSON whitespace has neither
        return draw(st.sampled_from(["", "   ", "\t", "\x0c", "\u00a0"]))
    if kind == "array":
        return "[1, 2]"
    if kind == "syntax":
        return '{"id": "x", "uncertainty": 0.5'
    if kind == "fragment":
        return '"uncertainty": 0.5}'
    text = json.dumps(draw(record_row()), ensure_ascii=draw(st.booleans()))
    if kind == "two":
        return text + draw(st.sampled_from([" ", ", "])) + text
    return text + draw(st.sampled_from(["", " "]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(jsonl_line(), max_size=8), final_newline=st.booleans())
def test_jsonl_loader_matches_reference(tmp_path, lines, final_newline):
    path = tmp_path / "r.jsonl"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
    assert outcome(load_records, path) == outcome(read_records_jsonl_reference, path)


_VALID_ROW = st.builds(dict, id=_IDS, uncertainty=st.floats(0.0, 1.0))
_CLOSE = '{"b": 2}]}'


@st.composite
def seam_lines(draw):
    """One line of `jsonl_line`, or lines that make seams: valid objects joined
    by ", ", an object left open in an array (behind another object or not)
    with or without the line that closes it, or such a close alone."""
    kind = draw(st.sampled_from(["line", "line", "two", "open", "close"]))
    if kind == "line":
        return [draw(jsonl_line())]
    if kind == "close":
        return [_CLOSE]
    two = kind == "two" or draw(st.booleans())
    text = ", ".join(json.dumps(draw(_VALID_ROW)) for _ in range(1 + two))
    if kind == "two":
        return [text]
    return [text[:-1] + ', "e": [{"a": 1}'] + [_CLOSE] * draw(st.booleans())


@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=st.lists(seam_lines(), max_size=6), final_newline=st.booleans())
def test_jsonl_blocks_keep_one_row_per_line(tmp_path, monkeypatch, block, parts, final_newline):
    # blocks of a few lines, so that seams fall inside and across blocks
    monkeypatch.setattr(pac_route.io, "_BLOCK", block)
    path = tmp_path / "r.jsonl"
    lines = [line for part in parts for line in part]
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
    assert outcome(load_records, path) == outcome(read_records_jsonl_reference, path)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(record_row(RECORD_FIELDS), max_size=5))
def test_rows_in_memory_follow_the_jsonl_rules(tmp_path, rows):
    # one rule for both paths: the same rows built in memory and read from a
    # file give the same columns, or the same error at the same row
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    try:
        from_file, _ = load_records(path)
    except ValueError as exc:
        line, message = re.fullmatch(re.escape(str(path)) + r":(\d+): (.*)", str(exc), re.S).groups()
        with pytest.raises(ValueError) as info:
            RecordColumns.from_records(rows)
        assert str(info.value) == f"record {rows[int(line) - 1]['id']}: {message}"
    else:
        assert column_values(RecordColumns.from_records(rows)) == column_values(from_file)


_CSV_CELLS = {
    "id": _IDS,
    "uncertainty": st.floats(0.0, 1.0).map(repr),
    "group_label": st.sampled_from(["a", "b", "ü", ""]),
    "loss": st.sampled_from(["0", "1", "0.25", ""]),
    "thinking_answer": st.text(max_size=3),
    "cheap_answer": st.text(max_size=3),
    "gold_answer": st.text(max_size=3),
    "tokens_thinking": st.integers(0, 10 ** 6).map(str),
    "tokens_cheap": st.integers(0, 10 ** 6).map(str),
    "note": st.text(max_size=3),
}
_BAD_CELLS = st.sampled_from(["", "1.5", "-1", "nan", "inf", "abc", "1_000", " 7 ", "0.5", "é"])


@st.composite
def csv_file(draw):
    extra = draw(st.lists(st.sampled_from(sorted(_CSV_CELLS)), max_size=5))
    header = draw(st.permutations(["id", "uncertainty"] + extra))
    if draw(st.integers(0, 19)) == 0:
        header = header[1:]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            buffer.write("\n")
            continue
        width = len(header) + draw(st.sampled_from([0] * 8 + [-1, 1]))
        writer.writerow([
            draw(_BAD_CELLS if i >= len(header) or draw(st.integers(0, 11)) == 0 else _CSV_CELLS[header[i]])
            for i in range(max(width, 0))
        ])
    return buffer.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_file())
def test_csv_loader_matches_reference(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text, encoding="utf-8")
    assert outcome(load_records, path) == outcome(read_records_csv_reference, path)


def test_record_to_dict_drops_missing_fields():
    d = record_to_dict({"id": "a", "uncertainty": 0.5, "loss": None})
    assert d == {"id": "a", "uncertainty": 0.5}
    d = record_to_dict({"id": "a", "uncertainty": 0.5, "thinking_embedding": (1.0,)})
    assert d["thinking_embedding"] == [1.0]


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json({"x": 1}, path)
    assert json.loads(path.read_text()) == {"x": 1}
    assert path.read_text().endswith("\n")
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text("old", path)
    atomic_write_text("new", path)
    assert path.read_text() == "new"


def test_atomic_write_joins_a_list_of_chunks(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(["ab", "", "c\n", "ü日"], path)
    assert path.read_text(encoding="utf-8") == "abc\nü日"
    atomic_write_text([], path)
    assert path.read_text() == ""
    assert list(tmp_path.iterdir()) == [path]


def test_concurrent_atomic_writes_do_not_collide(tmp_path):
    # more writers than cores, switching often: a shared temp name fails here
    path = tmp_path / "out.txt"
    texts = [f"writer {w}\n" * 2000 for w in range(4)]
    errors = []

    def writer(text):
        try:
            for _ in range(150):
                atomic_write_text(text, path)
        except Exception as exc:  # collected so the main thread can assert
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_text() in texts
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_failure_leaves_target_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text("old", path)
    with pytest.raises(TypeError):
        atomic_write_text(None, path)
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def test_atomic_write_keeps_the_usual_file_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    path = tmp_path / "out.txt"
    atomic_write_text("x", path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_atomic_write_follows_the_umask_at_write_time(tmp_path):
    old = os.umask(0o077)
    try:
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        path = tmp_path / "out.txt"
        atomic_write_text("x", path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o600


def test_importing_io_leaves_the_umask_alone(monkeypatch):
    def umask(mask):
        raise AssertionError("importing pac_route.io changed the process umask")

    saved = dict(vars(pac_route.io))
    monkeypatch.setattr(os, "umask", umask)
    try:
        importlib.reload(pac_route.io)
    finally:
        # the other modules hold the original functions; keep them the module's own
        vars(pac_route.io).update(saved)


def test_a_staged_name_that_exists_is_never_overwritten(tmp_path, monkeypatch):
    monkeypatch.setattr(pac_route.io.os, "urandom", lambda n: bytes(range(n)))
    path = tmp_path / "out.txt"
    path.write_text("old")
    taken = tmp_path / f".out.txt.{bytes(range(8)).hex()}"
    taken.write_text("someone else's")
    with pytest.raises(OSError) as info:
        atomic_write_text("new", path)
    assert info.value.filename == str(path)
    assert path.read_text() == "old" and taken.read_text() == "someone else's"
    assert sorted(tmp_path.iterdir()) == sorted([path, taken])
