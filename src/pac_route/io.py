"""Reading record files into columns and writing outputs atomically.

Records travel as JSONL (one object per line, embeddings as arrays) or CSV
(header row, no embedding columns).  `load_records` reads a file straight
into a :class:`~pac_route.records.RecordColumns`, with no object per line;
this module checks only the syntax and the CSV cells, and the columns check
every field under the rules rows built in memory follow too.  The first bad
row, a syntax error, a line that is not UTF-8 or a bad value, is reported
with its `path:line`.  Fields we do not know are ignored and counted, so
callers can surface a warning.
`load_json`, `json_field`, `json_object` and `json_list` read policy and
spec files, checking only their JSON shape: that a field is present and that
an object or an array is one.  Every value in them is checked by the class it
builds, as a value built in memory is.
Outputs are staged in a temporary sibling, made as `open()` makes a file,
under the umask in force, and renamed into place, so a failed run never
leaves a partial file and two runs writing one path each leave it whole;
`atomic_write_texts` stages every output before renaming any: all or none.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import re
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .parallel import cut
from .records import RECORD_FIELDS, _EMBEDDING_FIELDS, _TOKEN_FIELDS, LossSpec, RecordColumns, _move_rows

# CSV has no embedding columns; float and integer cells are converted, the rest stay strings
_FLOAT_FIELDS = ("uncertainty", "loss")
# lines parsed before their fields are moved into columns; bounds the memory
# held by per-line dicts
_BLOCK = 8192
# a `}` and a `{` joined by a comma: where a line may end one object and start another
_SEAM = re.compile(r"\}\s*,\s*\{")


def json_object(value, what: str) -> dict:
    """`value` itself if it is a JSON object, else a ValueError naming `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_list(value) -> list:
    """`value` itself if it is a JSON array, else a TypeError."""
    if type(value) is not list:
        raise TypeError(f"must be an array, got {value!r}")
    return value


def json_field(data: dict, name: str, shape=None):
    """data[name], or shape(data[name]) when a shape check is given; a missing
    field, or a TypeError or ValueError from the check, is a ValueError that
    names the field."""
    if name not in data:
        raise ValueError(f"field {name!r} is missing")
    try:
        return data[name] if shape is None else shape(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def load_json(path):
    """The JSON value in `path`; a value nested too deeply to parse is a
    ValueError, as a syntax error is."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(str(exc)) from exc


def _parse_block(block: list[str]) -> list | None:
    """The rows of `block`, parsed as one JSON array of its lines, or None when
    that parse cannot show each line to hold exactly one object: a blank line,
    a `}, {` seam inside a line (where a line could hold two objects, or two
    lines share one), a syntax error, or an item count or type that is off."""
    if not _SEAM.search("".join(block)):
        # a blank line fails the parse (an empty item) or the count (an all-blank block)
        with contextlib.suppress(ValueError, RecursionError):
            rows = json.loads("[" + ",".join(block) + "]")
            if len(rows) == len(block) and all(type(row) is dict for row in rows):
                return rows
    return None


def _parse_lines(block: list[str], first: int, path) -> tuple[list[dict], list[int], str | None]:
    """The rows of `block`, whose first line is line `first` of `path`, parsed
    one line at a time, with their line numbers and the error at the first bad
    line, which ends the block (None if there is none); blank lines are skipped."""
    rows, lines = [], []
    for lineno, line in enumerate(block, start=first):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:
            return rows, lines, f"{path}:{lineno}: {exc}"
        if not isinstance(row, dict):
            return rows, lines, f"{path}:{lineno}: each line must be a JSON object"
        rows.append(row)
        lines.append(lineno)
    return rows, lines, None


def _read_jsonl(fh, path, end: str | None) -> tuple[dict, list[int], str | None, int]:
    """The record columns of the lines of `fh`, read from `path`, before they
    are checked; their line numbers; the error that stopped reading after the
    last of them, `end` (None when the lines end with the file) if nothing
    did; and the number of unknown fields skipped."""
    raw: dict[str, list | None] = {**dict.fromkeys(RECORD_FIELDS), "id": []}
    lines: list[int] = []
    ignored = 0
    failure = None
    first = 1
    while failure is None and (block := list(islice(fh, _BLOCK))):
        rows = _parse_block(block)
        if rows is None:
            rows, numbers, failure = _parse_lines(block, first, path)
        else:
            numbers = range(first, first + len(block))
        ignored += _move_rows(rows, raw)
        lines += numbers
        first += len(block)
    return raw, lines, failure or end, ignored


def _read_csv(fh, path, end: str | None) -> tuple[dict, list[int], str | None, int]:
    """As `_read_jsonl`, for CSV lines."""
    header, rows, lines = [], [], []  # header stays [] when a syntax error stops line 1
    long_rows = 0
    stop = end  # the error after the last row kept: `end`, a CSV syntax error, or a bad cell below
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(end or f"{path}: missing CSV header row")
        present = set(header) & set(_EMBEDDING_FIELDS)
        if present:
            raise ValueError(
                f"{path}: embedding columns {sorted(present)} are not supported in CSV; use JSONL"
            )
        twice = [name for i, name in enumerate(header) if name in RECORD_FIELDS and name in header[:i]]
        if twice:
            raise ValueError(f"{path}:1: the header names field {twice[0]!r} more than once")
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            long_rows += len(row) > width
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:  # such as a cell over the field size limit
        stop = f"{path}:{reader.line_num}: {exc}"
    # every row has a cell under each header column (short rows are padded);
    # cells beyond the header count as one more unknown field
    ignored = len(rows) * sum(name not in RECORD_FIELDS for name in header) + long_rows
    column_of = {name: i for i, name in enumerate(header)}
    raw: dict[str, list | None] = {"id": [None] * len(rows)}
    failure = None  # (row, header position, message) of the first bad cell
    for name in RECORD_FIELDS:
        if name not in column_of:
            raw.setdefault(name, None)
            continue
        convert = float if name in _FLOAT_FIELDS else int if name in _TOKEN_FIELDS else str
        cells = list(map(itemgetter(column_of[name]), rows))
        if "" not in cells:  # one map for the column; an empty or a bad cell takes the loop below
            with contextlib.suppress(ValueError):
                raw[name] = cells if convert is str else list(map(convert, cells))
                continue
        raw[name] = column = []
        try:
            # extend keeps the cells converted before a failing one
            column += (None if cell == "" else convert(cell) for cell in cells)
        except ValueError as exc:
            error = (len(column), column_of[name], f"field {name!r}: {exc}")
            failure = error if failure is None else min(failure, error)
    if failure is not None:
        row = failure[0]
        for column in filter(None, raw.values()):
            del column[row:]
        stop, lines = f"{path}:{lines[row]}: {failure[2]}", lines[:row]
    return raw, lines, stop, ignored


def _format(path, fmt: str | None) -> str:
    """`fmt`, or the format the extension of `path` names: csv for .csv, else jsonl."""
    if fmt is None:
        return "csv" if Path(path).suffix.lower() == ".csv" else "jsonl"
    return fmt


def _open(path, fmt: str, span: tuple[int, int] | None, errors: str = "strict"):
    """`path` as UTF-8 text in format `fmt`, or only its bytes [start, end)
    when a span is given, a later CSV span led by the file's header line.
    The file's own leading byte-order mark is dropped; one that starts a
    later span is a character of its first line."""
    newline = "" if fmt == "csv" else None
    if span is None:
        return open(path, encoding="utf-8-sig", newline=newline, errors=errors)
    start, end = span
    with open(path, "rb") as fh:
        data = fh.readline() if fmt == "csv" and start > 0 else b""
        fh.seek(start)
        data += fh.read(end - start)
    at_file_start = start == 0 or fmt == "csv"
    return io.TextIOWrapper(io.BytesIO(data), "utf-8-sig" if at_file_start else "utf-8", errors, newline)


def _csv_cuttable(fh) -> bool:
    """Whether the CSV file open in binary as `fh` holds no `"` byte and no carriage return inside its first line."""
    if b"\r" in fh.readline().removesuffix(b"\r\n"):
        return False
    fh.seek(0)
    return not any(b'"' in chunk for chunk in iter(lambda: fh.read(1 << 20), b""))


def record_spans(path, fmt: str | None, floor: int) -> list[tuple[int, int] | None]:
    """The byte spans [start, end) of the records file `path` that can be read
    apart, one per CPU this process may run on and none under `floor` bytes
    (`parallel.cut`), each moved to start just after the first newline byte at
    or after its own start, so that it holds whole lines.  A CSV span after the
    first is read behind the file's header line (`_open`), so a CSV file is cut
    only when no newline can sit inside a cell or the header: one with a `"`
    byte, or a carriage return inside its first line, is one span, None, as is
    a file too small for two spans or one that cannot be opened."""
    try:
        with open(path, "rb") as fh:
            blocks = cut(os.fstat(fh.fileno()).st_size, floor)
            if len(blocks) > 1 and _format(path, fmt) == "csv" and not _csv_cuttable(fh):
                return [None]
            end, starts = blocks[-1].stop, [0]
            for block in blocks[1:]:
                fh.seek(block.start - 1)
                fh.readline()  # to just past the first newline at or after the seek, or to the end
                if starts[-1] < (start := fh.tell()) < end:  # a line longer than a block moves two starts to one newline
                    starts.append(start)
    except OSError:
        return [None]
    return list(zip(starts, starts[1:] + [end])) if len(starts) > 1 else [None]


def load_records(path, fmt: str | None = None, spec: LossSpec | None = None,
                 span: tuple[int, int] | None = None) -> tuple[RecordColumns, int]:
    """Load the records of `path` as columns, their losses resolved by `spec`
    if one is given, with the number of unknown fields skipped; format from
    the flag or the file extension.  The earliest bad row raises: a bad value
    (a LossError for a loss that does not resolve), a syntax error, or the
    first line that is not UTF-8, after which the rows before it are read
    again and checked.  Given a `span` from `record_spans`, only its lines
    are read (a CSV span behind the header line), and their line numbers
    count from its first line."""
    fmt = _format(path, fmt)
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown records format {fmt!r}")
    read = _read_csv if fmt == "csv" else _read_jsonl
    try:
        with _open(path, fmt, span) as fh:
            raw, lines, failure, ignored = read(fh, path, None)
    except UnicodeDecodeError:
        with _open(path, fmt, span, "surrogateescape") as fh:
            for good, line in enumerate(fh):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    end = f"{path}:{good + 1}: {exc}"
                    break
            fh.seek(0)
            raw, lines, failure, ignored = read(islice(fh, good), path, end)
    columns = RecordColumns(**raw, source=os.fspath(path), lines=np.array(lines, dtype=np.int64), spec=spec)
    if failure is not None:  # it stopped reading after the last row, so any bad row came first
        raise ValueError(failure)
    return columns, ignored


def atomic_write_text(text: str | list[str], path) -> None:
    """Write `text`, or the concatenation of a list of chunks, to a fresh
    temporary file beside `path`, fsync it, and rename it into place.  Each
    call has its own temporary file, so concurrent writers never collide; the
    last rename wins whole."""
    atomic_write_texts([(text, path)])


def atomic_write_texts(outputs) -> None:
    """atomic_write_text of every (text, path) in `outputs`, all or none.

    Every text is written and fsynced to its own temporary file before any is
    renamed into place, and no rename starts while a path is a directory; a
    failure removes every temporary file, so no path changes unless all of
    them could be written.  An OSError names the output path it concerns.
    """
    staged: list[tuple[str, str]] = []
    path = None
    try:
        for text, path in outputs:
            path = os.fspath(path)
            tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with open(fd, "w", encoding="utf-8") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
                fh.flush()
                os.fsync(fh.fileno())
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def render_json(data) -> str:
    """`data` as the JSON text every output file holds: indented, one final newline."""
    return json.dumps(data, indent=2) + "\n"


def atomic_write_json(data, path) -> None:
    atomic_write_text(render_json(data), path)


__all__ = [
    "json_object",
    "json_list",
    "json_field",
    "load_json",
    "load_records",
    "record_spans",
    "atomic_write_text",
    "atomic_write_texts",
    "atomic_write_json",
    "render_json",
]
