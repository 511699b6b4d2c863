"""Reading record files and writing outputs atomically.

Records travel as JSONL (one object per line, embeddings as arrays) or CSV
(header row, no embedding columns).  Fields we do not know are ignored; the
loaders return how many such fields they skipped so callers can surface a
warning; `json_object` and `json_field` check policy and spec files field by
field.  All output files are written to a temporary sibling and renamed
into place, so a failed run never leaves a partial file behind, and two runs
writing one path at once each leave it whole.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

from .records import Record

_RECORD_FIELDS = tuple(f.name for f in fields(Record))
_EMBEDDING_FIELDS = ("thinking_embedding", "cheap_embedding")
_INT_FIELDS = ("tokens_thinking", "tokens_cheap")
_FLOAT_FIELDS = ("uncertainty", "loss")
# mkstemp creates files owner-only; outputs get the mode a plain open() would give
_UMASK = os.umask(0)
os.umask(_UMASK)


def _record_from_mapping(data: dict, source: str) -> tuple[Record, int]:
    known = {}
    unknown = 0
    for key, value in data.items():
        if key in _RECORD_FIELDS:
            known[key] = value
        else:
            unknown += 1
    if "id" not in known or "uncertainty" not in known:
        raise ValueError(f"{source}: record needs at least id and uncertainty")
    try:
        return Record(**known), unknown
    except TypeError as exc:
        raise ValueError(f"{source}: field of the wrong type: {exc}") from exc


def json_object(value, what: str) -> dict:
    """`value` itself if it is a JSON object, else a ValueError naming `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


_REQUIRED = object()


def json_field(data: dict, name: str, convert, default=_REQUIRED):
    """convert(data[name]), or convert(default) when the field is absent and a
    default is given; a TypeError or ValueError from the conversion becomes a
    ValueError that names the field."""
    value = data[name] if default is _REQUIRED else data.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def read_records_jsonl(path) -> tuple[list[Record], int]:
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


def read_records_csv(path) -> tuple[list[Record], int]:
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
        for lineno, row in enumerate(reader, start=2):
            data: dict = {}
            unknown = 0
            for key, raw in row.items():
                if key not in _RECORD_FIELDS:
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


def load_records(path, fmt: str | None = None) -> tuple[list[Record], int]:
    """Load records from `path`; format from the flag or the file extension."""
    if fmt is None:
        fmt = "csv" if Path(path).suffix.lower() == ".csv" else "jsonl"
    if fmt == "csv":
        return read_records_csv(path)
    if fmt == "jsonl":
        return read_records_jsonl(path)
    raise ValueError(f"unknown records format {fmt!r}")


def record_to_dict(record: Record) -> dict:
    data = {}
    for name in _RECORD_FIELDS:
        value = getattr(record, name)
        if value is None:
            continue
        data[name] = list(value) if name in _EMBEDDING_FIELDS else value
    return data


def write_records_jsonl(records, path) -> None:
    atomic_write_text(
        "".join(json.dumps(record_to_dict(r)) + "\n" for r in records), path
    )


def atomic_write_text(text: str, path) -> None:
    """Write `text` to a fresh temporary file beside `path`, fsync it, and
    rename it into place.  Each call has its own temporary file, so concurrent
    writers never collide; the last rename wins whole."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=f".{os.path.basename(path)}.")
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_json(data, path) -> None:
    atomic_write_text(json.dumps(data, indent=2) + "\n", path)


__all__ = [
    "json_object",
    "json_field",
    "read_records_jsonl",
    "read_records_csv",
    "load_records",
    "record_to_dict",
    "write_records_jsonl",
    "atomic_write_text",
    "atomic_write_json",
]
