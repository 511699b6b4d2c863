"""Core record types, the columnar record table and loss functions.

A record describes one input that was answered by both the expensive
"thinking" model and the cheap "non-thinking" model.  The loss of the cheap
route is measured relative to the thinking route and can either be supplied
precomputed, derived from answer strings (binary), or derived from answer
embeddings (cosine distance).

Records arrive as a :class:`RecordColumns`, one list or array per field,
which holds every row rule and checks itself when it is built.  Record files
are read straight into one; rows built in memory, dicts keyed by the JSONL
field names, go through :meth:`RecordColumns.from_records` under the same
rules.  Columns built under a :class:`LossSpec` also resolve every row's loss
as a whole column, and :meth:`RecordTable.from_columns` takes that column into
the table.  The calibration, evaluation and simulation loops take only a
:class:`RecordTable`: resolved records as aligned numpy columns, validated
once when the table is built.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass
from itertools import repeat

import numpy as np

LOSS_KINDS = ("precomputed", "binary", "cosine")
# The fields each loss kind is computed from, in the order resolve_loss takes them.
LOSS_SOURCES = {
    "precomputed": ("loss",),
    "binary": ("thinking_answer", "cheap_answer", "gold_answer"),
    "cosine": ("thinking_embedding", "cheap_embedding"),
}
NO_LABEL = -1


class NoRecordsError(ValueError):
    """There is nothing to work on: no records, or none resolves to a group."""


class MissingTokensError(ValueError):
    """Saved-thinking accounting needs token counts that some record lacks."""


class LossError(ValueError):
    """A record's loss does not resolve under the loss spec."""


@dataclass(frozen=True)
class LossSpec:
    """How to obtain each record's loss and the a-priori bound B on it; B
    defaults to 1, or 2 for cosine loss, which spans [0, 2]."""

    kind: str = "precomputed"
    bound_B: float | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        bound = (2.0 if self.kind == "cosine" else 1.0) if self.bound_B is None else self.bound_B
        object.__setattr__(self, "bound_B", _setting(bound, *_BOUND))
        if self.kind == "binary" and self.bound_B != 1.0:
            raise ValueError("binary loss is {0, 1}; bound B must be 1")


def binary_loss(thinking_answer: str, cheap_answer: str, gold_answer: str) -> float:
    """1 iff the cheap answer misses gold while the thinking answer hits it.

    Answers are compared by exact string equality after trimming surrounding
    whitespace; agreement of the cheap answer with gold, or failure of the
    thinking answer, both give loss 0.
    """
    answers = (thinking_answer, cheap_answer, gold_answer)
    trimmed = tuple(a.strip() if isinstance(a, str) else None for a in answers)
    if any(not t for t in trimmed):
        raise ValueError("binary loss needs non-empty thinking/cheap/gold answers")
    think, cheap, gold = trimmed
    return float(cheap != gold and think == gold)


def cosine_loss(v1, v2) -> float:
    """Cosine distance 1 - <v1, v2> / (|v1| |v2|), in [0, 2]."""
    a = [float(x) for x in v1]
    b = [float(x) for x in v2]
    if len(a) != len(b) or not a:
        raise ValueError("cosine loss needs two non-empty vectors of equal length")
    dot = na = nb = 0.0
    for x, y in zip(a, b):  # left to right on every Python (the builtin sum compensates from 3.12 on)
        dot, na, nb = dot + x * y, na + x * x, nb + y * y
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine loss undefined for zero-norm vectors")
    return 1.0 - dot / (math.sqrt(na) * math.sqrt(nb))


def resolve_loss(sources: tuple, spec: LossSpec) -> float:
    """The loss of one record according to `spec`, checked to lie in [0, B];
    the one-row reference for the loss column `RecordColumns` resolves.

    `sources` holds the record's values of the fields LOSS_SOURCES[spec.kind]:
    precomputed: (loss,), validated against [0, B].
    binary:      the three answer strings.
    cosine:      the two answer embeddings.
    """
    if None in sources:
        raise ValueError(f"{spec.kind} loss needs {', '.join(LOSS_SOURCES[spec.kind])}")
    if spec.kind == "precomputed":
        try:
            value = float(sources[0])
        except OverflowError as exc:
            raise ValueError(f"field 'loss': {exc}") from exc
    elif spec.kind == "binary":
        value = binary_loss(*sources)
    else:
        value = cosine_loss(*sources)
    if not 0.0 <= value <= spec.bound_B:
        raise ValueError(f"loss {value} outside [0, {spec.bound_B}]")
    return value


RECORD_FIELDS = (
    "id", "uncertainty", "group_label", "loss", "thinking_answer", "cheap_answer", "gold_answer",
    "thinking_embedding", "cheap_embedding", "tokens_thinking", "tokens_cheap",
)
_STRING_FIELDS = ("group_label", "thinking_answer", "cheap_answer", "gold_answer")
_EMBEDDING_FIELDS = ("thinking_embedding", "cheap_embedding")
_TOKEN_FIELDS = ("tokens_thinking", "tokens_cheap")
_NONE = type(None)
# (exact types, numpy scalar types, what a value must be, the type a setting
# of the kind is kept as): a JSON number is an int or a float, never a bool;
# JSON never yields the numpy scalars, rows built in memory may
_NUMBER = ((float, int), (np.floating, np.integer), "a number", float)
_INTEGER = ((int,), (np.integer,), "an integer", int)
_STRING = ((str,), (), "a string", str)
_NEEDS = "record needs at least id and uncertainty"
_BOUND = (_NUMBER, lambda bound: 0.0 < bound < math.inf, "loss bound B must be positive and finite")
_COUNT = (_INTEGER, lambda count: count >= 1, "{1} must be at least 1")  # {1}: the count's name
_ANY = lambda value: True  # the range of a setting any value of its kind may take
_SEED = ("seed", _INTEGER, _ANY, "seed must be an integer, got {!r}")  # every config's seed


def _first(column, ok) -> int | None:
    """Index of the first entry of `column` for which `ok` is false."""
    return next((i for i, value in enumerate(column) if not ok(value)), None)


def _of(kind: tuple, value) -> bool:
    return type(value) in kind[0] or isinstance(value, kind[1])


def _setting(value, kind: tuple, ok, message: str, *context):
    """`value` of `kind` (a bool is no number) with ok(value), kept as the kind's type, so a numpy scalar
    becomes a number JSON writes; anything else is a ValueError(message.format(value, *context))."""
    try:
        if _of(kind, value) and ok(setting := kind[3](value)):
            return setting
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(message.format(value, *context))


def _settings(values, kind: tuple, ok, message: str, *context) -> tuple:
    """_setting of each of `values`, as a tuple, where a string, a set (no order to keep) or a non-iterable is itself
    a ValueError; values all of the type a setting is kept as, and in range, come back as they are, after one type
    test."""
    if isinstance(values, (str, bytes, Set)) or not isinstance(values, Iterable):
        raise ValueError(message.format(values, *context))
    values = tuple(values)
    if set(map(type, values)) <= {kind[3]} and all(map(ok, values)):
        return values
    return tuple(_setting(value, kind, ok, message, *context) for value in values)


def _settle(config, rules: tuple, *context) -> None:
    """_setting of each field of `config`, a frozen dataclass, that `rules` names: (field, kind, ok, message)."""
    for name, kind, ok, message in rules:
        object.__setattr__(config, name, _setting(getattr(config, name), kind, ok, message, *context))


def _check_types(errors: list, name: str, column: list, kind: tuple) -> None:
    """Note the first value of `column` but None that is not of `kind`."""
    if not set(map(type, column)) <= {*kind[0], _NONE}:
        bad = _first(column, lambda value: value is None or _of(kind, value))
        if bad is not None:
            errors.append((bad, f"field {name!r} must be {kind[2]}, got {column[bad]!r}"))


def _converted(errors: list, name: str, column: list, convert) -> list:
    """convert(value) of each value but None, up to the first value it rejects."""
    out = [None] * len(column)
    for i, value in enumerate(column):
        try:
            if value is not None:
                out[i] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append((i, f"field {name!r}: {exc}"))
            break
    return out


def _floats(errors: list, name: str, column: list, kind: tuple) -> np.ndarray:
    """`column` as a float array, None as NaN.  The first value not of `kind`,
    or that no float holds, is an error; it and every value after it are NaN."""
    if set(map(type, column)) <= {*kind[0], _NONE}:
        with contextlib.suppress(OverflowError):
            return np.array(column, dtype=float)

    def convert(value) -> float:
        if not _of(kind, value):
            raise TypeError(f"must be {kind[2]}, got {value!r}")
        return float(value)

    return np.array(_converted(errors, name, column, convert), dtype=float)


def _embedding(value) -> tuple[float, ...]:
    if type(value) not in (list, tuple):
        raise TypeError(f"an embedding must be an array of numbers, got {value!r}")
    return tuple(map(float, value))


def _losses(sources: list, spec: LossSpec) -> np.ndarray:
    """The loss of every row, `sources` being the columns LOSS_SOURCES names
    for `spec`, as resolve_loss computes it before its range test, and NaN
    where it raises first.  A value of the wrong type may give NaN too."""
    if spec.kind == "precomputed":
        return _floats([], "loss", sources[0], _NUMBER)
    if spec.kind == "binary":
        # None and anything but a string (a row error of its own) count as blank
        think, cheap, gold = (np.array([a.strip() if isinstance(a, str) else "" for a in column], dtype=object)
                              for column in sources)
        loss = ((cheap != gold) & (think == gold)).astype(float)
        loss[(think == "") | (cheap == "") | (gold == "")] = np.nan
        return loss
    loss = np.full(len(sources[0]), np.nan)
    for i, (a, b) in enumerate(zip(*sources)):
        if a is not None and b is not None:
            with contextlib.suppress(ValueError):
                loss[i] = cosine_loss(a, b)
    return loss


def _move_rows(rows: Sequence[dict], raw: dict[str, list | None]) -> int:
    """Append the fields of `rows` to the columns in `raw`, where a column no
    row has held yet stays None (the id column is always a list); returns the
    number of unknown fields skipped."""
    present = set().union(*rows)
    before = len(raw["id"])
    for name, column in raw.items():
        if name in present and column is None:
            column = raw[name] = [None] * before
        if column is not None:
            column += map(dict.get, rows, repeat(name)) if name in present else repeat(None, len(rows))
    return sum(sum(map(dict.__contains__, rows, repeat(name))) for name in present.difference(raw))


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """Records before their losses are resolved, one column per record field.

    Every column has one entry per record, None where a field is missing; a
    column but id given as None is one no row holds, missing by construction
    and never checked.  Building the columns checks every row rule, converts
    the uncertainty and token columns to float arrays (a missing token count is
    NaN) and the embeddings to float tuples.  Given a loss `spec`, it also
    resolves every row's loss as resolve_loss does and `loss` becomes the float
    array of them; a row whose loss does not resolve is a bad row, its check
    the last of the row's.  The earliest bad row raises a ValueError named by
    its `origin` (within a row, the first check below wins), a LossError when
    it is its loss.  `lines[i]` is the line of `source` row i was read from
    (None for records built in memory).
    """

    id: list
    uncertainty: np.ndarray
    group_label: list
    loss: list | np.ndarray  # the resolved losses, given a spec
    thinking_answer: list
    cheap_answer: list
    gold_answer: list
    thinking_embedding: list
    cheap_embedding: list
    tokens_thinking: np.ndarray
    tokens_cheap: np.ndarray
    source: str = ""
    lines: np.ndarray | None = None
    spec: LossSpec | None = None

    def __post_init__(self):
        errors: list[tuple[int, str]] = []
        ids = self.id
        absent = {name for name in RECORD_FIELDS if getattr(self, name) is None}
        none = [None] * len(ids)  # shared by every absent column
        for name in absent:
            object.__setattr__(self, name, none)
        if not (set(map(type, ids)) <= {str} and all(ids)):
            bad = _first(ids, lambda value: type(value) is str and value)
            errors.append((bad, "id must be a non-empty string" if ids[bad] is not None else _NEEDS))
        if _NONE in set(map(type, self.uncertainty)):
            errors.append((_first(self.uncertainty, lambda value: value is not None), _NEEDS))
        converted = {}
        u = converted["uncertainty"] = _floats(errors, "uncertainty", self.uncertainty, _NUMBER)
        ok = (u >= 0.0) & (u <= 1.0)
        if not ok.all():
            bad = int(np.argmin(ok))
            errors.append((bad, f"uncertainty {u[bad]} outside [0, 1]"))
        for name in _STRING_FIELDS:
            if name not in absent:
                _check_types(errors, name, getattr(self, name), _STRING)
        if "loss" not in absent:
            _check_types(errors, "loss", self.loss, _NUMBER)
        for name in _EMBEDDING_FIELDS:
            if name not in absent:
                converted[name] = _converted(errors, name, getattr(self, name), _embedding)
        for name in _TOKEN_FIELDS:
            tokens = converted[name] = (np.full(len(ids), np.nan) if name in absent
                                        else _floats(errors, name, getattr(self, name), _INTEGER))
            if (tokens < 0).any():
                errors.append((int(np.argmax(tokens < 0)), f"{name} must be non-negative"))
        if self.spec is not None:
            sources = [converted.get(name, getattr(self, name)) for name in LOSS_SOURCES[self.spec.kind]]
            loss = converted["loss"] = _losses(sources, self.spec)
            ok = (loss >= 0.0) & (loss <= self.spec.bound_B)
            if not ok.all():
                errors.append((int(np.argmin(ok)), None))  # resolve_loss says why, below
        if errors:
            row, message = min(errors, key=lambda error: error[0])
            if message is None:
                try:
                    resolve_loss(tuple(column[row] for column in sources), self.spec)
                except ValueError as exc:
                    raise LossError(f"{self.origin(row)}: {exc}") from exc
            raise ValueError(f"{self.origin(row)}: {message}")
        for name, column in converted.items():
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.id)

    def origin(self, i: int) -> str:
        """`path:line` of row i, or `record <id>` for records built in memory."""
        if self.lines is None:
            return f"record {self.id[i]}"
        return f"{self.source}:{self.lines[i]}"

    @classmethod
    def from_records(cls, rows: Sequence[dict], spec: LossSpec | None = None) -> "RecordColumns":
        """The columns of `rows`, dicts keyed by the JSONL field names, under
        the JSONL rules, their losses resolved by `spec` if one is given; a
        field we do not know is a bad value here."""
        raw: dict[str, list | None] = {**dict.fromkeys(RECORD_FIELDS), "id": []}
        if _move_rows(rows, raw):
            bad, unknown = next((i, name) for i, row in enumerate(rows) for name in row if name not in raw)
            cls.from_records(rows[:bad], spec)  # a bad value in an earlier row wins
            raise ValueError(f"record {rows[bad].get('id')}: unknown field {unknown!r}")
        return cls(**raw, spec=spec)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Resolved records as aligned columns, one row per record.

    label_code indexes `labels` (NO_LABEL = no group label); a missing token
    count is NaN.  spec is the loss spec the losses were resolved under:
    every loss lies in [0, spec.bound_B], the Hoeffding bound reads B there,
    and the config hash digests the whole spec.
    The columns are checked once, here, so code reading them needs no
    per-record validation.
    """

    ids: np.ndarray
    uncertainty: np.ndarray
    loss: np.ndarray
    label_code: np.ndarray
    labels: tuple[str, ...]
    tokens_thinking: np.ndarray
    tokens_cheap: np.ndarray
    spec: LossSpec = LossSpec()

    def __post_init__(self):
        n = len(self.ids)
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=object))
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, dtype in (("uncertainty", float), ("loss", float), ("label_code", np.int64),
                            ("tokens_thinking", float), ("tokens_cheap", float)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (n,):
                raise ValueError(f"column {name} must be 1-d with one entry per id")
            object.__setattr__(self, name, column)
        u = self.uncertainty
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ValueError("uncertainties must lie in [0, 1]")
        if not np.all((self.loss >= 0.0) & (self.loss <= self.spec.bound_B)):
            raise ValueError(f"resolved losses must lie in [0, {self.spec.bound_B}]")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("the label vocabulary must not repeat a label")
        if n and not NO_LABEL <= self.label_code.min() <= self.label_code.max() < len(self.labels):
            raise ValueError("label codes must index the label vocabulary")
        if np.any(self.tokens_thinking < 0) or np.any(self.tokens_cheap < 0):
            raise ValueError("token counts must be non-negative")

    @classmethod
    def from_columns(cls, columns: RecordColumns) -> "RecordTable":
        """The rows of `columns`, with the losses they resolved under their
        loss spec; the label vocabulary is in first-appearance order."""
        if columns.spec is None:
            raise ValueError("the columns were built without a loss spec, so they hold no resolved loss")
        vocab: dict[str, int] = {}
        codes = [NO_LABEL if g is None else vocab.setdefault(g, len(vocab)) for g in columns.group_label]
        return cls(
            ids=np.array(columns.id, dtype=object),
            uncertainty=columns.uncertainty,
            loss=columns.loss,
            label_code=codes,
            labels=tuple(vocab),
            tokens_thinking=columns.tokens_thinking,
            tokens_cheap=columns.tokens_cheap,
            spec=columns.spec,
        )

    @classmethod
    def concat(cls, tables: Sequence["RecordTable"]) -> "RecordTable":
        """The rows of `tables` in order, built under one loss spec: the table
        `from_columns` gives for their columns joined, with one label
        vocabulary in first-appearance order and each table's codes remapped
        into it."""
        specs = {table.spec for table in tables}
        if len(specs) != 1:
            raise ValueError(f"tables to join need one loss spec, got {len(specs)}")
        vocab: dict[str, int] = {}
        codes = []
        for table in tables:
            # code NO_LABEL (-1) reads the last entry, which keeps it
            remap = np.array([vocab.setdefault(label, len(vocab)) for label in table.labels] + [NO_LABEL])
            codes.append(remap[table.label_code])
        columns = {name: np.concatenate([getattr(table, name) for table in tables])
                   for name in ("ids", "uncertainty", "loss", "tokens_thinking", "tokens_cheap")}
        return cls(**columns, label_code=np.concatenate(codes), labels=tuple(vocab), spec=specs.pop())

    @classmethod
    def from_records(cls, rows: Sequence[dict], spec: LossSpec) -> "RecordTable":
        """`from_columns` of the columns of `rows`, dicts keyed by the JSONL
        field names, built under `spec`."""
        return cls.from_columns(RecordColumns.from_records(rows, spec))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, idx) -> "RecordTable":
        """The rows at integer positions `idx`, a 1-d array, in that order,
        sharing `labels` and `spec`.  A subset of checked rows keeps every
        table rule, so it is not checked again."""
        if np.ndim(idx) != 1:
            raise ValueError("row positions must be a 1-d array")
        rows = {name: column[idx] for name, column in vars(self).items() if isinstance(column, np.ndarray)}
        table = object.__new__(RecordTable)
        vars(table).update(vars(self), **rows)
        return table


__all__ = [
    "LOSS_KINDS",
    "LOSS_SOURCES",
    "RECORD_FIELDS",
    "NO_LABEL",
    "NoRecordsError",
    "MissingTokensError",
    "LossError",
    "RecordColumns",
    "RecordTable",
    "LossSpec",
    "binary_loss",
    "cosine_loss",
    "resolve_loss",
]
