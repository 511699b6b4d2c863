import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pac_route.io import load_records
from pac_route.records import (
    LOSS_KINDS,
    LOSS_SOURCES,
    NO_LABEL,
    RECORD_FIELDS,
    LossError,
    LossSpec,
    RecordColumns,
    RecordTable,
    binary_loss,
    cosine_loss,
    resolve_loss,
)


def make_record(**kw):
    return {"id": "r1", "uncertainty": 0.5, **kw}


def resolve(record, spec):
    """resolve_loss on the record's fields that `spec` reads."""
    return resolve_loss(tuple(record.get(name) for name in LOSS_SOURCES[spec.kind]), spec)


def test_record_accepts_boundary_uncertainty():
    rows = [make_record(uncertainty=0.0), make_record(id="r2", uncertainty=1.0)]
    assert RecordColumns.from_records(rows).uncertainty.tolist() == [0.0, 1.0]


def test_record_rejects_bad_uncertainty():
    for u in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError, match=r"^record r1: uncertainty .* outside \[0, 1\]"):
            RecordTable.from_records([make_record(uncertainty=u, loss=0.0)], LossSpec())


def test_record_rejects_empty_id():
    with pytest.raises(ValueError, match="id must be a non-empty string"):
        RecordTable.from_records([make_record(id="", loss=0.0)], LossSpec())


def test_record_rejects_negative_tokens():
    with pytest.raises(ValueError, match="^record r1: tokens_thinking must be non-negative"):
        RecordTable.from_records([make_record(loss=0.0, tokens_thinking=-1)], LossSpec())


def test_embeddings_coerced_to_tuples():
    rows = [make_record(thinking_embedding=[1, 2.0], cheap_embedding=(0.5, 0.5))]
    columns = RecordColumns.from_records(rows)
    assert columns.thinking_embedding == [(1.0, 2.0)]
    assert type(columns.thinking_embedding[0][0]) is float
    assert isinstance(columns.cheap_embedding[0], tuple)


@pytest.mark.parametrize("field, value", [
    ("uncertainty", "0.5"),
    ("uncertainty", True),
    ("tokens_thinking", 1.5),
    ("tokens_thinking", True),
    ("group_label", 3),
    ("loss", "0.2"),
    ("thinking_embedding", 5),
    ("id", np.str_("bad")),
    ("note", "x"),
])
def test_rows_from_memory_follow_the_jsonl_rules(field, value):
    good = make_record(loss=0.2, tokens_thinking=10)
    bad = {**good, "id": "bad", field: value}
    with pytest.raises(ValueError, match="^record bad: "):
        RecordTable.from_records([good, bad, good], LossSpec())


def test_rows_may_carry_numpy_scalars():
    row = make_record(uncertainty=np.float64(0.25), loss=np.float32(0.5),
                      tokens_thinking=np.int64(7), tokens_cheap=np.int32(1))
    table = RecordTable.from_records([row], LossSpec())
    assert table.uncertainty.tolist() == [0.25] and table.loss.tolist() == [0.5]
    assert table.tokens_thinking.tolist() == [7.0] and table.tokens_cheap.tolist() == [1.0]
    for field, value in (("uncertainty", np.bool_(True)), ("tokens_cheap", np.float64(1.0))):
        with pytest.raises(ValueError, match=f"^record r1: field '{field}'"):
            RecordTable.from_records([{**row, field: value}], LossSpec())


def test_earlier_bad_value_wins_over_a_later_unknown_field():
    rows = [make_record(id="a"), make_record(id="b", uncertainty=2.0), make_record(id="c", note=1)]
    with pytest.raises(ValueError, match=r"^record b: uncertainty 2.0 outside"):
        RecordColumns.from_records(rows)
    with pytest.raises(ValueError, match="^record c: unknown field 'note'"):
        RecordColumns.from_records([rows[0], rows[2], rows[1]])


@pytest.mark.parametrize("rows, message", [
    ([make_record(id="a"), make_record(id="b", uncertainty=np.array([0.1, 0.2]))],
     "record b: field 'uncertainty': must be a number"),
    ([make_record(id="a"), make_record(id="b", thinking_embedding=np.array([0.1, 0.2]))],
     "record b: field 'thinking_embedding': an embedding must be an array of numbers"),
    ([make_record(id="a", uncertainty=2.0), make_record(id="b", uncertainty=np.array([0.1, 0.2]))],
     r"record a: uncertainty 2.0 outside \[0, 1\]"),
    ([make_record(id="a"), make_record(id="b", group_label=np.array([None], dtype=object))],
     r"record b: field 'group_label' must be a string, got array\(\[None\], dtype=object\)"),
], ids=["array uncertainty", "array embedding after missing", "earlier row wins", "array equal to None"])
def test_numpy_arrays_in_rows_are_bad_values_of_their_row(rows, message):
    """None is found by identity: an array value, even one that == calls equal
    to None, is a bad value named by its row, and an earlier bad row still wins."""
    with pytest.raises(ValueError, match=f"^{message}"):
        RecordColumns.from_records(rows)


def _missing_columns_cases():
    def rows(n, **at_row_2):
        out = [make_record(id=f"r{i}") for i in range(n)]
        if n > 2:
            out[2].update(at_row_2)
        return out

    return {
        "none": [],
        "one": rows(1),
        "many": rows(1000),
        "bad uncertainty": rows(5, uncertainty=1.5),
        "token after missing": rows(5, tokens_cheap=1.5),
        "bool token after missing": rows(5, tokens_thinking=True),
        "label after missing": rows(5, group_label=3),
        "answer after missing": rows(5, gold_answer=["x"]),
        "loss after missing": rows(5, loss="0.2"),
        "embedding after missing": rows(5, cheap_embedding=5),
        "good values after missing": rows(5, tokens_cheap=4, group_label="g", thinking_embedding=[1]),
    }


@pytest.mark.parametrize("case", sorted(_missing_columns_cases()))
def test_missing_columns_convert_as_when_scanned(case):
    """A field no row holds skips its per-row work; the full scan it skips
    (forced here by passing its column of None as a list) gives the same
    columns and the same error."""
    rows = _missing_columns_cases()[case]

    def build(make):
        try:
            return make()
        except ValueError as exc:
            return str(exc)

    fast = build(lambda: RecordColumns.from_records(rows))
    scanned = build(lambda: RecordColumns(**{name: [row.get(name) for row in rows] for name in RECORD_FIELDS}))
    if isinstance(scanned, str):
        assert fast == scanned
        return
    for name in RECORD_FIELDS:
        got, want = getattr(fast, name), getattr(scanned, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want
    if case == "many":
        assert np.isnan(fast.tokens_thinking).all() and fast.group_label == [None] * 1000


def test_binary_loss_penalizes_only_fixable_mistakes():
    # loss 1 iff cheap is wrong while thinking is right
    assert binary_loss("4", "7", "4") == 1.0
    assert binary_loss("4", "4", "4") == 0.0
    assert binary_loss("7", "7", "4") == 0.0  # both wrong
    assert binary_loss("7", "4", "4") == 0.0  # cheap right, thinking wrong


def test_binary_loss_trims_whitespace():
    assert binary_loss(" 4 ", "4\n", "4") == 0.0
    assert binary_loss("4", "  7", " 4 ") == 1.0


def test_binary_loss_rejects_blank_answers():
    with pytest.raises(ValueError):
        binary_loss("4", "   ", "4")


def test_cosine_loss_oracle():
    # 1 - cos(45 deg) for (1,0) vs (1,1)
    assert abs(cosine_loss((1.0, 0.0), (1.0, 1.0)) - 0.29289321881345254) < 1e-12


def test_cosine_loss_identical_and_opposite():
    assert abs(cosine_loss((3.0, 4.0), (3.0, 4.0))) < 1e-12
    assert abs(cosine_loss((1.0, 0.0), (-1.0, 0.0)) - 2.0) < 1e-12


def test_cosine_loss_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cosine_loss((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        cosine_loss((1.0,), (1.0, 0.0))


def test_default_loss_spec_bounds():
    assert LossSpec().bound_B == 1.0
    assert LossSpec("binary").bound_B == 1.0
    assert LossSpec("cosine").bound_B == 2.0
    assert LossSpec("precomputed").bound_B == 1.0
    assert LossSpec("cosine", 0.5).bound_B == 0.5


def test_loss_bound_is_kept_as_a_float():
    for spec in (LossSpec(bound_B=2), LossSpec("cosine", 2), LossSpec("binary", 1)):
        assert type(spec.bound_B) is float
    assert LossSpec(bound_B=2) == LossSpec(bound_B=2.0)
    table = RecordTable(**table_columns(bound_B=2))
    assert type(table.bound_B) is float and table.bound_B == 2.0
    assert type(RecordTable.from_records([make_record(loss=0.5)], LossSpec(bound_B=3)).bound_B) is float


def test_loss_spec_rejects_binary_with_other_bound():
    with pytest.raises(ValueError):
        LossSpec(kind="binary", bound_B=2.0)
    with pytest.raises(ValueError):
        LossSpec(kind="nonsense", bound_B=1.0)


def test_resolve_loss_precomputed_path():
    r = make_record(loss=0.25)
    out = resolve(r, LossSpec(kind="precomputed", bound_B=1.0))
    assert isinstance(out, float)
    assert out == 0.25


def test_resolve_loss_binary_path():
    r = make_record(thinking_answer="4", cheap_answer="7", gold_answer="4")
    assert resolve(r, LossSpec("binary")) == 1.0


def test_resolve_loss_cosine_path():
    r = make_record(thinking_embedding=(1.0, 0.0), cheap_embedding=(1.0, 1.0))
    out = resolve(r, LossSpec("cosine"))
    assert abs(out - (1.0 - math.sqrt(0.5))) < 1e-12


def test_resolve_loss_flags_missing_ingredients():
    with pytest.raises(ValueError):
        resolve(make_record(), LossSpec(kind="precomputed", bound_B=1.0))
    with pytest.raises(ValueError):
        resolve(make_record(), LossSpec("binary"))
    with pytest.raises(ValueError):
        resolve(make_record(), LossSpec("cosine"))


def test_resolve_loss_enforces_bound_and_names_record():
    r = make_record(id="r77", loss=1.5)
    with pytest.raises(ValueError):
        resolve(r, LossSpec(kind="precomputed", bound_B=1.0))
    with pytest.raises(ValueError) as info:
        RecordTable.from_records([make_record(id="r1", loss=0.5), r], LossSpec())
    assert "record r77" in str(info.value)


def test_loss_too_large_for_a_float_is_a_value_error_naming_its_record():
    huge = 10 ** 400
    with pytest.raises(ValueError, match="field 'loss': int too large to convert to float"):
        resolve(make_record(loss=huge), LossSpec())
    rows = [make_record(id="r1", loss=0.5), make_record(id="r2", loss=huge)]
    with pytest.raises(ValueError, match="^record r2: field 'loss': int too large"):
        RecordTable.from_records(rows, LossSpec())
    # an earlier bad row still wins
    rows.insert(0, make_record(id="r0", loss=1.5))
    with pytest.raises(ValueError, match="^record r0: loss 1.5 outside"):
        RecordTable.from_records(rows, LossSpec())


def test_resolved_record_rejects_non_finite_loss():
    for loss in (math.inf, math.nan):
        with pytest.raises(ValueError):
            resolve(make_record(loss=loss), LossSpec(kind="precomputed", bound_B=1.0))


def test_a_bad_loss_is_a_loss_error_of_the_first_bad_row():
    rows = [make_record(id="a", loss=1.5), make_record(id="b", loss=0.0), make_record(id="c", uncertainty=1.5)]
    with pytest.raises(LossError, match=r"^record a: loss 1.5 outside \[0, 1.0\]$"):
        RecordColumns.from_records(rows, LossSpec())
    # within one row, every other check comes first
    rows[0]["tokens_cheap"] = -1
    with pytest.raises(ValueError, match="^record a: tokens_cheap must be non-negative") as info:
        RecordColumns.from_records(rows, LossSpec())
    assert type(info.value) is ValueError
    # the columns resolve no loss without a spec, and a table needs one
    columns = RecordColumns.from_records(rows[1:2])
    assert columns.loss == [0.0]
    with pytest.raises(ValueError, match="without a loss spec"):
        RecordTable.from_columns(columns)


# Loss values for the oracle below: None, in and out of range, NaN, infinite,
# too large for a float, and (in memory only) numpy scalars.
_LOSS = st.one_of(st.none(), st.floats(0.0, 1.0), st.floats(), st.integers(-2, 3),
                  st.integers(10 ** 308, 10 ** 400), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1.5]))
_NUMPY_LOSS = st.one_of(st.floats(-0.5, 1.5).map(np.float64), st.floats(0.0, 1.0, width=32).map(np.float32),
                        st.integers(-1, 2).map(np.int64), st.integers(0, 1).map(np.int32))
# answers drawn from few characters, so that they often agree once trimmed;
# form feed, no-break space and NUL test what str.strip removes and keeps
_ANSWER = st.one_of(st.none(), st.text(st.sampled_from(["4", "7", " ", "\t", "\x0c", "\u00a0", "\x00"]), max_size=3))
_EMBEDDING = st.one_of(st.none(), st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e200]), max_size=3))


@st.composite
def _loss_rows(draw, kind: str, numpy: bool):
    values = {"precomputed": {"loss": st.one_of(_LOSS, _NUMPY_LOSS) if numpy else _LOSS},
              "binary": dict.fromkeys(LOSS_SOURCES["binary"], _ANSWER),
              "cosine": dict.fromkeys(LOSS_SOURCES["cosine"], _EMBEDDING)}[kind]
    rows = []
    for i in range(draw(st.integers(0, 6))):
        row = {"id": f"r{i}", "uncertainty": draw(st.floats(0.0, 1.0))}
        # a field left out is missing, as one given as None is
        row.update({name: draw(value) for name, value in values.items() if draw(st.integers(0, 7))})
        rows.append(row)
    return rows


@pytest.mark.parametrize("source", ["memory", "jsonl"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loss_column_matches_resolve_loss_row_by_row(tmp_path, kind, source, data):
    """The loss column the columns resolve is resolve_loss of each row; where
    a row's loss does not resolve, the first such row raises resolve_loss's
    message as a LossError, from a file as from memory."""
    spec = LossSpec(kind, data.draw(st.sampled_from([None, 0.5, 3.0])) if kind != "binary" else None)
    rows = data.draw(_loss_rows(kind, source == "memory"))
    expected = []
    for i, row in enumerate(rows):
        try:
            expected.append(resolve_loss(tuple(row.get(name) for name in LOSS_SOURCES[kind]), spec))
        except ValueError as exc:
            origin = f"record r{i}" if source == "memory" else f"{tmp_path / 'r.jsonl'}:{i + 1}"
            expected = f"{origin}: {exc}"
            break
    try:
        if source == "memory":
            columns = RecordColumns.from_records(rows, spec)
        else:
            path = tmp_path / "r.jsonl"
            path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            columns, _ = load_records(path, spec=spec)
    except LossError as exc:
        assert str(exc) == expected
    else:
        assert columns.loss.dtype == float and columns.loss.tolist() == expected
        assert RecordTable.from_columns(columns).loss.tolist() == expected


# ----------------------------------------------------------- record table


def resolved(i, u, loss, label=None, tt=None, tc=None):
    return dict(id=f"r{i}", uncertainty=u, loss=loss, group_label=label,
                tokens_thinking=tt, tokens_cheap=tc)


def test_table_from_records_keeps_every_field():
    records = [resolved(0, 0.2, 1.0, "b", 100, 10), resolved(1, 0.0, 0.0),
               resolved(2, 1.0, 0.5, "a", 300, 0), resolved(3, 0.7, 0.0, "b")]
    table = RecordTable.from_records(records, LossSpec())
    assert len(table) == 4
    assert table.ids.tolist() == ["r0", "r1", "r2", "r3"]
    assert table.uncertainty.tolist() == [0.2, 0.0, 1.0, 0.7]
    assert table.loss.tolist() == [1.0, 0.0, 0.5, 0.0]
    assert table.labels == ("b", "a")  # first-appearance order
    assert table.label_code.tolist() == [0, NO_LABEL, 1, 0]
    assert table.group_labels.tolist() == ["b", None, "a", "b"]
    assert table.tokens_thinking[0] == 100 and table.tokens_cheap[2] == 0
    assert np.isnan(table.tokens_thinking[1]) and np.isnan(table.tokens_cheap[3])


def test_table_take_and_of():
    table = RecordTable.from_records([resolved(i, i / 10, 0.0, "g") for i in range(5)], LossSpec())
    sub = table.take(np.array([4, 0, 4]))
    assert sub.ids.tolist() == ["r4", "r0", "r4"]
    assert sub.uncertainty.tolist() == [0.4, 0.0, 0.4]
    assert sub.labels == table.labels
    assert len(table.take(np.array([], dtype=int))) == 0
    empty = RecordTable.from_records([], LossSpec())
    assert len(empty) == 0 and empty.labels == ()


def test_take_gives_the_columns_of_its_rows():
    rows = [resolved(i, i / 10, float(i % 2), [None, "a", "b"][i % 3], 10 * i if i % 4 else None, i)
            for i in range(6)]
    table = RecordTable.from_records(rows, LossSpec())
    idx = np.array([5, 0, 3, 3, 1])
    sub = table.take(idx)
    built = RecordTable.from_records([rows[i] for i in idx], LossSpec())
    for name in ("ids", "uncertainty", "loss", "group_labels", "tokens_thinking", "tokens_cheap"):
        assert getattr(sub, name).dtype == getattr(built, name).dtype
        np.testing.assert_array_equal(getattr(sub, name), getattr(built, name))
    assert sub.labels is table.labels
    for bad in (np.array([[0, 1]]), 2, np.int64(2)):
        with pytest.raises(ValueError, match="1-d"):
            table.take(bad)


def table_columns(**overrides):
    columns = dict(ids=["a", "b"], uncertainty=[0.1, 0.9], loss=[0.0, 1.0],
                   label_code=[0, NO_LABEL], labels=("g",),
                   tokens_thinking=[10, math.nan], tokens_cheap=[1, math.nan])
    columns.update(overrides)
    return columns


@pytest.mark.parametrize("overrides", [
    dict(uncertainty=[0.1, 1.5]),
    dict(uncertainty=[0.1, math.nan]),
    dict(loss=[0.0, math.inf]),
    dict(label_code=[0, 1]),
    dict(label_code=[-2, 0]),
    dict(labels=("g", "g")),
    dict(tokens_cheap=[-1, 0]),
    dict(loss=[0.0]),
    dict(loss=[0.0, 1.5]),
    dict(loss=[0.0, math.nan]),
    dict(loss=[-0.5, 1.0]),
    dict(loss=[0.0, 2.5], bound_B=2.0),
    dict(bound_B=0.0),
    dict(bound_B=math.inf),
    dict(bound_B=math.nan),
    dict(loss_kind="nonsense"),
])
def test_table_rejects_bad_columns(overrides):
    RecordTable(**table_columns())
    with pytest.raises(ValueError):
        RecordTable(**table_columns(**overrides))


def test_table_carries_the_bound_its_losses_were_resolved_under():
    assert RecordTable(**table_columns()).bound_B == 1.0
    assert RecordTable(**table_columns(loss=[0.0, 1.5], bound_B=2.0)).bound_B == 2.0
    rows = [make_record(id=f"r{i}", thinking_embedding=(1.0, 0.0), cheap_embedding=(-1.0, 0.1 * i))
            for i in range(3)]
    table = RecordTable.from_records(rows, LossSpec("cosine"))
    assert table.bound_B == 2.0 and table.loss.max() > 1.0
    assert table.take(np.array([2, 0])).bound_B == 2.0
    assert RecordTable.from_records([make_record(loss=0.5)], LossSpec(bound_B=3.0)).bound_B == 3.0


def test_table_carries_the_kind_its_losses_were_resolved_as():
    assert RecordTable(**table_columns()).loss_kind == "precomputed"
    rows = [make_record(id=f"r{i}", thinking_answer="a", cheap_answer="b", gold_answer="a") for i in range(3)]
    table = RecordTable.from_records(rows, LossSpec("binary"))
    assert table.loss_kind == "binary" and table.take(np.array([2, 0])).loss_kind == "binary"


def test_table_rejects_unresolved_records():
    with pytest.raises(ValueError):
        RecordTable.from_records([make_record(id="r1")], LossSpec())
