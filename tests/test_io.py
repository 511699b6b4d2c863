import json
import stat
import sys
import threading

import pytest

from pac_route.io import (
    atomic_write_json,
    atomic_write_text,
    load_records,
    read_records_csv,
    read_records_jsonl,
    record_to_dict,
    write_records_jsonl,
)
from pac_route.records import Record


def test_jsonl_round_trip(tmp_path):
    records = [
        Record(id="a", uncertainty=0.2, group_label="math", loss=0.5,
               thinking_answer="4", cheap_answer="7", gold_answer="4",
               thinking_embedding=(1.0, 0.0), cheap_embedding=(0.5, 0.5),
               tokens_thinking=120, tokens_cheap=9),
        Record(id="b", uncertainty=0.9),
    ]
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    back, ignored = read_records_jsonl(path)
    assert back == records
    assert ignored == 0


def test_jsonl_skips_blank_lines_and_counts_unknown_fields(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"id": "a", "uncertainty": 0.1, "mystery": 1, "extra": "x"}\n'
        "\n"
        '{"id": "b", "uncertainty": 0.2}\n'
    )
    records, ignored = read_records_jsonl(path)
    assert [r.id for r in records] == ["a", "b"]
    assert ignored == 2


def test_jsonl_rejects_non_object_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError):
        read_records_jsonl(path)


def test_jsonl_requires_id_and_uncertainty(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(ValueError) as info:
        read_records_jsonl(path)
    assert "uncertainty" in str(info.value)


def test_csv_reading_with_blanks(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "id,uncertainty,group_label,loss,tokens_thinking,tokens_cheap\n"
        "a,0.25,math,0.5,100,10\n"
        "b,0.75,,,,\n"
    )
    records, ignored = read_records_csv(path)
    assert ignored == 0
    assert records[0].loss == 0.5
    assert records[0].tokens_thinking == 100
    assert records[1].group_label is None
    assert records[1].loss is None


def test_csv_rejects_embedding_columns(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("id,uncertainty,thinking_embedding\na,0.5,1.0\n")
    with pytest.raises(ValueError) as info:
        read_records_csv(path)
    assert "JSONL" in str(info.value)


def test_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_records_csv(path)


def test_load_records_detects_format(tmp_path):
    jl = tmp_path / "r.jsonl"
    jl.write_text('{"id": "a", "uncertainty": 0.5}\n')
    cv = tmp_path / "r.csv"
    cv.write_text("id,uncertainty\na,0.5\n")
    assert load_records(jl)[0][0].id == "a"
    assert load_records(cv)[0][0].id == "a"
    # explicit format wins over the extension
    odd = tmp_path / "r.data"
    odd.write_text("id,uncertainty\nb,0.5\n")
    assert load_records(odd, "csv")[0][0].id == "b"
    with pytest.raises(ValueError):
        load_records(jl, "parquet")


def test_record_to_dict_drops_missing_fields():
    d = record_to_dict(Record(id="a", uncertainty=0.5))
    assert d == {"id": "a", "uncertainty": 0.5}
    d = record_to_dict(Record(id="a", uncertainty=0.5, thinking_embedding=(1.0,)))
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
