"""`route` reads and routes a JSONL file in one byte span per CPU: the
decisions, stdout, stderr and exit code must be those of the one-span run,
whatever the CPU count, the cut or the error."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pac_route.cli as cli
from pac_route.calibration import GroupThreshold, LabelAssigner, RoutingPolicy, save_policy
from pac_route.io import record_spans

ROOT = Path(__file__).resolve().parents[1]
POLICY = ROOT / "tests" / "data" / "golden" / "expected" / "policy-gpac.json"
PERFBENCH = ROOT / "perfbench"
FORK = os.fork
READ_WHOLE = cli._read_records
LABELS = ("alpha", "beta", "hard", None, "rare")


def _with_cpus(monkeypatch, cpus: int, floor: int = 512) -> tuple[list, list]:
    """Let route see `cpus` CPUs and cut spans of at least `floor` bytes; count its forks and its
    reads of the whole file, the one-span path that a cut that splits a line would fall back to."""
    forks, whole = [], []

    def counted():
        forks.append(1)
        return FORK()

    def read_whole(*args, **kwargs):
        whole.append(1)
        return READ_WHOLE(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(cli, "_read_records", read_whole)
    monkeypatch.setattr(cli, "_SPAN_MIN", floor)
    return forks, whole


def _line(i: int, **extra) -> str:
    row = {"id": f"r{i:07d}", "uncertainty": (i * 37 % 1000) / 1000}
    if LABELS[i % len(LABELS)] is not None:
        row["group_label"] = LABELS[i % len(LABELS)]
    return json.dumps({**row, **extra})


def _route(records, capsys, *options, policy=POLICY) -> tuple:
    """(exit code, stdout, stderr, decisions bytes or None) of one route run."""
    out = Path(records).with_name("decisions.jsonl")
    if out.exists():
        out.unlink()
    code = cli.main(["route", "--policy", str(policy), "--records", str(records), *options, "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def _same_on_spans(monkeypatch, capsys, records, cpus: int = 3, *options) -> tuple:
    """The run on one CPU, after checking that `cpus` CPUs give the same one; and the number of forks
    and of whole-file reads made on `cpus` CPUs."""
    _with_cpus(monkeypatch, 1)
    alone = _route(records, capsys, *options)
    forks, whole = _with_cpus(monkeypatch, cpus)
    assert _route(records, capsys, *options) == alone
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return alone, len(forks), len(whole)


@pytest.mark.parametrize("cpus", [2, 3, 7, 25])
def test_spans_tile_the_file_and_start_after_a_newline(monkeypatch, tmp_path, cpus):
    _with_cpus(monkeypatch, cpus)
    records = tmp_path / "r.jsonl"
    lines = [_line(i, pad="x" * (i * 7 % 90)) for i in range(300)]
    lines[150] = _line(150, pad="x" * 4000)  # longer than a span: the two starts it holds become one
    for text in ("\n".join(lines[:150]) + "\n", "\n".join(lines) + "\n"):
        records.write_text(text)
        data = records.read_bytes()
        spans = record_spans(records, None, 512)
        assert spans[0][0] == 0 and spans[-1][1] == len(data)
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert all(data[start - 1:start] == b"\n" for start, _ in spans[1:])
        assert len(spans) == min(cpus, len(data) // 512) or len(data) > 4000 and 1 < len(spans) < cpus


@pytest.mark.parametrize("bad, message", [
    ('{"id": "r0000250", "uncertainty": ', "Expecting value"),
    ('{"id": "r0000250", "uncertainty": 1.5}', "uncertainty 1.5 outside [0, 1]"),
    ('{"id": "r0000250", "uncertainty": "0.5"}', "field 'uncertainty': must be a number"),
], ids=["syntax", "out-of-range", "wrong-type"])
def test_an_error_in_a_later_span_reads_as_in_one_span(monkeypatch, capsys, tmp_path, bad, message):
    lines = [_line(i) for i in range(300)]
    lines[250] = bad
    records = tmp_path / "r.jsonl"
    records.write_text("\n".join(lines) + "\n")
    (code, out, err, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records)
    assert (forks, whole) == (2, 1)
    assert (code, out, decisions) == (2, "", None)
    assert err.startswith(f"error: cannot read records: {records}:251: ") and message in err


def test_a_line_that_is_not_utf8_in_a_later_span_reads_as_in_one_span(monkeypatch, capsys, tmp_path):
    lines = [_line(i).encode() for i in range(300)]
    lines[250] = b'{"id": "r\xff", "uncertainty": 0.5}'
    records = tmp_path / "r.jsonl"
    records.write_bytes(b"\n".join(lines) + b"\n")
    (code, _, err, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records)
    assert (forks, whole) == (2, 1)
    assert (code, decisions) == (2, None)
    assert f"{records}:251: " in err


def test_only_the_files_own_byte_order_mark_is_dropped(monkeypatch, capsys, tmp_path):
    lines = [_line(i) for i in range(300)]
    records = tmp_path / "r.jsonl"
    records.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    (code, _, _, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records, 2)
    assert (code, forks, whole, len(decisions.splitlines())) == (0, 1, 0, 300)
    # a U+FEFF that starts a later span is a character of its line, which is then no JSON
    text = records.read_bytes()
    start = record_spans(records, None, cli._SPAN_MIN)[1][0]
    records.write_bytes(text[:start] + "\ufeff".encode() + text[start:])
    assert record_spans(records, None, cli._SPAN_MIN)[1][0] == start
    line = text[:start].count(b"\n") + 1
    (code, _, err, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records, 2)
    assert (code, decisions, forks, whole) == (2, None, 1, 1)
    assert f"{records}:{line}: Unexpected UTF-8 BOM" in err


def test_crlf_and_lone_cr_line_ends_route_as_in_one_span(monkeypatch, capsys, tmp_path):
    ends = ("\n", "\r\n", "\r", "\r\n\n")
    records = tmp_path / "r.jsonl"
    records.write_bytes("".join(_line(i) + ends[i % len(ends)] for i in range(300)).encode())
    (code, _, _, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records)
    assert (code, forks, whole, len(decisions.splitlines())) == (0, 2, 0, 300)


@pytest.mark.parametrize("name, options", [("r.csv", ()), ("r.txt", ("--format", "csv"))], ids=["extension", "flag"])
def test_a_csv_file_stays_one_span(monkeypatch, capsys, tmp_path, name, options):
    records = tmp_path / name
    records.write_text("id,uncertainty,group_label\n" + "".join(
        f"r{i:07d},{(i * 37 % 1000) / 1000},{LABELS[i % len(LABELS)] or ''}\n" for i in range(300)))
    assert records.stat().st_size > 3 * 512
    (code, _, _, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records, 3, *options)
    assert (code, forks, whole, len(decisions.splitlines())) == (0, 0, 1, 300)


def test_a_file_of_blank_lines_has_no_records(monkeypatch, capsys, tmp_path):
    records = tmp_path / "r.jsonl"
    records.write_text("\n \n" * 600)
    (code, out, err, decisions), forks, whole = _same_on_spans(monkeypatch, capsys, records)
    assert (forks, whole) == (2, 1)
    assert (code, out, err, decisions) == (3, "", f"error: no records found in {records}\n", None)


def test_the_unknown_field_warning_is_printed_once_with_the_total(monkeypatch, capsys, tmp_path):
    records = tmp_path / "r.jsonl"
    records.write_text("".join(_line(i, extra=i, more=None) + "\n" for i in range(300)))
    (code, _, err, _), forks, whole = _same_on_spans(monkeypatch, capsys, records)
    assert (code, forks, whole) == (0, 2, 0)
    assert err == f"warning: ignored 600 unknown field(s) in {records}\n"


def test_a_failed_fork_routes_its_span_here(monkeypatch, capsys, tmp_path):
    records = tmp_path / "r.jsonl"
    records.write_text("".join(_line(i) + "\n" for i in range(300)))
    _with_cpus(monkeypatch, 1)
    alone = _route(records, capsys)
    _, whole = _with_cpus(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _route(records, capsys) == alone
    assert not whole
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_python_m_pac_route_route_prints_its_lines_once(tmp_path):
    # over two spans' worth of bytes, so a host with two CPUs forks
    records, out = tmp_path / "r.jsonl", tmp_path / "decisions.jsonl"
    lines = []
    size = 0
    while size <= 2 * cli._SPAN_MIN + 4096:
        lines.append(_line(len(lines)) + "\n")
        size += len(lines[-1])
    records.write_text("".join(lines))
    done = subprocess.run(
        [sys.executable, "-m", "pac_route", "route", "--policy", str(POLICY), "--records", str(records),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    decisions = [json.loads(line) for line in out.read_text().splitlines()]
    assert [d["id"] for d in decisions] == [f"r{i:07d}" for i in range(len(lines))]
    cheap = sum(d["action"] == "cheap" for d in decisions)
    unresolved = sum(d["group_key"] is None for d in decisions)
    assert done.stdout.splitlines() == [
        f"cheap {cheap} think {len(decisions) - cheap} (unresolved group {unresolved})", f"wrote {out}"]
    assert done.stderr == ""


def test_the_benchmark_faults_reach_every_span(monkeypatch, capsys, tmp_path):
    """perfbench/worker.py corrupts `cli.route`; fork copies the corruption into
    every child's span, so a planted fault shows wherever its record lies."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import FLIP_RECORD_ID, THRESHOLD_SHIFT, _install_fault

    policy = tmp_path / "policy.json"
    save_policy(RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0, assigner=LabelAssigner(("g",)),
                              thresholds=(GroupThreshold("g", 0.5, 0.04, 100),)), policy)
    records = tmp_path / "r.jsonl"
    records.write_text("".join(json.dumps({"id": f"r{i:07d}", "uncertainty": 0.5 + THRESHOLD_SHIFT / 2,
                                           "group_label": "g"}) + "\n" for i in range(300)))
    forks, whole = _with_cpus(monkeypatch, 4)
    spans = record_spans(records, None, cli._SPAN_MIN)
    flip_at = records.read_bytes().index(FLIP_RECORD_ID.encode())
    assert len(spans) == 4 and spans[1][0] <= flip_at < spans[1][1]  # a child's span

    def actions() -> list[str]:
        code, _, _, decisions = _route(records, capsys, policy=policy)
        assert code == 0
        return [json.loads(line)["action"] for line in decisions.splitlines()]

    assert actions() == ["think"] * 300
    clean = cli.route
    monkeypatch.setattr(cli, "route", clean)  # restored after the test
    _install_fault(cli, "flip")
    assert [i for i, action in enumerate(actions()) if action == "cheap"] == [int(FLIP_RECORD_ID[1:])]
    cli.route = clean
    _install_fault(cli, "threshold")
    assert actions() == ["cheap"] * 300
    assert (len(forks), len(whole)) == (9, 0)
