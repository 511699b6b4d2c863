"""End-to-end runs of every subcommand through main()."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pac_route.cli as cli
from pac_route.calibration import (
    CHEAP,
    THINK,
    GroupThreshold,
    LabelAssigner,
    RoutingPolicy,
    TrivialAssigner,
    load_policy,
    route,
    save_policy,
)
from pac_route.cli import main
from pac_route.clustering import Partition

EPS = ["--epsilon", "0.1"]


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def labeled_rows(n_per_group=30, tokens=False, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for label, rate in (("easy", 0.0), ("hard", 0.5)):
        for i in range(n_per_group):
            row = {
                "id": f"{label}{i}",
                "uncertainty": round(float(rng.uniform()), 6),
                "group_label": label,
                "loss": float(rng.uniform() < rate),
            }
            if tokens:
                row["tokens_thinking"] = 200
                row["tokens_cheap"] = 20
            rows.append(row)
    return rows


@pytest.fixture
def records_file(tmp_path):
    return write_jsonl(tmp_path / "records.jsonl", labeled_rows())


@pytest.fixture
def policy_file(tmp_path, records_file):
    out = tmp_path / "policy.json"
    code = main(["calibrate", "--records", records_file, *EPS,
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return str(out)


# --------------------------------------------------------------- calibrate


def test_calibrate_writes_policy(tmp_path, records_file, capsys):
    out = tmp_path / "policy.json"
    code = main(["calibrate", "--records", records_file, *EPS,
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["version"] == "pac-route/1"
    assert data["mode"] == "gpac"
    assert {t["group_key"] for t in data["thresholds"]} == {"easy", "hard"}
    printed = capsys.readouterr().out
    assert "group easy" in printed and "wrote" in printed


def test_calibrate_marginal_pools(tmp_path, records_file):
    out = tmp_path / "policy.json"
    assert main(["calibrate", "--records", records_file, "--mode", "marginal",
                 *EPS, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [t["group_key"] for t in data["thresholds"]] == ["all"]


def test_calibrate_cpac(tmp_path, records_file):
    out = tmp_path / "policy.json"
    assert main(["calibrate", "--records", records_file, "--mode", "cpac",
                 "--k", "2", *EPS, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["assigner"]["kind"] == "centroids"
    assert len(data["assigner"]["centroids"]) == 2


def test_calibrate_cpac_hash_tracks_cluster_settings(tmp_path, records_file):
    hashes = set()
    for k, mode in (("2", "split"), ("3", "split"), ("3", "joint")):
        out = tmp_path / f"policy_{k}_{mode}.json"
        assert main(["calibrate", "--records", records_file, "--mode", "cpac",
                     "--k", k, "--cluster-mode", mode, *EPS, "--out", str(out)]) == 0
        hashes.add(json.loads(out.read_text())["provenance"]["config_hash"])
    assert len(hashes) == 3


@pytest.mark.parametrize("mode,digests", [
    (["--mode", "gpac"], {"1": "384ac15202c84b85", "2": "4aa8896786b0ddd2"}),
    (["--mode", "cpac", "--k", "2"], {"1": "6326f540a9f71d65", "2": "fe1435e03f966625"}),
])
def test_calibrate_hash_tracks_the_loss_bound(tmp_path, records_file, mode, digests):
    # pinned digests: a policy's provenance must not drift when code moves
    for bound, digest in digests.items():
        out = tmp_path / f"policy_{bound}.json"
        assert main(["calibrate", "--records", records_file, *mode, "--bound-b", bound,
                     *EPS, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["config_hash"] == digest


def test_calibrate_hash_tracks_the_loss_kind(tmp_path):
    # every row carries both a precomputed loss and an answer triple
    rows = [dict(row, thinking_answer="a", cheap_answer="b" if i % 4 == 0 else "a", gold_answer="a")
            for i, row in enumerate(labeled_rows())]
    path = write_jsonl(tmp_path / "r.jsonl", rows)
    hashes = set()
    for kind in ("precomputed", "binary"):
        out = tmp_path / f"policy_{kind}.json"
        assert main(["calibrate", "--records", path, "--loss-kind", kind, *EPS, "--out", str(out)]) == 0
        hashes.add(json.loads(out.read_text())["provenance"]["config_hash"])
    assert len(hashes) == 2


def test_calibrate_cpac_needs_k(tmp_path, records_file):
    out = tmp_path / "policy.json"
    assert main(["calibrate", "--records", records_file, "--mode", "cpac",
                 *EPS, "--out", str(out)]) == 4
    assert not out.exists()


def test_calibrate_report(tmp_path, records_file):
    out = tmp_path / "policy.json"
    rep = tmp_path / "report.json"
    assert main(["calibrate", "--records", records_file, *EPS,
                 "--out", str(out), "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["n_total"] == 60
    assert {g["group_key"] for g in data["groups"]} == {"easy", "hard"}


def test_calibrate_missing_file(tmp_path):
    assert main(["calibrate", "--records", str(tmp_path / "nope.jsonl"),
                 *EPS, "--out", str(tmp_path / "p.json")]) == 2


def test_calibrate_empty_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["calibrate", "--records", str(empty), *EPS,
                 "--out", str(tmp_path / "p.json")]) == 3


def test_calibrate_nothing_resolves(tmp_path):
    # gpac needs labels; none of these records carry one
    path = write_jsonl(tmp_path / "r.jsonl",
                       [{"id": f"r{i}", "uncertainty": 0.5, "loss": 0.0}
                        for i in range(20)])
    assert main(["calibrate", "--records", path, *EPS,
                 "--out", str(tmp_path / "p.json")]) == 3


def test_calibrate_bad_parameters(tmp_path, records_file):
    out = str(tmp_path / "p.json")
    assert main(["calibrate", "--records", records_file,
                 "--epsilon", "0", "--out", out]) == 4
    assert main(["calibrate", "--records", records_file, *EPS,
                 "--alpha", "1.5", "--out", out]) == 4
    assert main(["calibrate", "--records", records_file, *EPS,
                 "--pi", "0", "--out", out]) == 4


def test_calibrate_warns_about_unknown_fields(tmp_path, capsys):
    rows = labeled_rows(15)
    for r in rows:
        r["surprise"] = True
    path = write_jsonl(tmp_path / "r.jsonl", rows)
    assert main(["calibrate", "--records", path, *EPS,
                 "--out", str(tmp_path / "p.json")]) == 0
    assert "ignored 30 unknown field(s)" in capsys.readouterr().err


def test_calibrate_from_csv(tmp_path):
    path = tmp_path / "records.csv"
    lines = ["id,uncertainty,group_label,loss"]
    rng = np.random.default_rng(4)
    for i in range(25):
        lines.append(f"c{i},{rng.uniform():.6f},solo,0.0")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.json"
    assert main(["calibrate", "--records", str(path), *EPS,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["thresholds"][0]["group_key"] == "solo"


def test_csv_header_naming_a_field_twice_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text("id,uncertainty,uncertainty,loss\na,0.25,0.5,0\nb,0.25,0.5,0\n")
    out = tmp_path / "partition.json"
    assert main(["cluster", "--records", str(path), "--k", "1", "--out", str(out)]) == 2
    assert (f"cannot read records: {path}:1: the header names field 'uncertainty' more than once"
            in capsys.readouterr().err)
    assert not out.exists()


def test_csv_header_naming_an_unknown_column_twice_only_warns(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text("id,uncertainty,note,note,loss\na,0.25,x,y,0\nb,0.75,x,y,0\n")
    out = tmp_path / "partition.json"
    assert main(["cluster", "--records", str(path), "--k", "1", "--out", str(out)]) == 0
    assert "ignored 2 unknown field(s)" in capsys.readouterr().err
    assert json.loads(out.read_text())["centroids"] == [0.5]


def test_usage_error_exits_two(records_file):
    with pytest.raises(SystemExit) as info:
        main(["calibrate", "--records", records_file])  # no --epsilon, no --out
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "route"])
def test_an_abbreviated_option_is_a_usage_error(tmp_path, records_file, policy_file, command):
    # an abbreviation would alias a live option: --m would be --method, --pol --policy
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec()))
    out = tmp_path / "out.json"
    argv = {
        "simulate": ["simulate", "--spec", str(spec), "--n-cal", "50", *EPS, "--out", str(out), "--m", "cpac"],
        "route": ["route", "--pol", policy_file, "--rec", records_file, "--out", str(out)],
    }[command]
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2 and set(tmp_path.iterdir()) == before


WRONG_TYPED_ROWS = (
    {"id": "r0", "uncertainty": [1], "loss": 0.0, "group_label": "easy"},
    {"id": "r0", "uncertainty": 0.5, "loss": 0.0, "group_label": "easy",
     "tokens_thinking": "x"},
)


@pytest.mark.parametrize("row", WRONG_TYPED_ROWS, ids=["uncertainty", "tokens"])
def test_calibrate_wrong_typed_field_is_an_input_error(tmp_path, capsys, row):
    path = write_jsonl(tmp_path / "r.jsonl", labeled_rows(15) + [row])
    out = tmp_path / "p.json"
    assert main(["calibrate", "--records", path, *EPS, "--out", str(out)]) == 2
    assert f"{path}:31" in capsys.readouterr().err
    assert not out.exists()


MALFORMED_RECORD_FILES = {
    "jsonl-syntax": ("r.jsonl", '{"id": "a", "uncertainty": 0.5, "loss": 0}\n{bad\n', 2),
    "csv-float": ("r.csv", "id,uncertainty,loss\na,0.5,0\nb,abc,0\n", 3),
    "csv-int": ("r.csv", "id,uncertainty,loss,tokens_thinking\na,0.5,0,1.5\n", 2),
    # two objects on line 1, the second closed on line 2: joined with a comma
    # the two lines parse as two objects, so a block parse must not take them
    "jsonl-seam": ("r.jsonl", '{"id": "a", "uncertainty": 0.1, "loss": 0}, '
                   '{"id": "b", "uncertainty": 0.2, "loss": 0, "x": [{"c": 1}\n{"d": 2}]}\n', 1),
    # a cell longer than the csv module's field size limit (131072 characters)
    "csv-field-limit": ("r.csv", "id,uncertainty,loss,group_label\na,0.5,0,g\nb,0.5,0," + "g" * 200_000 + "\n", 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORD_FILES))
def test_malformed_record_file_names_path_and_line(tmp_path, capsys, case):
    name, text, line = MALFORMED_RECORD_FILES[case]
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "p.json"
    assert main(["calibrate", "--records", str(path), *EPS, "--out", str(out)]) == 2
    assert f"{path}:{line}:" in capsys.readouterr().err
    assert not out.exists()


GOOD_LINE = '{"id": "a", "uncertainty": 0.5, "group_label": "easy", "loss": 0.0}'
BAD_SECOND_LINES = {
    "uncertainty-above-one": '{"id": "b", "uncertainty": 1.5, "loss": 0.0}',
    "uncertainty-nan": '{"id": "b", "uncertainty": NaN, "loss": 0.0}',
    "uncertainty-string": '{"id": "b", "uncertainty": "abc", "loss": 0.0}',
    "uncertainty-numeric-string": '{"id": "b", "uncertainty": "0.5", "loss": 0.0}',
    "uncertainty-bool": '{"id": "b", "uncertainty": true, "loss": 0.0}',
    "float-tokens": '{"id": "b", "uncertainty": 0.5, "loss": 0.0, "tokens_thinking": 1.5}',
    "bool-tokens": '{"id": "b", "uncertainty": 0.5, "loss": 0.0, "tokens_cheap": true}',
    "negative-tokens": '{"id": "b", "uncertainty": 0.5, "loss": 0.0, "tokens_cheap": -3}',
    "huge-tokens": '{"id": "b", "uncertainty": 0.5, "loss": 0.0, "tokens_cheap": 1' + "0" * 400 + "}",
    "empty-id": '{"id": "", "uncertainty": 0.5, "loss": 0.0}',
    "label-number": '{"id": "b", "uncertainty": 0.5, "loss": 0.0, "group_label": 5}',
    "loss-string": '{"id": "b", "uncertainty": 0.5, "loss": "x"}',
    "embedding-string": '{"id": "b", "uncertainty": 0.5, "loss": 0.0, "cheap_embedding": "12"}',
    "two-values": '{"id": "b", "uncertainty": 0.5}, {"id": "c", "uncertainty": 0.5}',
}


@pytest.mark.parametrize("case", sorted(BAD_SECOND_LINES))
@pytest.mark.parametrize("command", ["calibrate", "route"])
def test_bad_record_names_its_path_and_line(tmp_path, policy_file, capsys, case, command):
    path = tmp_path / "r.jsonl"
    path.write_text(GOOD_LINE + "\n" + BAD_SECOND_LINES[case] + "\n" + GOOD_LINE + "\n")
    out = tmp_path / "out"
    extra = [*EPS] if command == "calibrate" else ["--policy", policy_file]
    assert main([command, "--records", str(path), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("first_bad", [False, True], ids=["line-named", "earlier-row-wins"])
@pytest.mark.parametrize("name", ["r.jsonl", "r.csv"])
@pytest.mark.parametrize("command", ["calibrate", "route", "evaluate", "cluster"])
def test_a_line_that_is_not_utf8_is_an_input_error(tmp_path, policy_file, capsys, command, name, first_bad):
    u = b"1.5" if first_bad else b"0.5"
    if name.endswith(".csv"):
        text, line = b"id,uncertainty,loss\na,%s,0\nb\xff,0.5,0\n" % u, 3
    else:
        text, line = (b'{"id": "a", "uncertainty": %s, "loss": 0.0}\n'
                      b'{"id": "b\xff", "uncertainty": 0.5, "loss": 0.0}\n' % u, 2)
    path = tmp_path / name
    path.write_bytes(text)
    out = tmp_path / "out"
    extra = {"calibrate": EPS, "cluster": ["--k", "1"]}.get(command, ["--policy", policy_file])
    assert main([command, "--records", str(path), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if first_bad:
        assert f"{path}:{line - 1}: uncertainty 1.5 outside [0, 1]" in err
    else:
        assert f"{path}:{line}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err
    assert not out.exists()


# deeper than the recursion limit; json.dumps cannot write it
NESTED_TOO_DEEP = "[" * 100_000


@pytest.mark.parametrize("command", ["calibrate", "route", "evaluate"])
def test_record_nested_too_deeply_names_its_path_and_line(tmp_path, policy_file, capsys, command):
    path = tmp_path / "r.jsonl"
    path.write_text(GOOD_LINE + "\n" + NESTED_TOO_DEEP + "\n" + GOOD_LINE + "\n")
    out = tmp_path / "out"
    extra = [*EPS] if command == "calibrate" else ["--policy", policy_file]
    assert main([command, "--records", str(path), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: " in err and "Traceback" not in err
    assert not out.exists()


# calibrate reads it in test_malformed_record_file_names_path_and_line
@pytest.mark.parametrize("command", ["route", "evaluate", "cluster"])
def test_csv_cell_over_the_field_limit_names_its_path_and_line(tmp_path, policy_file, capsys, command):
    name, text, line = MALFORMED_RECORD_FILES["csv-field-limit"]
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    extra = ["--k", "1"] if command == "cluster" else ["--policy", policy_file]
    assert main([command, "--records", str(path), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: " in err and "Traceback" not in err
    assert not out.exists()


def test_unresolvable_loss_names_its_path_and_line(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    path.write_text(GOOD_LINE + "\n\n" + '{"id": "b", "uncertainty": 0.5, "loss": 1.5}\n')
    assert main(["calibrate", "--records", str(path), *EPS, "--out", str(tmp_path / "p.json")]) == 2
    assert f"cannot resolve losses: {path}:3: loss 1.5 outside" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
def test_a_bad_loss_wins_over_a_bad_value_on_a_later_line(tmp_path, policy_file, capsys, command):
    path = tmp_path / "r.jsonl"
    path.write_text('{"id": "a", "uncertainty": 0.5, "loss": 1.5}\n' + GOOD_LINE + "\n"
                    '{"id": "c", "uncertainty": 1.5, "loss": 0.0}\n')
    out = tmp_path / "out"
    extra = [*EPS] if command == "calibrate" else ["--policy", policy_file]
    assert main([command, "--records", str(path), *extra, "--out", str(out)]) == 2
    assert f"error: cannot resolve losses: {path}:1: loss 1.5 outside [0, 1.0]\n" == capsys.readouterr().err
    assert not out.exists()


def test_a_row_missing_its_loss_wins_over_a_later_syntax_error(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    path.write_text('{"id": "a", "uncertainty": 0.5}\n{bad\n')
    assert main(["calibrate", "--records", str(path), *EPS, "--out", str(tmp_path / "p.json")]) == 2
    assert f"cannot resolve losses: {path}:1: precomputed loss needs loss" in capsys.readouterr().err


@pytest.mark.parametrize("first_bad", [False, True], ids=["line-named", "earlier-row-wins"])
@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
def test_a_loss_too_large_for_a_float_is_an_input_error(tmp_path, policy_file, capsys, command, first_bad):
    first = '{"id": "a", "uncertainty": 0.5, "loss": 1.5}' if first_bad else GOOD_LINE
    huge = '{"id": "b", "uncertainty": 0.5, "loss": 1' + "0" * 400 + "}"
    path = tmp_path / "r.jsonl"
    path.write_text(first + "\n" + huge + "\n" + GOOD_LINE + "\n")
    out = tmp_path / "out"
    extra = [*EPS] if command == "calibrate" else ["--policy", policy_file]
    assert main([command, "--records", str(path), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if first_bad:
        assert f"cannot resolve losses: {path}:1: loss 1.5 outside" in err
    else:
        assert f"cannot resolve losses: {path}:2: field 'loss': int too large to convert to float" in err
    assert "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------------------- route


def test_route_writes_decisions(tmp_path, records_file, policy_file, capsys):
    out = tmp_path / "decisions.jsonl"
    assert main(["route", "--policy", policy_file, "--records", records_file,
                 "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 60
    assert set(lines[0]) == {"id", "group_key", "action"}
    assert all(l["action"] in ("cheap", "think") for l in lines)
    assert "cheap" in capsys.readouterr().out


@pytest.mark.parametrize("row", WRONG_TYPED_ROWS, ids=["uncertainty", "tokens"])
def test_route_wrong_typed_field_is_an_input_error(tmp_path, policy_file, capsys, row):
    path = write_jsonl(tmp_path / "r.jsonl", [row])
    out = tmp_path / "d.jsonl"
    assert main(["route", "--policy", policy_file, "--records", path,
                 "--out", str(out)]) == 2
    assert f"{path}:1" in capsys.readouterr().err
    assert not out.exists()


def test_route_rejects_other_policy_versions(tmp_path, records_file, policy_file):
    data = json.loads(open(policy_file).read())
    data["version"] = "pac-route/9"
    bad = tmp_path / "bad_policy.json"
    bad.write_text(json.dumps(data))
    assert main(["route", "--policy", str(bad), "--records", records_file,
                 "--out", str(tmp_path / "d.jsonl")]) == 5


def test_route_rejects_corrupt_policy(tmp_path, records_file):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["route", "--policy", str(bad), "--records", records_file,
                 "--out", str(tmp_path / "d.jsonl")]) == 2


def _edited_policy(tmp_path, policy_file, edit):
    data = edit(json.loads(Path(policy_file).read_text()))
    bad = tmp_path / "edited_policy.json"
    bad.write_text(json.dumps(data))
    return str(bad)


def _raise_threshold(data):
    for t in data["thresholds"]:
        if t["group_key"] == "hard":
            t["threshold"] = 1.5
    return data


def _duplicate_key(data):
    data["thresholds"].append(dict(data["thresholds"][0]))
    return data


def _unknown_key(data):
    data["thresholds"].append({"group_key": "ghost", "threshold": 0.5, "ucb": 0.0, "n": 30})
    return data


def _negative_threshold(data):
    data["thresholds"][0]["threshold"] = -0.1
    return data


def _top_level_list(data):
    return [data]


def _thresholds_number(data):
    return {**data, "thresholds": 5}


def _labels_number(data):
    return {**data, "assigner": {"kind": "labels", "labels": 3}}


def _n_list(data):
    data["thresholds"][0]["n"] = [1]
    return data


def _centroid_list(data):
    return {**data, "assigner": {"kind": "centroids", "centroids": [[0.1]]}}


def _duplicate_label(data):
    labels = data["assigner"]["labels"]
    return {**data, "assigner": {"kind": "labels", "labels": [*labels, labels[0]]}}


def _nan_centroid(data):
    return {**data, "mode": "cpac", "assigner": {"kind": "centroids", "centroids": [float("nan")]}, "thresholds": []}


def _threshold_object(data):
    data["thresholds"][0]["threshold"] = {"value": 0.5}
    return data


def _assigner_string(data):
    return {**data, "assigner": "labels"}


def _group_key_list(data):
    data["thresholds"][0]["group_key"] = ["easy"]
    return data


def _bogus_mode(data):
    return {**data, "mode": "bogus"}


def _mode_of_another_assigner(data):
    return {**data, "mode": "marginal"}


def _mode_missing(data):
    del data["mode"]
    return data


def _assigner_missing(data):
    del data["assigner"]
    return data


# JSON values of the wrong type that tuple(), int() or float() would accept, each with
# the field its error must name
def _labels_string(data):
    return {**data, "assigner": {"kind": "labels", "labels": "math"}}


def _centroids_string(data):
    return {**data, "mode": "cpac", "assigner": {"kind": "centroids", "centroids": "12"}, "thresholds": []}


def _negative_n(data):
    data["thresholds"][0]["n"] = -5
    return data


def _n_fraction(data):
    data["thresholds"][0]["n"] = 50.7
    return data


def _n_bool(data):
    data["thresholds"][0]["n"] = True
    return data


def _epsilon_bool(data):
    return {**data, "epsilon": True}


def _alpha_string(data):
    return {**data, "alpha": "0.05"}


def _seed_fraction(data):
    return {**data, "seed": 1.5}


def _mode_number(data):
    return {**data, "mode": 5}


def _config_hash_number(data):
    return {**data, "provenance": {"config_hash": 5}}


def _threshold_string(data):
    data["thresholds"][0]["threshold"] = "0.5"
    return data


def _ucb_string(data):
    data["thresholds"][0]["ucb"] = "0.01"
    return data


def _thresholds_empty_object(data):
    return {**data, "thresholds": {}}


WRONG_TYPES = {_labels_string: "labels", _centroids_string: "centroids", _n_fraction: "n", _n_bool: "n",
               _epsilon_bool: "epsilon", _alpha_string: "alpha", _seed_fraction: "seed", _mode_number: "mode",
               _config_hash_number: "config_hash", _threshold_string: "threshold", _ucb_string: "ucb",
               _thresholds_empty_object: "thresholds"}


def _negative_epsilon(data):
    return {**data, "epsilon": -1.0}


def _zero_epsilon(data):
    return {**data, "epsilon": 0.0}


def _infinite_epsilon(data):
    return {**data, "epsilon": math.inf}  # written as Infinity, which is not JSON


def _alpha_seven(data):
    return {**data, "alpha": 7.0}


def _alpha_zero(data):
    return {**data, "alpha": 0.0}


POLICY_EDITS = [
    _raise_threshold, _duplicate_key, _unknown_key, _negative_threshold,
    _top_level_list, _thresholds_number, _labels_number, _n_list, _centroid_list,
    _threshold_object, _assigner_string, _group_key_list,
    _bogus_mode, _negative_epsilon, _zero_epsilon, _infinite_epsilon, _alpha_seven, _alpha_zero,
    _mode_of_another_assigner, _mode_missing, _assigner_missing, _duplicate_label, _nan_centroid,
    _negative_n,
]


@pytest.mark.parametrize("edit", POLICY_EDITS, ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("command", ["route", "evaluate"])
def test_invalid_policy_is_an_input_error(tmp_path, records_file, policy_file, capsys, edit, command):
    bad = _edited_policy(tmp_path, policy_file, edit)
    out = tmp_path / "out"
    assert main([command, "--policy", bad, "--records", records_file, "--out", str(out)]) == 2
    assert "cannot read policy" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_n_names_its_group(tmp_path, records_file, policy_file, capsys):
    bad = _edited_policy(tmp_path, policy_file, _negative_n)
    assert main(["route", "--policy", bad, "--records", records_file, "--out", str(tmp_path / "out")]) == 2
    assert "cannot read policy: group 'easy': n -5 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["route", "evaluate"])
def test_policy_nested_too_deeply_is_an_input_error(tmp_path, records_file, capsys, command):
    bad = tmp_path / "policy.json"
    bad.write_text(NESTED_TOO_DEEP)
    out = tmp_path / "out"
    assert main([command, "--policy", str(bad), "--records", records_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot read policy" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("edit", WRONG_TYPES, ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("command", ["route", "evaluate"])
def test_policy_value_of_the_wrong_json_type_names_its_field(
    tmp_path, records_file, policy_file, capsys, edit, command
):
    bad = _edited_policy(tmp_path, policy_file, edit)
    out = tmp_path / "out"
    assert main([command, "--policy", bad, "--records", records_file, "--out", str(out)]) == 2
    assert f"cannot read policy: field '{WRONG_TYPES[edit]}': must be" in capsys.readouterr().err
    assert not out.exists()


def test_policy_without_labels_resolves_no_record(tmp_path, records_file, policy_file, capsys):
    data = json.loads(Path(policy_file).read_text())
    data["assigner"]["labels"] = []
    out = tmp_path / "decisions.jsonl"
    for thresholds in (data["thresholds"], [{"group_key": "zzz", "threshold": 0.5, "ucb": 0.0, "n": 30}]):
        bad = _edited_policy(tmp_path, policy_file, lambda _: {**data, "thresholds": thresholds})
        assert main(["route", "--policy", bad, "--records", records_file, "--out", str(out)]) == 2
        assert "its assigner does not know" in capsys.readouterr().err
        assert not out.exists()
    empty = _edited_policy(tmp_path, policy_file, lambda _: {**data, "thresholds": []})
    assert main(["route", "--policy", empty, "--records", records_file, "--out", str(out)]) == 0
    decisions = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(decisions) == 60 and all(d["group_key"] is None and d["action"] == THINK for d in decisions)


def _decisions_reference(decisions) -> str:
    """decisions.jsonl as it was written before: one json.dumps per decision."""
    return "".join(json.dumps(d.to_dict()) + "\n" for d in decisions)


ODD_IDS = ['q"uote', "back\\slash", "ünï", "日本語", "emoji😀", "tab\tctl\x01", "line\u2028sep", "/slash"]
ROUTE_POLICIES = {
    "labels": RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=("easy", "hard", "ü")),
        thresholds=(GroupThreshold("easy", 0.6, 0.01, 30), GroupThreshold("hard", None, None, 3),
                    GroupThreshold("ü", 0.3, 0.02, 40)),
    ),
    # every label the rows carry is a group, and most groups have no threshold
    "open": RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0, assigner=LabelAssigner(("easy", "hard", "ü", "other")),
        thresholds=(GroupThreshold("easy", 0.4, 0.0, 10),),
    ),
    "partition": RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0, assigner=Partition((0.2, 0.5, 0.8)),
        thresholds=(GroupThreshold(0, 0.3, 0.0, 10), GroupThreshold(1, None, None, 10),
                    GroupThreshold(2, 0.9, 0.0, 10)),
    ),
    "trivial": RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0, assigner=TrivialAssigner(),
        thresholds=(GroupThreshold("all", 0.45, 0.01, 50),),
    ),
}


def _route_rows(n):
    """Rows with odd ids, every label case and scores on the thresholds."""
    rng = np.random.default_rng(11)
    rows = []
    for i in range(n):
        row = {"id": f"{ODD_IDS[i % len(ODD_IDS)]}{i}",
               "uncertainty": float(rng.choice([rng.uniform(), 0.3, 0.5, 0.0, 1.0]))}
        label = ["easy", "hard", "ü", "other", None][i % 5]
        if label is not None:
            row["group_label"] = label
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", sorted(ROUTE_POLICIES))
def test_route_output_matches_per_decision_json_dumps(tmp_path, name):
    policy = ROUTE_POLICIES[name]
    save_policy(policy, tmp_path / "policy.json")
    rows = _route_rows(400)
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=bool(i % 2)) + "\n" for i, r in enumerate(rows)),
                    encoding="utf-8")
    out = tmp_path / "decisions.jsonl"
    assert main(["route", "--policy", str(tmp_path / "policy.json"), "--records", str(path),
                 "--out", str(out)]) == 0
    decisions = [route(policy, r.get("group_label"), r["uncertainty"], record_id=r["id"]) for r in rows]
    assert out.read_bytes() == _decisions_reference(decisions).encode("utf-8")
    assert {d.action for d in decisions} == {"cheap", "think"}


@pytest.mark.parametrize("n", [8192, 8193, 20000])
def test_route_writes_whole_blocks_and_counts_them(tmp_path, capsys, n):
    policy = ROUTE_POLICIES["labels"]
    save_policy(policy, tmp_path / "policy.json")
    rows = _route_rows(n)
    path = write_jsonl(tmp_path / "r.jsonl", rows)
    out = tmp_path / "decisions.jsonl"
    assert main(["route", "--policy", str(tmp_path / "policy.json"), "--records", path,
                 "--out", str(out)]) == 0
    decisions = [route(policy, r.get("group_label"), r["uncertainty"], record_id=r["id"]) for r in rows]
    assert out.read_bytes() == _decisions_reference(decisions).encode("utf-8")
    written = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    cheap = sum(d["action"] == "cheap" for d in written)
    unresolved = sum(d["group_key"] is None for d in written)
    assert capsys.readouterr().out.splitlines()[0] == (
        f"cheap {cheap} think {n - cheap} (unresolved group {unresolved})"
    )


def test_route_calls_cli_route_once_per_record_in_file_order(tmp_path, records_file, policy_file,
                                                             monkeypatch, capsys):
    """The benchmark's self-test injects its faults by replacing cli.route, so
    the route command must call it once per record and write what it returns."""
    rows = [json.loads(line) for line in Path(records_file).read_text().splitlines()]
    flip = rows[7]["id"]
    calls = []

    def spy(policy, group_hint, uncertainty, *, record_id=""):
        calls.append((record_id, group_hint, uncertainty))
        decision = route(policy, group_hint, uncertainty, record_id=record_id)
        if record_id == flip:
            decision = dataclasses.replace(decision, action=THINK if decision.action == CHEAP else CHEAP)
        return decision

    monkeypatch.setattr(cli, "route", spy)
    out = tmp_path / "d.jsonl"
    assert main(["route", "--policy", policy_file, "--records", records_file, "--out", str(out)]) == 0
    assert calls == [(r["id"], r["group_label"], r["uncertainty"]) for r in rows]
    policy = load_policy(policy_file)
    expected = [route(policy, r["group_label"], r["uncertainty"], record_id=r["id"]).to_dict() for r in rows]
    expected[7]["action"] = THINK if expected[7]["action"] == CHEAP else CHEAP
    assert [json.loads(line) for line in out.read_text().splitlines()] == expected
    cheap = sum(d["action"] == CHEAP for d in expected)
    assert f"cheap {cheap} think {len(rows) - cheap}" in capsys.readouterr().out


def test_route_error_mid_file_writes_nothing(tmp_path, monkeypatch, capsys):
    save_policy(ROUTE_POLICIES["labels"], tmp_path / "policy.json")
    path = write_jsonl(tmp_path / "r.jsonl", _route_rows(8193))
    calls = []

    def failing(policy, group_hint, uncertainty, *, record_id=""):
        calls.append(record_id)
        if len(calls) == 8193:  # after the first block has been joined
            raise ValueError(f"cannot route {record_id}")
        return route(policy, group_hint, uncertainty, record_id=record_id)

    monkeypatch.setattr(cli, "route", failing)
    out = tmp_path / "decisions.jsonl"
    assert main(["route", "--policy", str(tmp_path / "policy.json"), "--records", path,
                 "--out", str(out)]) == 2
    assert f"error: cannot route {calls[-1]}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.json", "r.jsonl"]


# ---------------------------------------------------------------- evaluate


def test_evaluate_writes_metrics(tmp_path, records_file, policy_file, capsys):
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--policy", policy_file, "--records", records_file,
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) >= {"error", "per_group_error", "error_gap", "trials"}
    assert "error" in capsys.readouterr().out


def test_evaluate_with_stp_and_trials(tmp_path, policy_file):
    path = write_jsonl(tmp_path / "tok.jsonl", labeled_rows(tokens=True, seed=9))
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--policy", policy_file, "--records", path,
                 "--stp", "router", "--trials", "10", "--seed", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["stp_variant"] == "router"
    assert data["trials"] == 10


def test_evaluate_stp_without_tokens(tmp_path, records_file, policy_file):
    assert main(["evaluate", "--policy", policy_file, "--records", records_file,
                 "--stp", "cascade", "--out", str(tmp_path / "m.json")]) == 6


def test_evaluate_rejects_zero_trials(tmp_path, records_file, policy_file):
    assert main(["evaluate", "--policy", policy_file, "--records", records_file,
                 "--trials", "0", "--out", str(tmp_path / "m.json")]) == 4


# ---------------------------------------------------------------- simulate


def tiny_spec():
    return {"name": "tiny",
            "groups": [{"name": "a", "weight": 1.0, "bins": [0.0, 1.0], "loss_prob": [0.0]}]}


def test_simulate_runs_small_experiment(tmp_path, capsys):
    spec = {
        "name": "tiny",
        "groups": [
            {"name": "a", "weight": 1.0, "bins": [0.0, 1.0], "loss_prob": [0.0]},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "coverage.json"
    assert main(["simulate", "--spec", str(spec_path), "--method", "gpac",
                 "--n-cal", "50", "--trials", "5", "--epsilon", "0.05",
                 "--seed", "11", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["per_group_coverage"] == {"a": 1.0}
    assert "coverage(min) 1.0000" in capsys.readouterr().out


def test_simulate_rejects_bad_spec(tmp_path):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({"groups": [
        {"name": "a", "weight": 0.5, "bins": [0.0, 1.0], "loss_prob": [0.0]},
    ]}))  # weights do not sum to 1
    assert main(["simulate", "--spec", str(bad), "--method", "gpac",
                 "--n-cal", "50", "--trials", "2", "--epsilon", "0.05",
                 "--out", str(tmp_path / "c.json")]) == 7


def test_simulate_cpac_needs_k(tmp_path):
    spec = {"groups": [{"name": "a", "weight": 1.0,
                        "bins": [0.0, 1.0], "loss_prob": [0.0]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(spec_path), "--method", "cpac",
                 "--n-cal", "50", "--trials", "2", "--epsilon", "0.05",
                 "--out", str(tmp_path / "c.json")]) == 4


def _spec_groups_number(spec):
    return {**spec, "groups": 5}


def _spec_top_level_list(spec):
    return [spec]


def _spec_bins_number(spec):
    spec["groups"][0]["bins"] = 5
    return spec


def _spec_bins_nan(spec):
    spec["groups"][0]["bins"] = [0.0, float("nan"), 1.0]
    spec["groups"][0]["loss_prob"] = [0.1, 0.1]
    return spec


def _spec_weight_list(spec):
    spec["groups"][0]["weight"] = [1]
    return spec


def _spec_tokens_thinking_zero(spec):
    spec["groups"][0]["tokens_thinking"] = 0
    return spec


def _spec_tokens_cheap_negative(spec):
    spec["groups"][0]["tokens_cheap"] = -1
    return spec


def _spec_groups_empty(spec):
    return {**spec, "groups": []}


# JSON values of the wrong type that str(), float(), tuple() or int() would
# accept, each with the field its error must name
def _spec_name_number(spec):
    spec["groups"][0]["name"] = 7
    return spec


def _spec_weight_string(spec):
    spec["groups"][0]["weight"] = "1"
    return spec


def _spec_bins_string(spec):
    spec["groups"][0]["bins"] = "01"
    return spec


def _spec_tokens_fraction(spec):
    spec["groups"][0]["tokens_thinking"] = 1.5
    return spec


def _spec_tokens_bool(spec):
    spec["groups"][0]["tokens_cheap"] = True
    return spec


def _spec_groups_string(spec):
    return {**spec, "groups": "ab"}


SPEC_WRONG_TYPES = {_spec_name_number: "name", _spec_weight_string: "weight", _spec_bins_string: "bins",
                    _spec_tokens_fraction: "tokens_thinking", _spec_tokens_bool: "tokens_cheap",
                    _spec_groups_string: "groups"}
SPEC_EDITS = [_spec_groups_number, _spec_top_level_list, _spec_bins_number, _spec_bins_nan, _spec_weight_list,
              _spec_tokens_thinking_zero, _spec_tokens_cheap_negative, _spec_groups_empty, *SPEC_WRONG_TYPES]


@pytest.mark.parametrize("edit", SPEC_EDITS, ids=lambda f: f.__name__[len("_spec_"):])
def test_malformed_spec_is_a_spec_error(tmp_path, capsys, edit):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(edit(tiny_spec())))
    out = tmp_path / "c.json"
    assert main(["simulate", "--spec", str(bad), "--n-cal", "50", "--trials", "2",
                 "--epsilon", "0.05", "--out", str(out)]) == 7
    err = capsys.readouterr().err
    assert "invalid synthetic spec" in err
    assert edit not in SPEC_WRONG_TYPES or f"field '{SPEC_WRONG_TYPES[edit]}': must be" in err
    assert not out.exists()


def test_spec_nested_too_deeply_is_a_spec_error(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text('{"groups": ' + NESTED_TOO_DEEP)
    out = tmp_path / "c.json"
    assert main(["simulate", "--spec", str(bad), "--n-cal", "50", "--trials", "2",
                 "--epsilon", "0.05", "--out", str(out)]) == 7
    err = capsys.readouterr().err
    assert "invalid synthetic spec" in err and "Traceback" not in err
    assert not out.exists()


# --------------------------------------------------------- bad parameters


CPAC = ["--mode", "cpac", "--k", "2"]
SIM_CPAC = ["--method", "cpac", "--k", "2"]
BAD_PARAMETERS = [
    ("calibrate", ["--epsilon", "0"]),
    ("simulate", ["--epsilon", "0"]),
    ("calibrate", ["--epsilon", "inf"]),
    ("simulate", ["--epsilon", "inf"]),
    ("calibrate", ["--alpha", "1.5"]),
    ("simulate", ["--alpha", "1.5"]),
    ("calibrate", ["--pi", "0"]),
    ("simulate", ["--pi", "0"]),
    ("calibrate", ["--bound-b", "0"]),
    ("evaluate", ["--bound-b", "0"]),
    ("calibrate", ["--bound-b", "inf"]),
    ("evaluate", ["--bound-b", "inf"]),
    ("calibrate", ["--n-min", "-1"]),
    ("calibrate", [*CPAC, "--k", "0"]),
    ("simulate", [*SIM_CPAC, "--k", "0"]),
    ("cluster", ["--k", "0"]),
    ("calibrate", [*CPAC, "--split-fraction", "1.5"]),
    ("simulate", [*SIM_CPAC, "--split-fraction", "1.5"]),
    ("calibrate", [*CPAC, "--joint-slack", "-0.1"]),
    ("simulate", [*SIM_CPAC, "--joint-slack", "-0.1"]),
    ("calibrate", [*CPAC, "--joint-slack", "nan"]),
    ("simulate", [*SIM_CPAC, "--joint-slack", "nan"]),
    ("calibrate", [*CPAC, "--joint-slack", "inf"]),
    ("simulate", [*SIM_CPAC, "--joint-slack", "inf"]),
    ("evaluate", ["--trials", "0"]),
    ("simulate", ["--trials", "0"]),
    ("simulate", ["--n-cal", "0"]),
]


@pytest.mark.parametrize("command,bad", BAD_PARAMETERS,
                         ids=[f"{c}{b[-2]}" + (f"={b[-1]}" if b[-1] in ("nan", "inf") else "")
                              for c, b in BAD_PARAMETERS])
def test_invalid_parameter_exits_four(tmp_path, capsys, records_file, policy_file, command, bad):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec()))
    base = {
        "calibrate": ["--records", records_file, *EPS],
        "evaluate": ["--policy", policy_file, "--records", records_file],
        "simulate": ["--spec", str(spec), "--n-cal", "50", "--trials", "2", *EPS],
        "cluster": ["--records", records_file, "--k", "2"],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *base, *bad, "--out", str(out)]) == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", [[], SIM_CPAC], ids=["gpac", "cpac"])
@pytest.mark.parametrize("n_cal", ["0", "-3"])
def test_simulate_needs_a_calibration_record(tmp_path, capsys, method, n_cal):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec()))
    out = tmp_path / "out.json"
    assert main(["simulate", "--spec", str(spec), "--n-cal", n_cal, "--trials", "2", *EPS, *method,
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: n_cal must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "simulate"])
def test_draw_count_option_is_gone(tmp_path, capsys, records_file, command):
    # one draw per record leaves no count to set: --m is a usage error
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec()))
    base = {
        "calibrate": ["--records", records_file, *EPS],
        "simulate": ["--spec", str(spec), "--n-cal", "50", "--trials", "2", *EPS],
    }[command]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *base, "--m", "10", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()


def test_calibrate_at_a_tiny_pi_keeps_too_few_records_to_certify(tmp_path, capsys):
    # true risk about 0.5: a draw that keeps 2 of 2000 records must not certify a threshold
    rng = np.random.default_rng(4)
    rows = [{"id": f"r{i}", "uncertainty": round(float(u), 6), "loss": float(rng.random() < 0.5)}
            for i, u in enumerate(rng.random(2000))]
    records = write_jsonl(tmp_path / "records.jsonl", rows)
    out = tmp_path / "policy.json"
    assert main(["calibrate", "--records", records, "--mode", "marginal", "--epsilon", "0.1",
                 "--pi", "0.001", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["thresholds"][0]["threshold"] == "always_think"


def test_a_one_record_group_always_thinks(tmp_path, capsys):
    # the CLT bound needs two draws: a lone record leaves its group uncertified, not the run
    rows = labeled_rows() + [{"id": "b0", "uncertainty": 0.4, "group_label": "b", "loss": 0.0}]
    records = write_jsonl(tmp_path / "records.jsonl", rows)
    out = tmp_path / "policy.json"
    assert main(["calibrate", "--records", records, *EPS, "--n-min", "1", "--pi", "1",
                 "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["thresholds"][2]
    assert entry == {"group_key": "b", "threshold": "always_think", "ucb": None, "n": 1}
    assert "group b: threshold always_think (n=1)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["calibrate", "simulate"])
def test_smallest_pi_keeps_nothing_and_exits_zero(tmp_path, capsys, records_file, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec()))
    base = {
        "calibrate": ["--records", records_file, *EPS],
        "simulate": ["--spec", str(spec), "--n-cal", "60", "--trials", "2", *EPS],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *base, "--pi", "5e-324", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text())
    if command == "calibrate":
        assert [t["threshold"] for t in data["thresholds"]] == ["always_think", "always_think"]
    else:
        # the spec's one group never loses, so only always_think routes nothing cheap
        assert data["efficiency"] == 0.0


@pytest.mark.parametrize("command,option", [
    ("calibrate", "--out"), ("calibrate", "--report"), ("route", "--out"),
    ("evaluate", "--out"), ("simulate", "--out"), ("cluster", "--out"),
])
def test_unwritable_output_exits_four(tmp_path, capsys, records_file, policy_file, command, option):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tiny_spec()))
    base = {
        "calibrate": ["--records", records_file, *EPS],
        "route": ["--policy", policy_file, "--records", records_file],
        "evaluate": ["--policy", policy_file, "--records", records_file],
        "simulate": ["--spec", str(spec), "--n-cal", "50", "--trials", "2", *EPS],
        "cluster": ["--records", records_file, "--k", "2"],
    }[command]
    missing = tmp_path / "missing" / "out.json"
    outputs = {"--out": str(tmp_path / "out.json"), option: str(missing)}
    assert main([command, *base, *(arg for pair in outputs.items() for arg in pair)]) == 4
    err = capsys.readouterr().err
    assert f"error: cannot write {missing}: No such file or directory" in err and "Traceback" not in err
    assert not missing.parent.exists()


@pytest.mark.parametrize("old", [None, "old policy\n"], ids=["fresh", "existing"])
@pytest.mark.parametrize("blocker", ["missing-directory", "directory"])
def test_calibrate_writes_neither_output_unless_both_can_be_written(tmp_path, capsys, records_file,
                                                                     old, blocker):
    out = tmp_path / "p.json"
    if old is not None:
        out.write_text(old)
    report = tmp_path / "missing" / "r.json"
    if blocker == "directory":
        report = tmp_path / "r.json"
        report.mkdir()
    before = sorted(tmp_path.iterdir())
    assert main(["calibrate", "--records", records_file, *EPS, "--out", str(out), "--report", str(report)]) == 4
    err = capsys.readouterr().err
    assert f"error: cannot write {report}: " in err and "Traceback" not in err
    if old is None:
        assert not out.exists()
    else:
        assert out.read_text() == old
    assert sorted(tmp_path.iterdir()) == before  # no temporary file left behind


def test_calibrate_report_needs_a_path_of_its_own(tmp_path, capsys, monkeypatch, records_file):
    # both outputs are one file: the report would land over the policy
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["calibrate", "--records", records_file, *EPS, "--out", "p.json", "--report", "./p.json"]) == 4
    err = capsys.readouterr().err
    assert "error: --report ./p.json is the --out file" in err and "Traceback" not in err
    assert not (tmp_path / "p.json").exists() and sorted(tmp_path.iterdir()) == before


# ----------------------------------------------------------------- cluster


def test_cluster_writes_partition(tmp_path, records_file, capsys):
    out = tmp_path / "partition.json"
    assert main(["cluster", "--records", records_file, "--k", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "centroids"
    assert len(data["centroids"]) == 2
    assert "centroids" in capsys.readouterr().out


@pytest.mark.parametrize("k", [2, 3])
def test_cluster_output_is_pinned(tmp_path, k):
    # the partitions of a committed file with many repeated scores, byte for byte
    data = Path(__file__).parent / "data" / "cluster"
    out = tmp_path / "partition.json"
    assert main(["cluster", "--records", str(data / "records.jsonl"), "--k", str(k), "--out", str(out)]) == 0
    assert out.read_bytes() == (data / f"partition_k{k}.json").read_bytes()


def test_cluster_k_too_large(tmp_path):
    path = write_jsonl(tmp_path / "r.jsonl",
                       [{"id": "a", "uncertainty": 0.5},
                        {"id": "b", "uncertainty": 0.5}])
    assert main(["cluster", "--records", path, "--k", "2",
                 "--out", str(tmp_path / "p.json")]) == 4


# ------------------------------------------------------------- determinism


def test_repeated_runs_are_byte_identical(tmp_path, records_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["calibrate", "--records", records_file, *EPS, "--seed", "21"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
