"""The benchmark reaches into pac_route from outside: its tracer patches
functions by name, and its self-test corrupts a policy through
`dataclasses.replace`.  Both must keep working, or `perfbench/run.py --trace 1`
and `--self-test` break after a refactor."""

import importlib
import json
from pathlib import Path

import pac_route.cli as cli
from pac_route.calibration import GroupThreshold, LabelAssigner, RoutingPolicy, save_policy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import LEAVES, TRACED

    for module, function, _ in TRACED:
        assert callable(getattr(importlib.import_module(f"pac_route.{module}"), function, None)), \
            f"pac_route.{module}.{function}"
    assert LEAVES <= {f"{module}.{function}" for module, function, _ in TRACED}


def test_threshold_fault_routes_cheap_just_above_the_threshold(monkeypatch, tmp_path):
    """The threshold fault shifts a certified threshold above 0.99 past 1.0;
    a policy built with it must still route, now cheap up to the shift."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import THRESHOLD_SHIFT, _install_fault

    policy = RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0, assigner=LabelAssigner(("g",)),
                           thresholds=(GroupThreshold("g", 0.995, 0.04, 100),))
    save_policy(policy, tmp_path / "policy.json")
    scores = [0.5, 0.995, 0.995 + THRESHOLD_SHIFT / 2, 1.0]
    (tmp_path / "r.jsonl").write_text("".join(
        json.dumps({"id": f"r{i}", "uncertainty": u, "group_label": "g"}) + "\n" for i, u in enumerate(scores)))
    out = tmp_path / "decisions.jsonl"
    argv = ["route", "--policy", str(tmp_path / "policy.json"), "--records", str(tmp_path / "r.jsonl"),
            "--out", str(out)]

    def actions():
        assert cli.main(argv) == 0
        return [json.loads(line)["action"] for line in out.read_text().splitlines()]

    assert actions() == ["cheap", "cheap", "think", "think"]
    monkeypatch.setattr(cli, "route", cli.route)  # restored after the test
    _install_fault(cli, "threshold")
    assert actions() == ["cheap"] * 4
