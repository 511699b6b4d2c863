"""numpy is the only runtime dependency: no subcommand loads scipy.

Each subcommand runs in a fresh interpreter, so modules imported by the test
suite itself (scipy included, for the oracles) cannot mask an import the
command makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pac_route
from pac_route.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(pac_route.__file__).resolve().parents[1]

# runs pac_route.cli.main on argv, then prints the scipy modules it loaded
PROBE = """
import json, sys
from pac_route.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy."))}))
"""


def run_probe(argv, cwd):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("probe")
    rng = np.random.default_rng(1)
    rows = [
        {"id": f"r{i}", "uncertainty": float(rng.uniform()),
         "group_label": "easy" if i % 2 else "hard", "loss": float(rng.uniform() < 0.1),
         "tokens_thinking": 200, "tokens_cheap": 20}
        for i in range(200)
    ]
    (tmp / "records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["calibrate", "--records", str(tmp / "records.jsonl"), "--epsilon", "0.1",
                 "--out", str(tmp / "policy.json")]) == 0
    return tmp


COMMANDS = {
    "calibrate-gpac": ["calibrate", "--records", "records.jsonl", "--mode", "gpac",
                       "--epsilon", "0.1", "--out", "gpac.json"],
    "calibrate-cpac": ["calibrate", "--records", "records.jsonl", "--mode", "cpac", "--k", "2",
                       "--epsilon", "0.1", "--out", "cpac.json"],
    "route": ["route", "--policy", "policy.json", "--records", "records.jsonl",
              "--out", "decisions.jsonl"],
    "evaluate": ["evaluate", "--policy", "policy.json", "--records", "records.jsonl",
                 "--stp", "router", "--trials", "3", "--out", "metrics.json"],
    "simulate": ["simulate", "--spec", str(DATA / "hetero3.json"), "--method", "cpac", "--k", "3",
                 "--n-cal", "300", "--trials", "2", "--epsilon", "0.1", "--out", "coverage.json"],
    "cluster": ["cluster", "--records", "records.jsonl", "--k", "3", "--out", "partition.json"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_never_imports_scipy(inputs, command):
    result = run_probe(COMMANDS[command], inputs)
    assert result == {"code": 0, "scipy": []}
