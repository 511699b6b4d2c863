"""numpy is the only runtime dependency: no subcommand loads scipy.  The
module structure holds: `calibration` does not depend on `clustering`, and
every import sits at module level.

Each subcommand runs in a fresh interpreter, so modules imported by the test
suite itself (scipy included, for the oracles) cannot mask an import the
command makes.
"""

import ast
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


# registers the package without running its __init__ (which imports every
# module), imports calibration, loads a partition assigner and prints the
# pac_route modules that were loaded
CALIBRATION_PROBE = """
import json, sys, types
package = types.ModuleType("pac_route")
package.__path__ = [sys.argv[1]]
sys.modules["pac_route"] = package
import pac_route.calibration
pac_route.calibration.assigner_from_dict({"kind": "centroids", "centroids": [0.2, 0.8]})
print(json.dumps(sorted(name for name in sys.modules if name.startswith("pac_route."))))
"""


def test_calibration_does_not_load_clustering():
    done = subprocess.run(
        [sys.executable, "-c", CALIBRATION_PROBE, str(SRC / "pac_route")], capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "pac_route.calibration" in loaded and "pac_route.clustering" not in loaded


def test_no_import_inside_a_function():
    found = []
    for path in sorted((SRC / "pac_route").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno} in {node.name}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []
