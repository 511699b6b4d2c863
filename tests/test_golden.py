"""Golden CLI outputs: calibrate, route and evaluate rerun on committed inputs
and compared byte for byte with committed outputs.

The inputs in tests/data/golden/ were written once by perfbench/inputs.py,
`deploy_inputs(26, Path("tests/data/golden"), {"calibrate": 400, "route": 300,
"evaluate": 300})`: three labels, an unlabeled share, a label ("rare") with
fewer calibration records than the default n_min, binary losses from answer
triples, and token counts in the CSV.  Route and evaluate read the committed
golden policies, so each case stands alone.  A change that moves any of these
bytes regenerates them with `PYTHONPATH=src python tests/test_golden.py` and
says why.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

import pac_route.cli as cli
from pac_route.cli import main
from reference import use_compensated_sum

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected"


def _calibrate(name: str, *mode: str) -> list[str]:
    return ["calibrate", "--records", str(GOLDEN / "calibrate.jsonl"), "--loss-kind", "binary",
            "--epsilon", "0.1", *mode, "--out", f"policy-{name}.json", "--report", f"report-{name}.json"]


def _route(name: str) -> list[str]:
    return ["route", "--policy", str(EXPECTED / f"policy-{name}.json"), "--records", str(GOLDEN / "route.jsonl"),
            "--out", f"decisions-{name}.jsonl"]


def _evaluate(name: str, stp: str) -> list[str]:
    return ["evaluate", "--policy", str(EXPECTED / f"policy-{name}.json"), "--records", str(GOLDEN / "evaluate.csv"),
            "--loss-kind", "binary", "--stp", stp, "--trials", "5", "--seed", "3", "--out", f"evaluate-{name}.json"]


# calibrate cases come first: route and evaluate read the policies they write
CASES = {
    "calibrate-marginal": _calibrate("marginal", "--mode", "marginal", "--method", "hoeffding"),
    "calibrate-gpac": _calibrate("gpac", "--mode", "gpac"),
    "calibrate-cpac-split": _calibrate("cpac-split", "--mode", "cpac", "--k", "3"),
    "calibrate-cpac-joint": _calibrate("cpac-joint", "--mode", "cpac", "--k", "3", "--cluster-mode", "joint",
                                       "--joint-slack", "0.01"),
    "route-gpac": _route("gpac"),
    "route-cpac-split": _route("cpac-split"),
    "evaluate-gpac": _evaluate("gpac", "router"),
    "evaluate-cpac-split": _evaluate("cpac-split", "cascade"),
}


def _run(argv: list[str]) -> dict[str, bytes]:
    """Run the CLI on `argv` in the working directory: its stdout, keyed
    "stdout", and the bytes of every file it was asked to write."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    written = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--out", "--report")]
    return {"stdout": stdout.getvalue().encode(), **{name: Path(name).read_bytes() for name in written}}


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_match_the_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in _run(CASES[case]).items():
        expected = EXPECTED / (f"{case}.stdout" if name == "stdout" else name)
        assert data == expected.read_bytes(), f"{case}: {name} differs from {expected.name}"


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_keep_the_golden_bytes_under_a_compensated_sum(case, tmp_path, monkeypatch):
    """CPython 3.12 made the builtin `sum` of floats compensated; the figures add left to right on every Python."""
    use_compensated_sum(monkeypatch)
    test_cli_outputs_match_the_golden_bytes(case, tmp_path, monkeypatch)


FORK = os.fork
READ_WHOLE = cli._read_records


def _same_bytes_on_any_cpu_count(case: str, tmp_path, monkeypatch) -> None:
    """Spans of at least 512 bytes cut each golden input (16-78 kB) into one span per CPU, up to 25: the outputs
    keep their golden bytes, with one fork per span after the first and no read of the whole file but on one
    CPU."""
    monkeypatch.chdir(tmp_path)
    forks, whole = [], []  # forks, and reads of the whole file (the one-span path)

    def counted():
        forks.append(1)
        return FORK()

    def read_whole(*args, **kwargs):
        whole.append(1)
        return READ_WHOLE(*args, **kwargs)

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(cli, "_read_records", read_whole)
    _run(CASES[case])
    assert (forks, whole) == ([], [1])  # the input is under the default span floor
    monkeypatch.setattr(cli, "_SPAN_MIN", 512)
    for cpus in (1, 2, 3, 25):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        forks.clear()
        whole.clear()
        for name, data in _run(CASES[case]).items():
            expected = EXPECTED / (f"{case}.stdout" if name == "stdout" else name)
            assert data == expected.read_bytes(), f"{case} on {cpus} CPUs: {name} differs from {expected.name}"
        assert (len(forks), len(whole)) == (cpus - 1, cpus == 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", [case for case in CASES if case.startswith("route-")])
def test_route_writes_the_golden_bytes_on_any_cpu_count(case, tmp_path, monkeypatch):
    _same_bytes_on_any_cpu_count(case, tmp_path, monkeypatch)


@pytest.mark.parametrize("case", [case for case in CASES if not case.startswith("route-")])
def test_calibrate_and_evaluate_write_the_golden_bytes_on_any_cpu_count(case, tmp_path, monkeypatch):
    """Each span sends back its resolved table, and the joined tables calibrate and evaluate as the whole file's."""
    _same_bytes_on_any_cpu_count(case, tmp_path, monkeypatch)


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    os.chdir(EXPECTED)
    for case, argv in CASES.items():
        (EXPECTED / f"{case}.stdout").write_bytes(_run(argv)["stdout"])
