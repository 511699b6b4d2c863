"""pac-route benchmark: three CLI workloads, output checks, optional tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout (the directory holding src/pac_route).
Inputs are generated from --seed by perfbench/inputs.py (numpy only); the
program sees only files.  Each workload runs in its own fresh process
(perfbench/worker.py) that imports pac_route.cli, warms up on a small input,
then repeats one pass of CLI commands on the same inputs for --seconds: a
closed loop with one caller and no threads.  Every output is checked
(perfbench/checks.py).  With --trace 1 the worker alternates untraced and
traced passes, and the per-layer metrics come from the traced passes' spans
(perfbench/spans.py, perfbench/layers.py).  The bounded timings, setup_s and
pass_norm_s, are normalised to a nominal CPU speed sampled while the program
runs (worker.SpeedProbe), because the host's speed shifts within seconds;
raw wall times are reported beside them.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A full, stamped result is
written to .perfbench/results/.  --self-test corrupts the program from
outside in three ways and shows that each one makes operations fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import METRICS as LAYER_METRICS, layer_self_times, per_layer  # noqa: E402

DEFAULT_SEED = 20260822
EPSILON = "0.05"
SETUP_PROBES = 4          # extra fresh processes that only set up; median of 5
TIME_LIMIT_S = 170.0      # every run ends within this, worker included

DEPLOY_SIZES = {"calibrate": 50_000, "route": 200_000, "evaluate": 20_000}
WARMUP_SIZES = {"calibrate": 600, "route": 600, "evaluate": 300}
SELF_TEST_SIZES = {"calibrate": 5_000, "route": 20_000, "evaluate": 2_000}
EVAL_TRIALS = 20

SIMULATIONS = {
    "coverage-gpac": {"spec": "steep2.json", "method": "gpac", "n_cal": 1500, "trials": 500,
                      "extra": ["--ucb", "clt"]},
    "coverage-cpac": {"spec": "hetero3.json", "method": "cpac", "n_cal": 3200, "trials": 30,
                      "extra": ["--ucb", "clt", "--k", "3", "--cluster-mode", "joint"]},
}
WORKLOADS = ("deploy-gpac", *SIMULATIONS)

# name: (unit, better) of every end-to-end metric the benchmark reports.
# REPORTED is the set in BENCHMARK.json; the rest are printed and stored.
E2E = {
    "setup_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "pass_norm_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "efficiency": ("fraction", "higher"),
    "calibrate_s": ("s", "lower"),
    "route_krec_per_s": ("krec/s", "higher"),
    "evaluate_s": ("s", "lower"),
    "sim_trials_per_s": ("trials/s", "higher"),
    "coverage_min": ("fraction", "higher"),
    "stp_pct": ("%", "higher"),
    "routed_error": ("fraction", "lower"),
    "failed_frac": ("fraction", "lower"),
}
REPORTED = ("setup_s", "pass_norm_s", "peak_rss_mb", "efficiency")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _deploy_plan(work: Path, seed: int, sizes: dict[str, int], stream: int = 0) -> tuple[list, dict]:
    pops = inputs.deploy_inputs(seed, work, sizes, stream)
    cal, route, ev = work / "calibrate.jsonl", work / "route.jsonl", work / "evaluate.csv"
    policy, decisions, metrics = work / "policy.json", work / "decisions.jsonl", work / "evaluate.json"
    commands = [
        {"name": "calibrate", "outputs": [str(policy)], "argv": [
            "calibrate", "--records", str(cal), "--mode", "gpac", "--loss-kind", "binary",
            "--epsilon", EPSILON, "--seed", str(seed), "--out", str(policy)]},
        {"name": "route", "outputs": [str(decisions)], "argv": [
            "route", "--policy", str(policy), "--records", str(route), "--out", str(decisions)]},
        {"name": "evaluate", "outputs": [str(metrics)], "argv": [
            "evaluate", "--policy", str(policy), "--records", str(ev), "--loss-kind", "binary",
            "--trials", str(EVAL_TRIALS), "--stp", "router", "--seed", str(seed), "--out", str(metrics)]},
    ]
    return commands, {"pops": pops, "files": [cal, route, ev]}


def _simulate_argv(sim: dict, seed: int, trials: int, n_cal: int, out: Path) -> list[str]:
    return [
        "simulate", "--spec", str(HERE / "specs" / sim["spec"]), "--method", sim["method"],
        *sim["extra"], "--n-cal", str(n_cal), "--epsilon", EPSILON, "--trials", str(trials),
        "--seed", str(seed), "--out", str(out),
    ]


def build_plan(workload: str, seed: int, work: Path, sizes=DEPLOY_SIZES) -> tuple[list, list, dict]:
    """(commands of one pass, warm-up argvs, context for the checks)."""
    if workload == "deploy-gpac":
        commands, ctx = _deploy_plan(work, seed, sizes)
        warm = work / "warmup"
        warm.mkdir()
        warm_commands, _ = _deploy_plan(warm, seed, WARMUP_SIZES, stream=1)
        return commands, [c["argv"] for c in warm_commands], ctx
    sim = SIMULATIONS[workload]
    out = work / "coverage.json"
    commands = [{"name": "simulate", "outputs": [str(out)],
                 "argv": _simulate_argv(sim, seed, sim["trials"], sim["n_cal"], out)}]
    warmup = [_simulate_argv(sim, seed, 2, 200, work / "warmup.json")]
    return commands, warmup, {"files": [HERE / "specs" / sim["spec"]], "sim": sim}


def run_worker(plan: dict, work: Path, tag: str, deadline: float, probe: bool = False) -> dict:
    plan = dict(plan, result=str(work / f"{tag}.json"))
    plan_path = work / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    argv = [sys.executable, str(HERE / "worker.py"), str(plan_path)] + (["--probe"] if probe else [])
    try:
        done = subprocess.run(argv, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} did not finish within the time limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{tag} exited with code {done.returncode}")
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    if not Path(result["pac_route"]).resolve().is_relative_to(Path("src").resolve()):
        raise BenchError(f"pac_route was imported from {result['pac_route']}, not from ./src")
    return result


def check_outputs(workload: str, result: dict, commands: list, ctx: dict, seed: int) -> tuple[list, dict, dict]:
    """(problems, failed-op flags per (pass, op), values read from the outputs)."""
    passes = result["passes"]
    problems: list[str] = []
    failed = {}
    for p, run in enumerate(passes):
        for o, op in enumerate(run["ops"]):
            crashed = op["exit"] != 0 or op["error"] is not None
            if crashed:
                problems.append(f"pass {p} {op['name']}: exit {op['exit']} {op['error'] or ''}".strip())
            differs = op["digests"] != passes[0]["ops"][o]["digests"]
            if differs:
                problems.append(f"pass {p} {op['name']}: output differs from pass 0")
            failed[(p, o)] = crashed or differs

    def mark(name: str, found: list[str]) -> None:
        if found:
            problems.extend(found)
            for (p, o) in failed:
                if passes[p]["ops"][o]["name"] == name:
                    failed[(p, o)] = True

    outputs = {c["name"]: Path(c["outputs"][0]) for c in commands}
    missing = [name for name, path in outputs.items() if not path.exists()]
    for name in missing:
        mark(name, [f"{name} wrote no output"])
    values: dict = {}
    if workload == "deploy-gpac":
        if "calibrate" in missing:
            return problems, failed, values
        pops = ctx["pops"]
        policy = json.loads(outputs["calibrate"].read_text(encoding="utf-8"))
        mark("calibrate", checks.check_policy(policy, pops["calibrate"]))
        if "route" not in missing:
            found, branches = checks.check_route(policy, outputs["route"], pops["route"])
            mark("route", found)
            values["branches"] = branches
            values["efficiency"] = branches.get("decided_cheap", 0) / len(pops["route"].ids)
        if "evaluate" not in missing:
            report = json.loads(outputs["evaluate"].read_text(encoding="utf-8"))
            mark("evaluate", checks.check_evaluate(policy, report, pops["evaluate"], EVAL_TRIALS, seed))
            values.update(stp_pct=100.0 * report["stp"], routed_error=report["error"])
    elif "simulate" not in missing:
        sim = ctx["sim"]
        report = json.loads(outputs["simulate"].read_text(encoding="utf-8"))
        mark("simulate", checks.check_simulate(report, sim["trials"], sim["n_cal"], sim["method"]))
        values.update(
            coverage_min=min(report["per_group_coverage"].values()),
            efficiency=report["efficiency"],
            per_group_coverage=report["per_group_coverage"],
        )
    return problems, failed, values


def end_to_end(workload: str, result: dict, probed: list[dict], values: dict, failed_frac: float) -> dict:
    plain = [p for p in result["passes"] if not p["traced"]]

    def wall(name: str) -> float:
        return statistics.median(op["wall_s"] for p in plain for op in p["ops"] if op["name"] == name)

    m = {
        "setup_s": statistics.median(r["setup_s"] for r in probed),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in probed),
        "pass_norm_s": statistics.median(p["norm_s"] for p in plain),
        "pass_s": statistics.median(p["wall_s"] for p in plain),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed_frac,
    }
    m.update({k: values[k] for k in ("efficiency", "coverage_min", "stp_pct", "routed_error")
              if k in values})
    if workload == "deploy-gpac":
        m.update(calibrate_s=wall("calibrate"), evaluate_s=wall("evaluate"),
                 route_krec_per_s=DEPLOY_SIZES["route"] / 1000.0 / wall("route"))
    else:
        m["sim_trials_per_s"] = SIMULATIONS[workload]["trials"] / wall("simulate")
    return m


def traced_metrics(result: dict) -> tuple[dict, list[str], list[str]]:
    """(per-layer medians over traced passes, accounting problems, breakdown lines)."""
    plain = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    traced = [p["wall_s"] for p in result["passes"] if p["traced"]]
    per_pass = [per_layer(t) for t in result["traces"]]
    metrics = {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]}
    metrics["bench.trace_overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    problems, lines = [], []
    for i, trace in enumerate(result["traces"]):
        for op, layers in sorted(layer_self_times(trace["spans"]).items()):
            wall = layers.pop("wall")
            total = sum(layers.values())
            if abs(total - wall) > 1e-6 * max(1.0, wall):
                problems.append(f"traced op {op}: layer self times sum to {total}, wall {wall}")
            if i == 0:
                parts = " + ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
                lines.append(f"traced op {op}: wall {wall:.3f} s = {parts}")
    return metrics, problems, lines


def stamp(seed: int, digests: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        target = Path(".git") / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    src = hashlib.sha256()
    for path in sorted(Path("src/pac_route").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed, "input_sha256": digests,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, fault=None,
        sizes=DEPLOY_SIZES, probes: int = SETUP_PROBES, deadline: float) -> dict:
    """One benchmark run; returns the full result (stamp, checks, metrics)."""
    work = Path(".perfbench/work") / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands, warmup, ctx = build_plan(workload, seed, work, sizes)
        digests = {p.name: inputs.sha256(p) for p in ctx["files"]}
        plan = {"commands": commands, "warmup": warmup, "seconds": seconds, "trace": trace,
                "min_passes": 2, "fault": fault}
        probed = [run_worker(plan, work, f"probe{i}", deadline, probe=True) for i in range(probes)]
        result = run_worker(plan, work, "worker", deadline)
        probed.append(result)
        setups = [r["setup_s"] for r in probed]
        problems, failed, values = check_outputs(workload, result, commands, ctx, seed)
        attempted, n_failed = len(failed), sum(failed.values())
        out = {
            "workload": workload, "stamp": stamp(seed, digests), "seconds": seconds, "trace": trace,
            "fault": fault, "attempted": attempted, "failed": n_failed, "setup_samples_s": setups,
            "setup_wall_samples_s": [r["setup_wall_s"] for r in probed],
            "pass_walls_s": [[p["traced"], p["wall_s"]] for p in result["passes"]],
            "pass_cpus_s": [[p["traced"], p["cpu_s"]] for p in result["passes"]],
            "pass_norms_s": [[p["traced"], p["norm_s"]] for p in result["passes"]],
            "ops": [{k: op[k] for k in ("name", "wall_s", "cpu_s", "norm_s", "speed", "speed_samples")}
                    for p in result["passes"] for op in p["ops"]],
            "values": values, "problems": problems,
            "end_to_end": end_to_end(workload, result, probed, values, n_failed / attempted),
        }
        if trace:
            layer_metrics, accounting, out["breakdown"] = traced_metrics(result)
            out["per_layer"] = layer_metrics
            out["problems"] += accounting
        out["correct"] = not out["problems"]
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(out: dict) -> int:
    """Human-readable lines, then the one-line JSON result (exit code 0), or
    exit code 3 when failed commands left a reported metric unmeasured."""
    s = out["stamp"]
    print(f"workload {out['workload']} seed {s['seed']} trace {int(out['trace'])}: "
          f"nproc {s['nproc']}, {s['cpu_model']}, python {s['python']}, numpy {s['numpy']}, "
          f"scipy {s['scipy']}, commit {s['git_commit']}, src {s['src_sha256'][:16]}")
    for name, digest in s["input_sha256"].items():
        print(f"input {name} sha256 {digest}")
    for name, value in out["end_to_end"].items():
        unit, better = E2E[name]
        print(f"{name:<18} {value:>14.6g} {unit:<9} ({better} is better)")
    for line in out.get("breakdown", []):
        print(line)
    for name, value in out.get("per_layer", {}).items():
        unit, better = LAYER_METRICS[name]
        print(f"{name:<32} {value:>14.6g} {unit:<9} ({better} is better)")
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}")
    if out["trace"]:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in out["per_layer"].items()}
    else:
        unmeasured = [k for k in REPORTED if k not in out["end_to_end"]]
        if unmeasured:
            print(f"error: no value for {unmeasured}", file=sys.stderr)
            return 3
        metrics = {k: {"value": out["end_to_end"][k], "unit": E2E[k][0]} for k in REPORTED}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


def save(out: dict, name: str) -> None:
    results = Path(".perfbench/results")
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


def declared_metrics_match() -> bool:
    """BENCHMARK.json lists exactly the metrics and units this script reports."""
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    return e2e == {k: E2E[k] for k in REPORTED} and layers == LAYER_METRICS


def self_test(seed: int, deadline: float) -> int:
    """Clean run must not fail; each corruption must raise failed_frac above 0."""
    ok = declared_metrics_match()
    print(f"self-test BENCHMARK.json metrics match the code: {'ok' if ok else 'FAILED'}")
    for fault in (None, "flip", "threshold", "exit"):
        out = run("deploy-gpac", seed, 0.0, False, fault=fault, sizes=SELF_TEST_SIZES,
                  probes=0, deadline=deadline)
        frac = out["end_to_end"]["failed_frac"]
        passed = frac == 0.0 if fault is None else frac > 0.0
        ok = ok and passed
        print(f"self-test fault={fault or 'none'}: failed_frac {frac:.3f} "
              f"({out['failed']}/{out['attempted']}) {'ok' if passed else 'NOT DETECTED' if fault else 'FAILED'}")
        for problem in out["problems"][:3]:
            print(f"  {problem.splitlines()[0]}")
    print("self-test", "passed" if ok else "failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    if not Path("src/pac_route/cli.py").is_file():
        print("error: run from the root of a pac-route checkout (no src/pac_route here)", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(args.seed, deadline)
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), deadline=deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    save(out, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}")
    return report(out)


if __name__ == "__main__":
    sys.exit(main())
