"""Acceptance gate: twelve checks over the shipped guarantees.

Each check prints one ``[check NN] PASS/FAIL`` line (run pytest with -s or
-rA to see them on success) and pins its tolerances as module constants.
The Monte Carlo checks share their experiment runs through a module cache,
and a check's runtime budget counts every run it consumes, shared or not,
so the accounting errs on the slow side.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pac_route.calibration import (
    GroupThreshold,
    LabelAssigner,
    RoutingPolicy,
    TrivialAssigner,
    calibrate_gpac,
)
from pac_route.cli import main
from pac_route.clustering import ClusterConfig, kmeans_1d
from pac_route.estimator import (
    EstimatorConfig,
    ZSamples,
    draw_z_samples,
    ucb_clt,
    ucb_hoeffding,
)
from pac_route.evaluation import error_gap, group_sizes, stp, trial_error
from pac_route.records import LossSpec, RecordTable, cosine_loss
from pac_route.seeding import derive_seed, substream
from pac_route.simulation import coverage_experiment, generate, load_spec
from reference import partition_gap, sample_group, threshold_for

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).parent / "data"

EPS = 0.05
ALPHA = 0.05
TRIALS = 500
SEED = 20260822

# 1 - alpha minus three binomial standard errors at 500 trials
COVERAGE_FLOOR = 0.9208
MARGINAL_BREAK = 0.90
EFFICIENCY_SLACK = 0.01


def verdict(num, name, ok, detail):
    print(f"[check {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


# Shared experiment runs.  Keyed by everything that feeds coverage_experiment
# so two checks asking for the same run pay for it once.

_RUNS = {}


def run_experiment(spec_name, method, ucb, n_cal, cluster=None):
    key = (spec_name, method, ucb, n_cal, None if cluster is None else cluster.mode)
    if key not in _RUNS:
        spec = load_spec(DATA / f"{spec_name}.json")
        start = time.perf_counter()
        report = coverage_experiment(
            spec, n_cal, TRIALS, EPS, method,
            EstimatorConfig(method=ucb, alpha=ALPHA, seed=SEED), cluster_config=cluster,
        )
        _RUNS[key] = (report, time.perf_counter() - start)
    return _RUNS[key]


# ------------------------------------------------- 1: closed-form oracles


def test_01_formula_oracles():
    start = time.perf_counter()
    config = EstimatorConfig(alpha=0.05, pi=0.5)
    hoeffding = ucb_hoeffding(ZSamples(z=np.zeros(200), u_origin=np.linspace(0.0, 1.0, 200)),
                              config, LossSpec(bound_B=1.0))
    delta = hoeffding.ucb[-1] - hoeffding.mean[-1]
    # the batch's last grid point, 0.4, routes every draw, as any threshold above it would
    curve = ucb_clt(ZSamples(z=np.array([2.0, 0.0, 2.0, 0.0]), u_origin=np.array([0.1, 0.2, 0.3, 0.4])), config)
    cos = cosine_loss((1.0, 0.0), (1.0, 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(delta - 0.19206) <= 1e-5
        and abs(curve.ucb[-1] - 1.94969) <= 1e-4
        and abs(cos - 0.29289321881345254) <= 1e-9
        and elapsed < 1.0
    )
    assert verdict(
        1, "formula oracles", ok,
        f"hoeffding={delta:.6f} clt={curve.ucb[-1]:.6f} cosine={cos:.10f} [{elapsed:.3f}s]",
    )


# ------------------------------------------ 2: importance-sampling target


def test_02_estimator_unbiasedness():
    # one draw per record, over the 5-loss pool tiled to n records
    start = time.perf_counter()
    losses = (1.0, 0.0, 0.5, 0.25, 1.0)
    n = 100_000
    records = RecordTable.from_records([
        dict(id=f"r{i}", uncertainty=0.1 + 0.2 * (i % 5), loss=losses[i % 5])
        for i in range(n)
    ], LossSpec())
    plugin = float(np.mean(losses))
    samples = draw_z_samples(
        records, EstimatorConfig(pi=0.5), np.random.default_rng(SEED)
    )
    se = float(np.std(samples.z, ddof=1)) / math.sqrt(n)
    gap = abs(float(np.mean(samples.z)) - plugin)
    elapsed = time.perf_counter() - start
    ok = len(samples) == n and gap <= 3 * se and elapsed < 5.0
    assert verdict(
        2, "estimator unbiasedness", ok,
        f"gap={gap:.6f} allowance={3 * se:.6f} over {n} draws [{elapsed:.2f}s]",
    )


# --------------------------------------------------- 3: clustering oracles


def brute_sse(xs, k):
    xs = np.sort(np.asarray(xs, dtype=float))
    best = math.inf
    for cuts in itertools.combinations(range(1, len(xs)), k - 1):
        edges = (0,) + cuts + (len(xs),)
        cost = sum(
            float(np.sum((xs[a:b] - xs[a:b].mean()) ** 2))
            for a, b in zip(edges[:-1], edges[1:])
        )
        best = min(best, cost)
    return best


def partition_sse(xs, k):
    part = kmeans_1d(xs, k)
    xs = np.asarray(xs, dtype=float)
    labels = np.array([part.resolve(None, x) for x in xs])
    return sum(
        float(np.sum((xs[labels == j] - xs[labels == j].mean()) ** 2))
        for j in range(part.k)
        if np.any(labels == j)
    )


def test_03_clustering_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    sse_checked = 0
    sse_ok = True
    while sse_checked < 200:
        n = int(rng.integers(2, 13))
        xs = np.round(rng.uniform(0, 1, n), 3)
        distinct = len(np.unique(xs))
        if distinct < 2:
            continue
        k = int(rng.integers(1, distinct + 1))
        sse_ok = sse_ok and abs(partition_sse(xs, k) - brute_sse(xs, k)) <= 1e-9
        sse_checked += 1
    gap_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k, 40))
        a = rng.integers(0, k, n)
        b = rng.integers(0, k, n)
        brute = min(
            float(np.mean(a != np.asarray(perm)[b]))
            for perm in itertools.permutations(range(k))
        )
        gap_ok = gap_ok and abs(partition_gap(a, b, k) - brute) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = sse_ok and gap_ok and elapsed < 10.0
    assert verdict(
        3, "clustering oracles", ok,
        f"sse 200/200 match={sse_ok} gap 200/200 match={gap_ok} [{elapsed:.2f}s]",
    )


# -------------------------------------- 4: per-group risk coverage floors


def test_04_per_group_coverage():
    # expected records per group stay over 300: smallest weights are
    # 0.4 * 1000 (pair2) and 0.33 * 1200 (hetero3)
    runs = [
        ("pair2", "clt", 1000), ("pair2", "hoeffding", 1000),
        ("hetero3", "clt", 1200), ("hetero3", "hoeffding", 1200),
    ]
    worst = 1.0
    seconds = 0.0
    for spec_name, ucb, n_cal in runs:
        report, elapsed = run_experiment(spec_name, "gpac", ucb, n_cal)
        seconds += elapsed
        worst = min(worst, min(report.per_group_coverage.values()))
    ok = worst >= COVERAGE_FLOOR and seconds < 120.0
    assert verdict(
        4, "per-group coverage", ok,
        f"min={worst:.4f} floor={COVERAGE_FLOOR} over {len(runs)} runs x {TRIALS} trials [{seconds:.1f}s]",
    )


# ------------------------------- 5: pooled calibration misses a rare group


def test_05_marginal_break_gpac_hold():
    gpac, t1 = run_experiment("hetero2", "gpac", "clt", 1500)
    marginal, t2 = run_experiment("hetero2", "marginal", "clt", 1500)
    gpac_min = min(gpac.per_group_coverage.values())
    marginal_min = min(marginal.per_group_coverage.values())
    seconds = t1 + t2
    ok = marginal_min < MARGINAL_BREAK and gpac_min >= COVERAGE_FLOOR and seconds < 120.0
    assert verdict(
        5, "marginal breaks where grouped holds", ok,
        f"marginal_min={marginal_min:.4f} gpac_min={gpac_min:.4f} [{seconds:.1f}s]",
    )


# ------------------------------------------------ 6: efficiency ordering


def test_06_efficiency_ordering():
    seconds = 0.0
    details = []
    ok = True
    for spec_name, n_cal in (("steep2", 1500), ("hetero2", 1500)):
        gpac, t1 = run_experiment(spec_name, "gpac", "clt", n_cal)
        marginal, t2 = run_experiment(spec_name, "marginal", "clt", n_cal)
        seconds += t1 + t2
        ok = ok and gpac.efficiency >= marginal.efficiency - EFFICIENCY_SLACK
        details.append(f"{spec_name} {gpac.efficiency:.4f}/{marginal.efficiency:.4f}")
    gpac, t1 = run_experiment("identical2", "gpac", "clt", 1200)
    marginal, t2 = run_experiment("identical2", "marginal", "clt", 1200)
    seconds += t1 + t2
    same_gap = abs(gpac.efficiency - marginal.efficiency)
    ok = ok and same_gap <= EFFICIENCY_SLACK and seconds < 120.0
    assert verdict(
        6, "efficiency ordering", ok,
        f"{' '.join(details)} identical-gap={same_gap:.4f} [{seconds:.1f}s]",
    )


# ------------------------------------- 7: calibration over learned groups


def test_07_learned_group_calibration():
    split = ClusterConfig(k=3, mode="split", split_fraction=0.5, seed=SEED)
    report, seconds = run_experiment("hetero3", "cpac", "clt", 1200, split)
    split_min = min(report.per_group_coverage.values())
    deficits = []
    for n_cal in (200, 800, 3200):
        joint = ClusterConfig(k=3, mode="joint", joint_slack=0.0, seed=SEED)
        rep, elapsed = run_experiment("hetero3", "cpac", "clt", n_cal, joint)
        seconds += elapsed
        deficits.append(max(
            max(0.0, (1 - ALPHA) - c) for c in rep.per_group_coverage.values()
        ))
    trend_ok = all(a >= b - 1e-12 for a, b in zip(deficits, deficits[1:]))
    ok = split_min >= COVERAGE_FLOOR and trend_ok and seconds < 240.0
    assert verdict(
        7, "learned-group calibration", ok,
        f"split_min={split_min:.4f} joint_deficits={['%.3f' % d for d in deficits]} [{seconds:.1f}s]",
    )


# ----------------------------- 8: held-out risk estimates stay near truth


def test_08_heldout_concentration():
    start = time.perf_counter()
    spec = load_spec(DATA / "steep2.json")
    master = derive_seed(SEED, "heldout")
    sizes = (100, 400)
    tols = (0.02, 0.05)
    violations = {
        (g.name, n, t): 0 for g in spec.groups for n in sizes for t in tols
    }
    for trial in range(TRIALS):
        records = generate(spec, 1500, substream(master, "trial", trial, "data"))
        cfg = EstimatorConfig(
            method="clt", alpha=ALPHA,
            seed=derive_seed(master, "trial", trial, "calibrate"),
        )
        policy, _ = calibrate_gpac(records, LabelAssigner(records.labels), EPS, cfg)
        for j, group in enumerate(spec.groups):
            row = threshold_for(policy, group.name)
            cut = -1.0 if row is None or row.threshold is None else row.threshold
            for n_test in sizes:
                u, loss = sample_group(
                    spec, j, n_test,
                    substream(master, "trial", trial, "test", group.name, n_test),
                )
                observed = float(np.mean(loss * (u <= cut)))
                for t in tols:
                    violations[(group.name, n_test, t)] += observed > EPS + t
    worst_margin = math.inf
    ok = True
    for (name, n_test, t), count in violations.items():
        bound = ALPHA + math.exp(-2.0 * n_test * t * t)
        bound += 3.0 * math.sqrt(bound * (1.0 - bound) / TRIALS)
        freq = count / TRIALS
        ok = ok and freq <= bound
        worst_margin = min(worst_margin, bound - freq)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert verdict(
        8, "held-out risk concentration", ok,
        f"worst margin to bound={worst_margin:.4f} over {len(violations)} cells [{elapsed:.1f}s]",
    )


# ------------------------------------------------- 9: metric identities


def test_09_metric_identities():
    rng = np.random.default_rng(SEED)
    stp_ok = True
    split_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        records = RecordTable.from_records([
            dict(
                id=f"r{i}",
                uncertainty=float(rng.random()),
                group_label=str(rng.choice(("a", "b", "c"))),
                loss=float(rng.integers(0, 2)),
                tokens_thinking=int(rng.integers(50, 500)),
                tokens_cheap=int(rng.integers(1, 120)),
            )
            for i in range(n)
        ], LossSpec())
        threshold = None if rng.random() < 0.2 else float(rng.random())
        policy = RoutingPolicy(
            epsilon=EPS, alpha=ALPHA, seed=0,
            assigner=TrivialAssigner(),
            thresholds=(GroupThreshold("all", threshold, 0.0, n),),
        )
        stp_ok = stp_ok and (
            stp(records, policy, "router") >= stp(records, policy, "cascade") - 1e-12
        )
        labeled = RoutingPolicy(
            epsilon=EPS, alpha=ALPHA, seed=0,
            assigner=LabelAssigner(("a", "b", "c")),
            thresholds=tuple(
                GroupThreshold(g, float(rng.random()), 0.0, n) for g in ("a", "b", "c")
            ),
        )
        err, per_group = trial_error(records, labeled)
        counts, _ = group_sizes(records, labeled)
        recombined = sum(counts[g] * per_group[g] for g in per_group) / len(records)
        split_ok = split_ok and abs(err - recombined) <= 1e-12
    gap = error_gap([{"a": 0.03, "b": 0.07, "c": 0.10}], 0.05)
    gap_ok = gap == pytest.approx(0.07, abs=0)
    ok = stp_ok and split_ok and gap_ok
    assert verdict(
        9, "metric identities", ok,
        f"router>=cascade={stp_ok} weighted-mean={split_ok} gap={gap!r}",
    )


# --------------------------------------------- 10: command determinism


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _is_strict_json(name, data):
    """Whether every JSON document of an output (each line of a .jsonl) parses
    without the NaN and +-Infinity tokens that RFC 8259 leaves out."""
    def refuse(token):
        raise ValueError(f"{name}: {token} is not a JSON number")

    texts = data.decode().splitlines() if name.endswith(".jsonl") else [data.decode()]
    try:
        for text in texts:
            json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


def test_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(7)
    rows = [
        {
            "id": f"d{i}", "uncertainty": round(float(rng.random()), 6),
            "group_label": ("lo", "hi")[i % 2], "loss": float(rng.integers(0, 2)),
            "tokens_thinking": 300, "tokens_cheap": 40,
        }
        for i in range(80)
    ]
    records = _write_rows(tmp_path / "records.jsonl", rows)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "flat",
        "groups": [{"name": "g", "weight": 1.0, "bins": [0.0, 1.0], "loss_prob": [0.02]}],
    }))

    def calibrate(out):
        assert main(["calibrate", "--records", records, "--epsilon", "0.1",
                     "--seed", "5", "--out", out]) == 0

    outputs = {}
    for attempt in ("first", "second"):
        d = tmp_path / attempt
        d.mkdir()
        policy = str(d / "policy.json")
        calibrate(policy)
        assert main(["route", "--policy", policy, "--records", records,
                     "--out", str(d / "decisions.jsonl")]) == 0
        assert main(["evaluate", "--policy", policy, "--records", records,
                     "--stp", "router", "--trials", "5", "--seed", "9",
                     "--out", str(d / "metrics.json")]) == 0
        assert main(["simulate", "--spec", str(spec_path), "--method", "gpac",
                     "--n-cal", "60", "--trials", "4", "--epsilon", "0.05",
                     "--seed", "13", "--out", str(d / "coverage.json")]) == 0
        assert main(["cluster", "--records", records, "--k", "2",
                     "--out", str(d / "partition.json")]) == 0
        outputs[attempt] = {
            name: (d / name).read_bytes()
            for name in ("policy.json", "decisions.jsonl", "metrics.json",
                         "coverage.json", "partition.json")
        }
    mismatched = [
        name for name in outputs["first"]
        if outputs["first"][name] != outputs["second"][name]
    ]
    not_strict = [name for name, data in outputs["first"].items() if not _is_strict_json(name, data)]
    ok = not mismatched and not not_strict
    assert verdict(
        10, "command determinism", ok,
        "5/5 outputs byte-identical and strict JSON" if ok
        else f"mismatch in {mismatched}, not strict JSON: {not_strict}",
    )


# ------------------------------------ 11: committed pilots reproduce exactly


def _pilot_cluster(label):
    if "split" in label:
        return ClusterConfig(k=3, mode="split", split_fraction=0.5, seed=SEED)
    if "joint" in label:
        return ClusterConfig(k=3, mode="joint", joint_slack=0.0, seed=SEED)
    return None


def test_11_pilots_reproduce():
    # every pilot run is one that checks 04-07 consume, so this reads the cache
    checked = 0
    mismatched = []
    for path in sorted((DATA / "pilots").glob("*.json")):
        pilot = json.loads(path.read_text())
        assert (pilot["trials"], pilot["epsilon"], pilot["alpha"], pilot["seed"]) == (TRIALS, EPS, ALPHA, SEED)
        for run in pilot["runs"]:
            expected = {k: v for k, v in run.items() if k != "label"}
            ucb = "hoeffding" if "hoeffding" in run["label"] else "clt"
            report, _ = run_experiment(
                pilot["spec"], run["method"], ucb, run["n_cal"], _pilot_cluster(run["label"])
            )
            checked += 1
            if report.to_dict() != expected:
                mismatched.append(f"{pilot['spec']} {run['label']}")
    ok = checked == 14 and not mismatched
    assert verdict(
        11, "pilots reproduce", ok,
        f"{checked - len(mismatched)}/{checked} runs identical"
        + (f"; mismatch in {mismatched}" if mismatched else ""),
    )


# ------------------------- 12: coverage where a group's risk crosses epsilon


# the same runs under the with-replacement draw this sampler replaced
WITH_REPLACEMENT = {"steep2": {"hard": 0.866}, "identical2": {"left": 0.876, "right": 0.896}}


def test_12_crossing_group_coverage():
    # check 06 runs both experiments, so this reads the cache
    seconds = 0.0
    worst = 1.0
    details = []
    for spec_name, n_cal in (("steep2", 1500), ("identical2", 1200)):
        report, elapsed = run_experiment(spec_name, "gpac", "clt", n_cal)
        seconds += elapsed
        worst = min(worst, min(report.per_group_coverage.values()))
        details += [
            f"{spec_name}/{group} {report.per_group_coverage[group]:.3f} (with replacement {before:.3f})"
            for group, before in WITH_REPLACEMENT[spec_name].items()
        ]
    ok = worst >= COVERAGE_FLOOR and seconds < 120.0
    assert verdict(
        12, "crossing-group coverage", ok,
        f"min={worst:.4f} floor={COVERAGE_FLOOR} {' '.join(details)} [{seconds:.1f}s]",
    )
