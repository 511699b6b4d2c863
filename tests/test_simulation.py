"""Synthetic populations and the coverage experiment around them."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pac_route.calibration import (
    GROUP_ALL,
    GroupThreshold,
    LabelAssigner,
    RoutingPolicy,
    TrivialAssigner,
)
from pac_route.clustering import ClusterConfig, Partition
from pac_route.estimator import EstimatorConfig
from pac_route import simulation
from pac_route.seeding import derive_seed, substream
from pac_route.simulation import (
    CoverageReport,
    GroupSpec,
    SyntheticSpec,
    _prob_at,
    coverage_experiment,
    generate,
    load_spec,
    mixture_profile,
    policy_true_metrics,
    true_risk,
)
from reference import binomial_slack, group_labels, sample_group


def two_group_spec():
    return SyntheticSpec(groups=(
        GroupSpec(name="lo", weight=0.6, bin_edges=(0.0, 0.5, 1.0),
                  loss_prob=(0.1, 0.3), tokens_thinking=100, tokens_cheap=10),
        GroupSpec(name="hi", weight=0.4, bin_edges=(0.0, 1.0),
                  loss_prob=(0.8,), tokens_thinking=200, tokens_cheap=20),
    ))


# ------------------------------------------------------------ validation


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(name="g", weight=0.0, bin_edges=(0, 1), loss_prob=(0.1,))
    with pytest.raises(ValueError):
        GroupSpec(name="g", weight=1.0, bin_edges=(0, 0.5), loss_prob=(0.1,))
    with pytest.raises(ValueError):
        GroupSpec(name="g", weight=1.0, bin_edges=(0, 0.5, 0.4, 1), loss_prob=(0.1,) * 3)
    with pytest.raises(ValueError):
        GroupSpec(name="g", weight=1.0, bin_edges=(0, 1), loss_prob=(1.2,))
    with pytest.raises(ValueError):
        GroupSpec(name="g", weight=1.0, bin_edges=(0, 1), loss_prob=(0.1, 0.2))


def test_spec_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        SyntheticSpec(groups=(
            GroupSpec(name="a", weight=0.6, bin_edges=(0, 1), loss_prob=(0.1,)),
            GroupSpec(name="b", weight=0.6, bin_edges=(0, 1), loss_prob=(0.1,)),
        ))


def test_spec_names_must_be_distinct():
    with pytest.raises(ValueError):
        SyntheticSpec(groups=(
            GroupSpec(name="a", weight=0.5, bin_edges=(0, 1), loss_prob=(0.1,)),
            GroupSpec(name="a", weight=0.5, bin_edges=(0, 1), loss_prob=(0.1,)),
        ))


def test_spec_json_round_trip(tmp_path):
    spec = dataclasses.replace(two_group_spec(), name="two", notes="lo and hi")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "two",
        "notes": "lo and hi",
        "groups": [
            {"name": "lo", "weight": 0.6, "bins": [0.0, 0.5, 1.0], "loss_prob": [0.1, 0.3],
             "tokens_thinking": 100, "tokens_cheap": 10},
            {"name": "hi", "weight": 0.4, "bins": [0.0, 1.0], "loss_prob": [0.8],
             "tokens_thinking": 200, "tokens_cheap": 20},
        ],
    }))
    assert load_spec(path) == spec


def test_committed_specs_load():
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    for name in ("hetero2", "steep2", "hetero3", "pair2", "identical2"):
        spec = load_spec(data / f"{name}.json")
        assert abs(sum(g.weight for g in spec.groups) - 1.0) < 1e-9


# ------------------------------------------------------------- true risk


def test_true_risk_closed_form():
    spec = two_group_spec()
    # lo group: 0.1 over [0, 0.5), 0.3 over [0.5, 1)
    assert true_risk(spec, 0, 0.0) == pytest.approx(0.0)
    assert true_risk(spec, 0, 0.4) == pytest.approx(0.04)
    assert true_risk(spec, 0, 0.5) == pytest.approx(0.05)
    assert true_risk(spec, 0, 0.75) == pytest.approx(0.05 + 0.3 * 0.25)
    assert true_risk(spec, 0, 1.0) == pytest.approx(0.2)
    assert true_risk(spec, 1, 0.25) == pytest.approx(0.2)


def test_true_risk_monotone_and_bounded():
    spec = two_group_spec()
    grid = np.linspace(0, 1, 101)
    for j in range(2):
        vals = [true_risk(spec, j, float(u)) for u in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert 0.0 <= vals[-1] <= 1.0


def test_sample_group_matches_bin_probabilities():
    spec = two_group_spec()
    u, loss = sample_group(spec, 0, 40_000, np.random.default_rng(3))
    assert u.min() >= 0 and u.max() <= 1
    lo_rate = loss[u < 0.5].mean()
    hi_rate = loss[u >= 0.5].mean()
    assert abs(lo_rate - 0.1) < 3 * math.sqrt(0.1 * 0.9 / 20_000)
    assert abs(hi_rate - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 20_000)


def _generate_reference(spec, n, rng):
    """The list-of-records generator the table replaced, kept as an oracle."""
    group_idx = rng.choice(len(spec.groups), size=n, p=spec.weights)
    u = rng.random(n)
    coins = rng.random(n)
    probs = np.empty(n)
    for j, group in enumerate(spec.groups):
        mask = group_idx == j
        if mask.any():
            probs[mask] = _prob_at(group, u[mask])
    losses = (coins < probs).astype(float)
    return [
        dict(
            id=f"s{i}",
            uncertainty=float(u[i]),
            group_label=spec.groups[group_idx[i]].name,
            loss=float(losses[i]),
            tokens_thinking=spec.groups[group_idx[i]].tokens_thinking,
            tokens_cheap=spec.groups[group_idx[i]].tokens_cheap,
        )
        for i in range(n)
    ]


def same_table(a, b):
    return (a.labels == b.labels and a.ids.tolist() == b.ids.tolist()
            and all(np.array_equal(getattr(a, c), getattr(b, c))
                    for c in ("uncertainty", "loss", "label_code",
                              "tokens_thinking", "tokens_cheap")))


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 37), (2, 1500), (3, 0)])
def test_generate_matches_reference_records(seed, n):
    spec = load_spec(__import__("pathlib").Path(__file__).parent / "data" / "hetero3.json")
    table = generate(spec, n, substream(seed, "trial", 0, "data"))
    records = _generate_reference(spec, n, substream(seed, "trial", 0, "data"))
    assert len(table) == len(records) == n
    assert table.ids.tolist() == [r["id"] for r in records]
    assert table.uncertainty.tolist() == [r["uncertainty"] for r in records]
    assert table.loss.tolist() == [r["loss"] for r in records]
    assert group_labels(table).tolist() == [r["group_label"] for r in records]
    assert table.tokens_thinking.tolist() == [r["tokens_thinking"] for r in records]
    assert table.tokens_cheap.tolist() == [r["tokens_cheap"] for r in records]


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*.json")), ids=lambda p: p.stem)
def test_generate_matches_the_per_group_reference_for_every_spec(path, seed):
    spec = load_spec(path)
    table = generate(spec, 3000, substream(seed, "trial", 0, "data"))
    records = _generate_reference(spec, 3000, substream(seed, "trial", 0, "data"))
    np.testing.assert_array_equal(table.uncertainty, [r["uncertainty"] for r in records])
    np.testing.assert_array_equal(table.loss, [r["loss"] for r in records])
    np.testing.assert_array_equal(group_labels(table), [r["group_label"] for r in records])


def test_generate_respects_weights_and_tokens():
    spec = two_group_spec()
    records = generate(spec, 20_000, np.random.default_rng(5))
    assert len(records) == 20_000
    assert records.ids[0] == "s0" and records.ids[-1] == "s19999"
    share = np.mean(group_labels(records) == "lo")
    assert abs(share - 0.6) < 3 * math.sqrt(0.6 * 0.4 / 20_000)
    lo = group_labels(records) == "lo"
    assert set(records.tokens_thinking[lo]) == {100}
    assert set(records.tokens_cheap[~lo]) == {20}


def test_generate_is_deterministic():
    spec = two_group_spec()
    a = generate(spec, 200, np.random.default_rng(9))
    b = generate(spec, 200, np.random.default_rng(9))
    assert same_table(a, b)


def test_mixture_profile_integrates_to_weighted_risk():
    spec = two_group_spec()
    edges, probs = mixture_profile(spec)
    integral = sum(p * (b - a) for p, a, b in zip(probs, edges[:-1], edges[1:]))
    direct = sum(g.weight * true_risk(spec, j, 1.0)
                 for j, g in enumerate(spec.groups))
    assert integral == pytest.approx(direct, abs=1e-12)


# ----------------------------------------------------- policy true metrics


def test_metrics_for_marginal_policy():
    spec = two_group_spec()
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=TrivialAssigner(),
        thresholds=(GroupThreshold(GROUP_ALL, 0.5, 0.0, 100),),
    )
    risks, eff = policy_true_metrics(spec, policy)
    assert eff == pytest.approx(0.5)
    assert risks["lo"] == pytest.approx(0.05)
    assert risks["hi"] == pytest.approx(0.4)


def test_metrics_for_label_policy_with_fallback():
    spec = two_group_spec()
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=("lo", "hi")),
        thresholds=(GroupThreshold("lo", 0.5, 0.0, 100),
                    GroupThreshold("hi", None, None, 100)),
    )
    risks, eff = policy_true_metrics(spec, policy)
    assert risks["lo"] == pytest.approx(0.05)
    assert risks["hi"] == 0.0  # always-think never loses
    assert eff == pytest.approx(0.6 * 0.5)


def test_metrics_for_partition_policy():
    spec = two_group_spec()
    part = Partition([0.25, 0.75])
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=part,
        thresholds=(GroupThreshold(0, 0.5, 0.0, 50),
                    GroupThreshold(1, 0.5, 0.0, 50)),
    )
    risks, eff = policy_true_metrics(spec, policy)
    # cluster 0 owns [0, 0.5]: cut at 0.5 admits all of it
    mix_low = 0.6 * 0.1 + 0.4 * 0.8
    assert risks[0] == pytest.approx(mix_low * 0.5 / 0.5)
    # cluster 1 owns (0.5, 1]: its cut clamps to its own left edge
    assert risks[1] == pytest.approx(0.0)
    assert eff == pytest.approx(0.5)


# ------------------------------------------------------------- experiment


def test_binomial_slack_value():
    assert binomial_slack(0.95, 500) == pytest.approx(3 * math.sqrt(0.95 * 0.05 / 500))


def test_coverage_experiment_shapes_and_determinism():
    spec = two_group_spec()
    cfg = EstimatorConfig(seed=77)
    rep = coverage_experiment(spec, 120, 8, 0.05, "gpac", cfg)
    assert isinstance(rep, CoverageReport)
    assert set(rep.per_group_coverage) == {"lo", "hi"}
    assert rep.trials == 8 and rep.n_cal == 120
    again = coverage_experiment(spec, 120, 8, 0.05, "gpac", cfg)
    assert again.to_dict() == rep.to_dict()


def test_coverage_experiment_marginal_uses_one_threshold():
    spec = two_group_spec()
    rep = coverage_experiment(spec, 80, 4, 0.05, "marginal",
                              EstimatorConfig(seed=1))
    assert set(rep.per_group_coverage) == {"lo", "hi"}  # judged per real group


def test_coverage_experiment_cpac_needs_config():
    spec = two_group_spec()
    with pytest.raises(ValueError):
        coverage_experiment(spec, 80, 2, 0.05, "cpac", EstimatorConfig(seed=1))
    rep = coverage_experiment(
        spec, 80, 2, 0.05, "cpac", EstimatorConfig(seed=1),
        cluster_config=ClusterConfig(k=2, mode="joint", seed=1))
    assert set(rep.per_group_coverage) == {0, 1}


def test_coverage_experiment_rejects_bad_arguments():
    spec = two_group_spec()
    with pytest.raises(ValueError):
        coverage_experiment(spec, 80, 0, 0.05, "gpac", EstimatorConfig())
    with pytest.raises(ValueError):
        coverage_experiment(spec, 80, 2, 0.05, "bootstrap", EstimatorConfig())
    for n_cal in (0, -3):  # checked before the first trial, not left to generate or the calibration
        with pytest.raises(ValueError, match="^n_cal must be at least 1$"):
            coverage_experiment(spec, n_cal, 2, 0.05, "gpac", EstimatorConfig())


def test_alpha_comes_from_the_estimator_config():
    # the report's alpha is the level every trial's bounds used
    spec = two_group_spec()
    a = coverage_experiment(spec, 150, 6, 0.05, "gpac",
                            EstimatorConfig(seed=2, alpha=0.5))
    b = coverage_experiment(spec, 150, 6, 0.05, "gpac",
                            EstimatorConfig(seed=2, alpha=0.05))
    assert (a.alpha, b.alpha) == (0.5, 0.05)
    # the same draws under a lower confidence level: narrower bounds, no threshold falls
    assert a.efficiency > b.efficiency


def test_substreams_make_trials_independent_of_count():
    # the first trials of a longer run replay a shorter run exactly
    spec = two_group_spec()
    cfg = EstimatorConfig(seed=33)
    short = coverage_experiment(spec, 100, 3, 0.05, "gpac", cfg)
    long = coverage_experiment(spec, 100, 6, 0.05, "gpac", cfg)
    # coverage counts are averages; rebuild the trial-level agreement instead
    records_a = generate(spec, 100, substream(33, "trial", 2, "data"))
    records_b = generate(spec, 100, substream(33, "trial", 2, "data"))
    assert same_table(records_a, records_b)
    assert short.trials == 3 and long.trials == 6


# ------------------------------------------------------------ trials on every CPU


DATA = Path(__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parents[1]
FORK = os.fork


def _with_cpus(monkeypatch, cpus):
    """Let coverage_experiment see `cpus` CPUs, and count its forks."""
    forks = []

    def counted():
        forks.append(1)
        return FORK()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("spec, method, cluster", [
    ("steep2.json", "gpac", None),
    ("hetero3.json", "cpac", ClusterConfig(k=3, mode="joint")),
], ids=["steep2-gpac", "hetero3-cpac-joint-k3"])
def test_coverage_experiment_reports_the_same_for_any_cpu_count(monkeypatch, spec, method, cluster):
    spec, trials = load_spec(DATA / spec), 24
    run = lambda count: coverage_experiment(spec, 300, count, 0.05, method, EstimatorConfig(seed=5), cluster)
    _with_cpus(monkeypatch, 1)
    alone = run(trials).to_dict()
    for cpus in (2, 3, trials + 1):
        forks = _with_cpus(monkeypatch, cpus)
        assert run(trials).to_dict() == alone
        assert len(forks) == min(cpus, 3) - 1  # blocks of at least 8 trials
    forks = _with_cpus(monkeypatch, 2)
    run(15)
    assert not forks  # too few trials for two blocks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing, error, message", [
    ({11, 17}, ValueError, "trial 11 failed"),  # both children's blocks fail: the earlier one's trial raises
    ({23}, ValueError, "trial 23 failed"),
    ({5, 23}, ValueError, "trial 5 failed"),  # this process's own block fails first; the children are killed
    ({5}, KeyboardInterrupt, "trial 5 failed"),  # interrupted while both children still run
], ids=["two-children", "last-child", "own-block", "interrupt"])
def test_a_failing_trial_raises_its_own_error_and_leaves_no_child(monkeypatch, failing, error, message):
    # 3 CPUs and 24 trials: this process runs trials 0-7, the children 8-15 and 16-23; fork copies the patch
    _with_cpus(monkeypatch, 3)
    config = EstimatorConfig(seed=9)
    trial_of = {derive_seed(config.seed, "trial", t, "calibrate"): t for t in range(24)}
    real = simulation.calibrate

    def calibrate(records, method, epsilon, cfg, cc):
        t = trial_of[cfg.seed]
        if t in failing:
            raise error(f"trial {t} failed")
        if error is KeyboardInterrupt and t >= 8:
            time.sleep(60)  # a child that outlives the test unless it is killed
        return real(records, method, epsilon, cfg, cc)

    monkeypatch.setattr(simulation, "calibrate", calibrate)
    started = time.perf_counter()
    with pytest.raises(error) as caught:
        coverage_experiment(two_group_spec(), 100, 24, 0.05, "gpac", config)
    assert caught.value.args == (message,)
    assert time.perf_counter() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_prints_its_lines_once(tmp_path):
    out = tmp_path / "coverage.json"
    done = subprocess.run(
        [sys.executable, "-m", "pac_route", "simulate", "--spec", str(DATA / "steep2.json"), "--method", "gpac",
         "--n-cal", "300", "--trials", "20", "--epsilon", "0.05", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    worst = min(report["per_group_coverage"].values())
    assert done.stdout.splitlines() == [
        f"coverage(min) {worst:.4f} efficiency {report['efficiency']:.4f} over 20 trials", f"wrote {out}"]
    assert done.stderr == ""
