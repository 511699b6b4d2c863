"""Policy scoring: routed error, gap above tolerance, saved-token share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pac_route.calibration import (
    CHEAP,
    GROUP_ALL,
    GroupThreshold,
    LabelAssigner,
    RoutingPolicy,
    TrivialAssigner,
    route,
)
from pac_route.clustering import Partition
from pac_route.evaluation import (
    STP_VARIANTS,
    MetricsReport,
    error_gap,
    evaluate,
    group_sizes,
    stp,
    trial_error,
)
from pac_route.records import LossSpec, MissingTokensError, NoRecordsError, RecordTable
from pac_route.seeding import substream


def rec(i, u, loss, label=None, tt=None, tc=None):
    return dict(id=f"r{i}", uncertainty=u, loss=loss, group_label=label,
                  tokens_thinking=tt, tokens_cheap=tc)


def table(records):
    return RecordTable.from_records(records, LossSpec())


def label_policy(thresholds, epsilon=0.05):
    return RoutingPolicy(
        epsilon=epsilon, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=tuple(k for k, _ in thresholds)),
        thresholds=tuple(
            GroupThreshold(k, v, 0.0 if v is not None else None, 10)
            for k, v in thresholds
        ),
    )


def marginal_policy(threshold, epsilon=0.05):
    return RoutingPolicy(
        epsilon=epsilon, alpha=0.05, seed=0,
        assigner=TrivialAssigner(),
        thresholds=(GroupThreshold(GROUP_ALL, threshold, 0.0, 10),),
    )


# ------------------------------------------------------------ trial error


def test_trial_error_counts_only_cheap_losses():
    policy = label_policy([("g", 0.5)])
    records = [
        rec(0, 0.2, 1.0, "g"),   # cheap, lost
        rec(1, 0.4, 0.0, "g"),   # cheap, fine
        rec(2, 0.9, 1.0, "g"),   # thinks, loss forgiven
        rec(3, 0.5, 1.0, "g"),   # boundary goes cheap
    ]
    err, per_group = trial_error(table(records), policy)
    assert err == pytest.approx(0.5)
    assert per_group == {"g": pytest.approx(0.5)}


def test_unresolved_records_think_but_still_count():
    policy = label_policy([("g", 1.0)])
    records = table([rec(0, 0.1, 1.0, "g"), rec(1, 0.1, 1.0, None)])
    err, per_group = trial_error(records, policy)
    assert err == pytest.approx(0.5)  # unlabeled record thinks, dilutes the mean
    assert per_group == {"g": pytest.approx(1.0)}
    counts, unresolved = group_sizes(records, policy)
    assert counts == {"g": 1}
    assert unresolved == 1


def test_error_decomposes_over_groups():
    rng = np.random.default_rng(60)
    for _ in range(25):
        n = int(rng.integers(3, 80))
        labels = rng.choice(["a", "b", "c"], size=n)
        records = table([
            rec(i, float(rng.uniform()), float(rng.choice([0.0, 0.5, 1.0])), str(labels[i]))
            for i in range(n)
        ])
        policy = label_policy([("a", 0.3), ("b", None), ("c", 0.9)])
        err, per_group = trial_error(records, policy)
        counts, _ = group_sizes(records, policy)
        recombined = sum(per_group[g] * counts[g] for g in per_group) / n
        assert abs(err - recombined) < 1e-12


def test_trial_error_rejects_empty():
    with pytest.raises(ValueError):
        trial_error(table([]), marginal_policy(0.5))
    with pytest.raises(NoRecordsError):
        evaluate(table([]), marginal_policy(0.5))
    with pytest.raises(NoRecordsError):
        stp(table([]), marginal_policy(0.5), "router")
    # counting the groups of no records is no error
    assert group_sizes(table([]), marginal_policy(0.5)) == ({}, 0)


# ---------------------------------------------------------------- the gap


def test_error_gap_frozen_example():
    trials = [{"a": 0.03, "b": 0.07, "c": 0.10}]
    assert error_gap(trials, 0.05) == pytest.approx(0.07, abs=1e-15)


def test_error_gap_zero_when_under_tolerance():
    assert error_gap([{"a": 0.01, "b": 0.05}], 0.05) == 0.0


def test_error_gap_averages_before_clipping():
    # one bad trial is absorbed when the average stays under epsilon
    trials = [{"a": 0.09}, {"a": 0.01}]
    assert error_gap(trials, 0.05) == 0.0
    # a group present in only one trial is averaged over that one trial
    trials = [{"a": 0.02}, {"a": 0.02, "b": 0.08}]
    assert error_gap(trials, 0.05) == pytest.approx(0.03)


# ------------------------------------------------------------------- stp


def test_stp_frozen_cases():
    cheap = [rec(0, 0.1, 0.0, "g", tt=100, tc=10)]
    think = [rec(0, 0.9, 0.0, "g", tt=100, tc=10)]
    policy = label_policy([("g", 0.5)])
    assert stp(table(cheap), policy, "cascade") == pytest.approx(0.9)
    assert stp(table(cheap), policy, "router") == pytest.approx(0.9)
    assert stp(table(think), policy, "cascade") == pytest.approx(-0.1)
    assert stp(table(think), policy, "router") == pytest.approx(0.0)


def test_stp_router_never_below_cascade():
    rng = np.random.default_rng(123)
    policy = label_policy([("g", 0.5)])
    for _ in range(100):
        n = int(rng.integers(1, 30))
        records = table([
            rec(i, float(rng.uniform()), 0.0, "g",
                tt=int(rng.integers(50, 800)), tc=int(rng.integers(1, 50)))
            for i in range(n)
        ])
        assert stp(records, policy, "router") >= stp(records, policy, "cascade") - 1e-12


def test_stp_requires_token_counts():
    policy = label_policy([("g", 0.5)])
    with pytest.raises(ValueError) as info:
        stp(table([rec(0, 0.1, 0.0, "g", tt=100, tc=None)]), policy, "cascade")
    assert "tokens" in str(info.value)
    with pytest.raises(ValueError):
        stp(table([rec(0, 0.1, 0.0, "g", tt=0, tc=5)]), policy, "router")


def test_missing_tokens_are_caught_before_any_trial():
    # one record lacks tokens; no bootstrap resample needs to draw it
    records = [rec(i, 0.1, 0.0, "g", tt=100, tc=10) for i in range(40)]
    records.append(rec(40, 0.1, 0.0, "g", tt=None, tc=10))
    with pytest.raises(MissingTokensError) as info:
        evaluate(table(records), label_policy([("g", 0.5)]), trials=3, seed=1, stp_variant="cascade")
    assert "r40" in str(info.value)
    evaluate(table(records), label_policy([("g", 0.5)]), trials=3, seed=1)


def test_stp_rejects_unknown_variant():
    with pytest.raises(ValueError):
        stp(table([rec(0, 0.1, 0.0, "g", tt=10, tc=1)]), label_policy([("g", 0.5)]), "both")


# -------------------------------------------------------------- evaluate


def test_evaluate_single_trial_is_plain_scoring():
    records = [rec(i, u, l, "g") for i, (u, l) in
               enumerate([(0.2, 1.0), (0.4, 0.0), (0.9, 1.0)])]
    policy = label_policy([("g", 0.5)], epsilon=0.05)
    report = evaluate(table(records), policy)
    assert report.trials == 1
    assert report.error == pytest.approx(1 / 3)
    assert report.per_group_error == {"g": pytest.approx(1 / 3)}
    assert report.error_gap == pytest.approx(1 / 3 - 0.05)
    assert report.stp is None
    assert report.flagged_groups == ()


def test_evaluate_bootstrap_is_deterministic():
    rng = np.random.default_rng(71)
    records = table([rec(i, float(rng.uniform()), float(rng.choice([0, 1], p=[0.8, 0.2])), "g")
                     for i in range(50)])
    policy = label_policy([("g", 0.6)])
    a = evaluate(records, policy, trials=20, seed=5)
    b = evaluate(records, policy, trials=20, seed=5)
    assert a.to_dict() == b.to_dict()
    c = evaluate(records, policy, trials=20, seed=6)
    assert c.error != a.error  # different resamples almost surely differ


def test_evaluate_flags_groups_missing_from_some_trial():
    # one lonely record of group b: bootstrap resamples will drop it sometimes
    records = [rec(i, 0.3, 0.0, "a") for i in range(30)] + [rec(99, 0.3, 0.0, "b")]
    policy = label_policy([("a", 0.5), ("b", 0.5)])
    report = evaluate(table(records), policy, trials=50, seed=9)
    assert "b" in report.flagged_groups
    assert "a" not in report.flagged_groups


def test_evaluate_carries_stp():
    records = [rec(i, 0.2, 0.0, "g", tt=100, tc=10) for i in range(5)]
    policy = label_policy([("g", 0.5)])
    report = evaluate(table(records), policy, stp_variant="router")
    assert report.stp == pytest.approx(0.9)
    assert report.stp_variant == "router"


def test_evaluate_rejects_bad_trials():
    with pytest.raises(ValueError):
        evaluate(table([rec(0, 0.2, 0.0, "g")]), label_policy([("g", 0.5)]), trials=0)


# ------------------------------------------------ per-record reference


def _evaluate_reference(records, policy, *, trials=1, seed=0, stp_variant=None):
    """The per-record evaluate that routes every resample again, kept as an oracle."""

    def decide(sample):
        return [route(policy, r["group_label"], r["uncertainty"], record_id=r["id"]) for r in sample]

    def one_trial_error(sample):
        total = 0.0
        sums, counts = {}, {}
        for r, d in zip(sample, decide(sample)):
            contribution = r["loss"] if d.action == CHEAP else 0.0
            total += contribution
            if d.group_key is not None:
                sums[d.group_key] = sums.get(d.group_key, 0.0) + contribution
                counts[d.group_key] = counts.get(d.group_key, 0) + 1
        return total / len(sample), {key: sums[key] / counts[key] for key in sums}

    def one_stp(sample):
        saved = 0.0
        for r, d in zip(sample, decide(sample)):
            cheap = d.action == CHEAP
            if stp_variant == "cascade":
                spent = r["tokens_cheap"] + (0 if cheap else r["tokens_thinking"])
            else:
                spent = r["tokens_cheap"] if cheap else r["tokens_thinking"]
            saved += 1.0 - spent / r["tokens_thinking"]
        return saved / len(sample)

    n_per_group, n_unresolved = {}, 0
    for r in records:
        key = policy.assigner.resolve(r["group_label"], r["uncertainty"])
        if key is None:
            n_unresolved += 1
        else:
            n_per_group[key] = n_per_group.get(key, 0) + 1
    trial_errors, trial_groups, stp_values = [], [], []
    for t in range(trials):
        if trials == 1:
            sample = list(records)
        else:
            idx = substream(seed, "evaluate", t).integers(0, len(records), len(records))
            sample = [records[i] for i in idx]
        err, per_group = one_trial_error(sample)
        trial_errors.append(err)
        trial_groups.append(per_group)
        if stp_variant is not None:
            stp_values.append(one_stp(sample))
    averaged, appearances = {}, {}
    for per_trial in trial_groups:
        for key, value in per_trial.items():
            averaged[key] = averaged.get(key, 0.0) + value
            appearances[key] = appearances.get(key, 0) + 1
    per_group_error = {key: averaged[key] / appearances[key] for key in averaged}
    return MetricsReport(
        error=sum(trial_errors) / trials,
        per_group_error=per_group_error,
        error_gap=error_gap(trial_groups, policy.epsilon),
        n_per_group=n_per_group,
        n_unresolved=n_unresolved,
        trials=trials,
        stp=sum(stp_values) / trials if stp_values else None,
        stp_variant=stp_variant if stp_values else None,
        flagged_groups=tuple(key for key in per_group_error if appearances[key] < trials),
    )


def seeded_records(seed, n):
    rng = np.random.default_rng(seed)
    labels = ["a", "b", "c", "zz", None]  # "zz" and None never resolve
    return [
        rec(i, float(rng.choice([rng.uniform(), 0.3, 0.7])),
            float(rng.choice([0.0, 1.0, rng.uniform()])),
            labels[int(rng.choice(5, p=[0.4, 0.3, 0.05, 0.15, 0.1]))],
            tt=int(rng.integers(1, 900)), tc=int(rng.integers(0, 90)))
        for i in range(n)
    ]


POLICIES = {
    "labels": label_policy([("a", 0.55), ("b", None), ("c", 0.3)]),
    # every label the records carry is a group, and most groups have no threshold
    "open": RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0,
                          assigner=LabelAssigner(("a", "b", "c", "zz")),
                          thresholds=(GroupThreshold("a", 0.4, 0.0, 10),)),
    "marginal": marginal_policy(0.62),
    "partition": RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0,
                               assigner=Partition([0.2, 0.5, 0.8]),
                               thresholds=(GroupThreshold(0, 0.3, 0.0, 10),
                                           GroupThreshold(1, None, None, 10),
                                           GroupThreshold(2, 0.9, 0.0, 10))),
}


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("trials", [1, 20])
@pytest.mark.parametrize("variant", [None, *STP_VARIANTS])
def test_evaluate_matches_per_record_reference(policy_name, trials, variant):
    policy = POLICIES[policy_name]
    for seed, n in ((1, 1), (2, 7), (3, 400)):
        records = seeded_records(seed, n)
        expected = _evaluate_reference(records, policy, trials=trials, seed=seed,
                                       stp_variant=variant)
        got = evaluate(table(records), policy, trials=trials, seed=seed, stp_variant=variant)
        assert got.to_dict() == expected.to_dict()
        assert list(got.per_group_error) == list(expected.per_group_error)
        assert list(got.n_per_group) == list(expected.n_per_group)


# ------------------------------------------------ batch routing against route

ROUTE_LABELS = ("a", "b", "c", "zz")


@st.composite
def policy_and_rows(draw):
    """A policy on one of the three assigners, some groups without a threshold
    or always thinking, and rows whose scores often sit exactly on a threshold
    or a partition boundary."""
    kind = draw(st.sampled_from(["trivial", "labels", "partition"]))
    edges = []
    if kind == "trivial":
        assigner = TrivialAssigner()
    elif kind == "labels":
        assigner = LabelAssigner(tuple(draw(st.lists(st.sampled_from(ROUTE_LABELS), min_size=1, unique=True))))
    else:
        centroids = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=1, max_size=4)))
        assigner = Partition(tuple(centroids))
        edges = list(assigner.boundaries)
    listed = draw(st.lists(st.sampled_from(assigner.keys), unique=True))
    thresholds = tuple(
        GroupThreshold(key, draw(st.none() | st.floats(0.0, 1.0)), None, 10) for key in listed
    )
    policy = RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0, assigner=assigner,
                           thresholds=thresholds)
    special = [0.0, 1.0, *edges, *(t.threshold for t in thresholds if t.threshold is not None)]
    score = st.floats(0.0, 1.0) | st.sampled_from(special)
    rows = draw(st.lists(st.tuples(st.sampled_from([*ROUTE_LABELS, None]), score),
                         min_size=1, max_size=40))
    return policy, rows


@settings(max_examples=400, deadline=None)
@given(policy_and_rows())
def test_batch_routing_agrees_with_route(case):
    policy, rows = case
    codes, cheap = policy.decide(table([rec(i, u, 0.0, label) for i, (label, u) in enumerate(rows)]))
    decisions = [route(policy, label, u, record_id=f"r{i}") for i, (label, u) in enumerate(rows)]
    for i, d in enumerate(decisions):
        assert bool(cheap[i]) == (d.action == CHEAP)
        if d.group_key is None:
            assert codes[i] == -1
        else:
            key = policy.assigner.keys[codes[i]]
            assert key == d.group_key and type(key) is type(d.group_key)
