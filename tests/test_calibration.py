"""Threshold selection, routing policies, and their serialized form."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pac_route.calibration import (
    CHEAP,
    DEFAULT_N_MIN,
    GROUP_ALL,
    POLICY_VERSION,
    THINK,
    GroupThreshold,
    LabelAssigner,
    PolicyVersionError,
    RoutingPolicy,
    TrivialAssigner,
    assigner_from_dict,
    calibrate_gpac,
    calibrate_group,
    config_hash,
    load_policy,
    route,
    save_policy,
)
from pac_route.clustering import ClusterConfig, Partition, calibrate_cpac
from pac_route.estimator import METHODS, EstimatorConfig, ZSamples, ucb_hoeffding
from pac_route.evaluation import evaluate
from pac_route.records import LossSpec, RecordTable
from pac_route.simulation import GroupSpec, SyntheticSpec, coverage_experiment
from reference import calibrate_group_reference, group_labels, threshold_for


def pool(losses, uncertainties, label=None):
    return [
        dict(id=f"r{i}", uncertainty=u, loss=l, group_label=label)
        for i, (l, u) in enumerate(zip(losses, uncertainties))
    ]


def labeled(label, losses, uncertainties, start=0):
    return [
        dict(id=f"{label}{start + i}", uncertainty=u, loss=l, group_label=label)
        for i, (l, u) in enumerate(zip(losses, uncertainties))
    ]


def table(records):
    return RecordTable.from_records(records, LossSpec())


def gpac(records, epsilon, config):
    """calibrate_gpac over the labels of `records`, as the CLI builds its assigner."""
    records = table(records)
    return calibrate_gpac(records, LabelAssigner(records.labels), epsilon, config)


# ------------------------------------------------------------- assigners


def test_trivial_assigner_pools_everything():
    a = TrivialAssigner()
    assert a.resolve("x", 0.2) == GROUP_ALL
    assert a.resolve(None, 0.9) == GROUP_ALL
    assert a.keys == (GROUP_ALL,)


def test_label_assigner_resolves_only_its_labels():
    a = LabelAssigner(labels=("math", "code"))
    assert a.resolve("math", 0.5) == "math"
    assert a.resolve("poetry", 0.5) is None
    assert a.resolve(None, 0.5) is None
    assert a.keys == ("math", "code")
    assert LabelAssigner(()).resolve("math", 0.5) is None
    assert Partition([0.2, 0.5, 0.8]).keys == (0, 1, 2)


def test_assigners_reject_what_is_not_a_partition():
    with pytest.raises(ValueError, match="labels must be distinct"):
        LabelAssigner(("a", "b", "a"))
    for centroid in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Partition((0.2, centroid))


def test_assigner_round_trip_through_dict():
    for a in (TrivialAssigner(), LabelAssigner(labels=("a", "b")),
              Partition([0.2, 0.8])):
        back = assigner_from_dict(a.to_dict())
        assert type(back) is type(a)
        assert back.to_dict() == a.to_dict()


def test_assigner_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        assigner_from_dict({"kind": "mystery"})


# ------------------------------------------- vectorised group assignment


LABEL_POOL = ("a", "b", "c", "d", None)


@st.composite
def table_and_assigner(draw):
    kind = draw(st.sampled_from(("trivial", "labels", "partition")))
    if kind == "partition":
        centroids = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))
        assigner = Partition(sorted(centroids))
        special = list(assigner.boundaries) + list(assigner.centroids) + [0.0, 1.0]
    else:
        assigner = {
            "trivial": TrivialAssigner(),
            "labels": LabelAssigner(labels=tuple(draw(st.lists(
                st.sampled_from(("a", "b", "c", "x")), min_size=1, max_size=3, unique=True)))),
        }[kind]
        special = [0.0, 1.0]
    score = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    rows = draw(st.lists(st.tuples(st.sampled_from(LABEL_POOL), score), max_size=40))
    rows_table = table([
        dict(id=f"r{i}", uncertainty=u, loss=0.0, group_label=label)
        for i, (label, u) in enumerate(rows)
    ])
    # a row subset keeps the full label vocabulary, some of it now absent
    keep = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=len(rows)))
    if rows and draw(st.booleans()):
        return rows_table.take(np.array(keep, dtype=int)), assigner
    return rows_table, assigner


@settings(max_examples=300, deadline=None)
@given(table_and_assigner())
def test_assign_agrees_with_resolve(case):
    table, assigner = case
    codes = assigner.assign(table)
    assert codes.shape == (len(table),)
    assert ((-1 <= codes) & (codes < len(assigner.keys))).all()  # codes index the assigner's keys
    expected = [assigner.resolve(label, u) for label, u in zip(group_labels(table), table.uncertainty)]
    assert [None if c < 0 else assigner.keys[c] for c in codes] == expected


# ------------------------------------------------------- group calibration


def test_small_group_falls_back_to_always_think():
    recs = pool([0.0] * 5, np.linspace(0.1, 0.5, 5))
    t, curve = calibrate_group(table(recs), 0.05, EstimatorConfig(seed=1),
                               np.random.default_rng(1))
    assert t.always_think
    assert t.n_calibration == 5
    assert curve is None


def test_n_min_boundary_is_inclusive():
    # pi = 1 keeps every record, so the draw keeps n_min too
    recs = pool([0.0] * DEFAULT_N_MIN, np.linspace(0.05, 0.95, DEFAULT_N_MIN))
    t, curve = calibrate_group(table(recs), 0.5, EstimatorConfig(pi=1.0, seed=2),
                               np.random.default_rng(2))
    assert not t.always_think
    assert curve is not None


def test_a_draw_that_keeps_fewer_than_n_min_records_always_thinks():
    recs = table(pool([0.0] * 40, np.linspace(0.02, 0.98, 40)))
    config = EstimatorConfig(pi=0.2, seed=5)
    kept = int(np.count_nonzero(np.random.default_rng(5).random(40) < 0.2))
    assert 0 < kept < 40
    t, curve = calibrate_group(recs, 0.5, dataclasses.replace(config, n_min=kept + 1), np.random.default_rng(5))
    assert t.to_dict() == {"group_key": GROUP_ALL, "threshold": "always_think", "ucb": None, "n": 40}
    assert curve is None
    # the boundary is inclusive, as it is for n
    t, curve = calibrate_group(recs, 0.5, dataclasses.replace(config, n_min=kept), np.random.default_rng(5))
    assert t.threshold == pytest.approx(0.98) and curve is not None


@pytest.mark.parametrize("n_min", [0, 1])
def test_a_group_too_small_to_bound_always_thinks(n_min):
    # cluster 1 of (0.1, 0.9) has no record: nothing to draw
    recs = table(pool([0.0] * 20, np.linspace(0.0, 0.3, 20)))
    policy, _ = calibrate_gpac(recs, Partition((0.1, 0.9)), 0.05, EstimatorConfig(n_min=n_min))
    assert policy.thresholds[1].to_dict() == {"group_key": 1, "threshold": "always_think", "ucb": None, "n": 0}
    assert policy.thresholds[0].threshold == pytest.approx(0.3)
    # one record: the CLT bound needs two draws, Hoeffding takes one
    recs = table(labeled("a", [0.0] * 20, np.linspace(0, 1, 20)) + labeled("b", [0.0], [0.5]))
    for method in METHODS:
        policy, report = calibrate_gpac(recs, LabelAssigner(("a", "b")), 0.05,
                                        EstimatorConfig(method=method, pi=1, n_min=n_min))
        assert threshold_for(policy, "b").to_dict() == {
            "group_key": "b", "threshold": "always_think", "ucb": None, "n": 1}
        assert (report.groups[1][1] is not None) == (method == "hoeffding")


def test_zero_loss_group_selects_top_candidate():
    recs = pool([0.0] * 40, np.linspace(0.02, 0.98, 40))
    t, _ = calibrate_group(table(recs), 0.05, EstimatorConfig(seed=3),
                           np.random.default_rng(3))
    assert t.threshold == pytest.approx(0.98)
    assert t.ucb_at_threshold == 0.0


def test_hopeless_group_admits_almost_nothing():
    # every record certain to be lost; only candidates whose prefix went
    # unsampled (or 0.0 itself) can look feasible, so the admitted share of
    # the pool stays tiny even though the selection is noisy
    recs = pool([1.0] * 60, np.linspace(0.01, 0.99, 60))
    t, curve = calibrate_group(table(recs), 0.05, EstimatorConfig(seed=4),
                               np.random.default_rng(4))
    assert curve is not None
    assert curve.ucb[-1] > 0.5  # the full pool is plainly infeasible
    if t.threshold is not None:
        admitted = np.mean([r["uncertainty"] <= t.threshold for r in recs])
        assert admitted <= 0.1


def test_selection_takes_largest_feasible_candidate():
    rng_outer = np.random.default_rng(31)
    for trial in range(10):
        losses = rng_outer.choice([0.0, 1.0], size=80, p=[0.9, 0.1])
        us = rng_outer.uniform(0, 1, 80)
        recs = pool(losses, us)
        cfg = EstimatorConfig(seed=trial)
        t, curve = calibrate_group(table(recs), 0.08, cfg, np.random.default_rng(trial))
        feasible = curve.candidates[curve.ucb <= 0.08]
        if len(feasible) == 0:
            assert t.always_think
        else:
            assert t.threshold == pytest.approx(feasible.max())


def test_ucb_offset_only_shrinks_the_selection():
    recs = pool(np.random.default_rng(8).choice([0, 1], 100, p=[0.93, 0.07]),
                np.random.default_rng(9).uniform(0, 1, 100))
    cfg = EstimatorConfig(seed=5)
    plain, _ = calibrate_group(table(recs), 0.1, cfg, np.random.default_rng(5))
    offset, _ = calibrate_group(table(recs), 0.1, cfg, np.random.default_rng(5),
                                ucb_offset=0.04)
    lo = -1.0 if offset.threshold is None else offset.threshold
    hi = -1.0 if plain.threshold is None else plain.threshold
    assert lo <= hi


# a calibration pool: (uncertainty, loss) rows, binary or fractional losses
_POOLS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    min_size=10, max_size=120,
)


def _pick(rows, method, seed, epsilon, alpha):
    # the same draws for every (epsilon, alpha): the rng is seeded afresh
    records = table([dict(id=f"r{i}", uncertainty=u, loss=l) for i, (u, l) in enumerate(rows)])
    cfg = EstimatorConfig(method=method, alpha=alpha, seed=seed)
    t, _ = calibrate_group(records, epsilon, cfg, np.random.default_rng(seed))
    return -1.0 if t.threshold is None else t.threshold


@settings(max_examples=150, deadline=None)
@given(rows=_POOLS, method=st.sampled_from(METHODS), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(1e-6, 0.5), epsilons=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=5))
def test_monotone_in_epsilon(rows, method, seed, alpha, epsilons):
    # a looser tolerance can never pick a smaller threshold from the same draws
    picks = [_pick(rows, method, seed, eps, alpha) for eps in sorted(epsilons)]
    assert picks == sorted(picks)


@settings(max_examples=150, deadline=None)
@given(rows=_POOLS, method=st.sampled_from(METHODS), seed=st.integers(0, 2 ** 32 - 1),
       epsilon=st.floats(1e-3, 1.0), alphas=st.lists(st.floats(1e-6, 0.999), min_size=2, max_size=5))
def test_monotone_in_alpha(rows, method, seed, epsilon, alphas):
    # a lower confidence level narrows every bound, so the threshold cannot fall
    picks = [_pick(rows, method, seed, epsilon, alpha) for alpha in sorted(alphas)]
    assert picks == sorted(picks)


# scores drawn from five values repeat; free scores almost never do
_SCORES = {"tied": st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), "free": st.floats(0.0, 1.0)}
_LOSSES = {"binary": st.sampled_from([0.0, 1.0]), "fractional": st.floats(0.0, 1.0)}


@pytest.mark.parametrize("losses", _LOSSES)
@pytest.mark.parametrize("scores", _SCORES)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), method=st.sampled_from(METHODS), seed=st.integers(0, 2 ** 32 - 1),
       pi=st.sampled_from([1.0, 0.5, 0.3]), epsilon=st.floats(1e-3, 1.0),
       ucb_offset=st.sampled_from([0.0, 0.02]))
def test_calibrate_group_matches_the_two_sort_reference(scores, losses, data, method, seed, pi, epsilon,
                                                        ucb_offset):
    # bit for bit: the one sort changes no threshold, candidate, mean or bound
    rows = data.draw(st.lists(st.tuples(_SCORES[scores], _LOSSES[losses]), min_size=2, max_size=150))
    u, loss = np.array(rows).T
    cfg = EstimatorConfig(method=method, pi=pi, seed=seed, n_min=0)
    records = table([dict(id=f"r{i}", uncertainty=x, loss=y) for i, (x, y) in enumerate(rows)])
    t, curve = calibrate_group(records, epsilon, cfg, np.random.default_rng(seed), ucb_offset=ucb_offset)
    threshold, grid, mean, ucb = calibrate_group_reference(
        u, loss, records.spec.bound_B, epsilon, cfg, np.random.default_rng(seed), ucb_offset)
    assert t.threshold == threshold
    np.testing.assert_array_equal(curve.candidates, grid)
    np.testing.assert_array_equal(curve.mean, mean)
    np.testing.assert_array_equal(curve.ucb, ucb)


def test_rejects_nonpositive_epsilon():
    recs = pool([0.0] * 20, np.linspace(0, 1, 20))
    with pytest.raises(ValueError):
        calibrate_group(table(recs), 0.0, EstimatorConfig(), np.random.default_rng(0))


# ------------------------------------------------------------ full runs


def test_gpac_calibrates_each_label_separately():
    recs = labeled("good", [0.0] * 50, np.linspace(0.01, 0.99, 50)) + \
        labeled("bad", [1.0] * 50, np.linspace(0.01, 0.99, 50))
    policy, report = gpac(recs, 0.05, EstimatorConfig(seed=10))
    good = threshold_for(policy, "good")
    bad = threshold_for(policy, "bad")
    assert good.threshold == pytest.approx(0.99)
    bad_admitted = 0.0 if bad.always_think else np.mean(
        [r["uncertainty"] <= bad.threshold for r in recs if r["group_label"] == "bad"])
    assert bad_admitted <= 0.1
    assert report.n_total == 100
    assert report.n_unresolved == 0


def test_marginal_mode_pools_labels():
    recs = labeled("a", [0.0] * 30, np.linspace(0, 1, 30)) + \
        labeled("b", [0.0] * 30, np.linspace(0, 1, 30))
    policy, report = calibrate_gpac(table(recs), TrivialAssigner(), 0.05,
                                    EstimatorConfig(seed=11))
    assert [t.group_key for t in policy.thresholds] == [GROUP_ALL]
    assert policy.thresholds[0].n_calibration == 60


def test_unlabeled_records_are_dropped_and_counted():
    recs = labeled("a", [0.0] * 20, np.linspace(0, 1, 20)) + \
        pool([0.0] * 7, np.linspace(0.1, 0.7, 7))
    policy, report = gpac(recs, 0.05, EstimatorConfig(seed=12))
    assert report.n_unresolved == 7
    assert threshold_for(policy, "a").n_calibration == 20


def test_no_resolvable_records_is_an_error():
    recs = pool([0.0] * 5, np.linspace(0.1, 0.5, 5))
    with pytest.raises(ValueError):
        gpac(recs, 0.05, EstimatorConfig(seed=13))


def test_calibrate_gpac_returns_the_assigner_it_was_given():
    recs = table(labeled("x", [0.0] * 40, np.linspace(0, 1, 40)))
    assigner = LabelAssigner(("y", "x"))
    policy, _ = calibrate_gpac(recs, assigner, 0.05, EstimatorConfig(seed=14))
    assert policy.assigner is assigner
    # a group without records always thinks; a label outside the assigner goes to the thinking model
    assert policy.thresholds[0].to_dict() == {"group_key": "y", "threshold": "always_think", "ucb": None, "n": 0}
    assert route(policy, "z", 0.01).action == THINK and route(policy, "x", 0.01).action == CHEAP


def test_gpac_group_order_is_first_seen_for_open_assigners():
    recs = labeled("zeta", [0.0] * 12, np.linspace(0, 1, 12)) + \
        labeled("alpha", [0.0] * 12, np.linspace(0, 1, 12))
    # the CLI's assigner takes the table's labels, which come in first-appearance order
    policy, _ = gpac(recs, 0.05, EstimatorConfig(seed=15))
    assert [t.group_key for t in policy.thresholds] == ["zeta", "alpha"]


def test_calibration_is_deterministic_in_seed():
    recs = labeled("a", np.random.default_rng(1).choice([0, 1], 40, p=[0.9, 0.1]),
                   np.random.default_rng(2).uniform(0, 1, 40))
    p1, _ = gpac(recs, 0.1, EstimatorConfig(seed=99))
    p2, _ = gpac(recs, 0.1, EstimatorConfig(seed=99))
    assert p1.to_dict() == p2.to_dict()
    p3, _ = gpac(recs, 0.1, EstimatorConfig(seed=100))
    assert p3.config_hash != p1.config_hash


def test_group_streams_do_not_bleed_into_each_other():
    # adding a second group must not change the first group's threshold
    a = labeled("a", np.random.default_rng(3).choice([0, 1], 60, p=[0.85, 0.15]),
                np.random.default_rng(4).uniform(0, 1, 60))
    b = labeled("b", [1.0] * 60, np.linspace(0, 1, 60))
    alone, _ = gpac(a, 0.1, EstimatorConfig(seed=55))
    both, _ = gpac(a + b, 0.1, EstimatorConfig(seed=55))
    assert threshold_for(alone, "a").to_dict() == threshold_for(both, "a").to_dict()


def test_report_curves_cover_each_calibrated_group():
    recs = labeled("a", [0.0] * 40, np.linspace(0, 1, 40)) + \
        labeled("b", [0.0] * 4, np.linspace(0.2, 0.8, 4))
    _, report = gpac(recs, 0.05, EstimatorConfig(seed=16))
    by_key = {t.group_key: curve for t, curve in report.groups}
    assert by_key["a"] is not None
    assert by_key["b"] is None  # below n_min, never sampled


def test_cosine_table_calibrates_with_a_default_config():
    rng = np.random.default_rng(8)
    rows = [dict(id=f"c{i}", uncertainty=float(u), group_label="g", thinking_embedding=(1.0, 0.0),
                 cheap_embedding=(math.cos(angle), math.sin(angle)))
            for i, (u, angle) in enumerate(zip(rng.uniform(0, 1, 40), rng.uniform(0, math.pi, 40)))]
    records = RecordTable.from_records(rows, LossSpec(kind="cosine"))
    assert records.spec.bound_B == 2.0 and records.loss.max() > 1.0
    policy, report = calibrate_gpac(records, LabelAssigner(records.labels), 0.5, EstimatorConfig())
    assert [t.group_key for t in policy.thresholds] == ["g"] and report.groups[0][0].n_calibration == 40


@pytest.mark.parametrize("bound_B", [1.0, 2.0])
def test_hoeffding_reads_the_bound_from_the_table(bound_B):
    losses = np.linspace(0.0, bound_B, 30)
    records = RecordTable.from_records(pool(losses, np.linspace(0, 1, 30)), LossSpec(bound_B=bound_B))
    config = EstimatorConfig(method="hoeffding", pi=0.5, seed=3)
    _, curve = calibrate_group(records, 0.5, config, np.random.default_rng(0))
    # one draw per record: m = n, so the width is that of any 30-draw batch under the table's spec
    delta = ucb_hoeffding(ZSamples(z=np.zeros(30), u_origin=np.zeros(30)), config, records.spec).ucb[-1]
    assert delta == pytest.approx(bound_B / 0.5 * math.sqrt(math.log(2 / config.alpha) / 60), rel=1e-12)
    np.testing.assert_allclose(curve.ucb - curve.mean, delta, rtol=1e-12)


@pytest.mark.parametrize("calibrate", ["gpac", "cpac"])
def test_integer_and_float_bounds_stamp_one_config_hash(calibrate):
    rows = pool(np.linspace(0.0, 0.3, 20), np.linspace(0, 1, 20))

    def stamp(spec):
        records = RecordTable.from_records(rows, spec)
        if calibrate == "cpac":
            return calibrate_cpac(records, ClusterConfig(k=2, mode="joint"), 0.1, EstimatorConfig(seed=1))[0]
        return calibrate_gpac(records, TrivialAssigner(), 0.1, EstimatorConfig(seed=1))[0]

    assert stamp(LossSpec(bound_B=2)).config_hash == stamp(LossSpec(bound_B=2.0)).config_hash


@pytest.mark.parametrize("calibrate", ["gpac", "cpac"])
def test_the_loss_kind_changes_the_config_hash(calibrate):
    # one set of rows, with both a precomputed loss and an answer triple
    rows = [dict(row, thinking_answer="a", cheap_answer="b" if i % 4 == 0 else "a", gold_answer="a")
            for i, row in enumerate(pool(np.linspace(0.0, 0.3, 20), np.linspace(0, 1, 20)))]

    def stamp(kind):
        records = RecordTable.from_records(rows, LossSpec(kind))
        assert records.spec.kind == kind
        if calibrate == "cpac":
            return calibrate_cpac(records, ClusterConfig(k=2, mode="joint"), 0.1, EstimatorConfig(seed=1))[0]
        return calibrate_gpac(records, TrivialAssigner(), 0.1, EstimatorConfig(seed=1))[0]

    assert stamp("precomputed").config_hash != stamp("binary").config_hash


# --------------------------------------------------------------- routing


def test_route_boundary_goes_cheap():
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=("g",)),
        thresholds=(GroupThreshold("g", 0.4, 0.01, 50),),
    )
    assert route(policy, "g", 0.4).action == CHEAP
    assert route(policy, "g", 0.400001).action == THINK
    assert route(policy, "g", 0.39).action == CHEAP


def test_route_always_think_and_unresolved():
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=("g", "h")),
        thresholds=(GroupThreshold("g", None, None, 3),),
    )
    assert route(policy, "g", 0.0).action == THINK  # always-think sentinel
    assert route(policy, "h", 0.0).action == THINK  # no threshold recorded
    assert route(policy, "unknown", 0.0).action == THINK
    assert route(policy, "unknown", 0.0).group_key is None


def test_route_validates_uncertainty():
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=TrivialAssigner(),
        thresholds=(GroupThreshold(GROUP_ALL, 0.5, 0.01, 20),),
    )
    with pytest.raises(ValueError):
        route(policy, None, 1.2)


# ----------------------------------------------------------- persistence


def test_policy_json_round_trip(tmp_path):
    recs = labeled("a", [0.0] * 20, np.linspace(0, 1, 20)) + \
        labeled("b", [1.0] * 20, np.linspace(0, 1, 20))
    policy, _ = gpac(recs, 0.05, EstimatorConfig(seed=17))
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    back = load_policy(path)
    assert back.to_dict() == policy.to_dict()
    # routing decisions survive the round trip
    for u in np.linspace(0, 1, 17):
        assert route(back, "a", float(u)).action == route(policy, "a", float(u)).action


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(["labels", "partition", "trivial"]))
    if kind == "partition":
        centroids = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True))
        assigner = Partition(tuple(sorted(centroids)))
    elif kind == "trivial":
        assigner = TrivialAssigner()
    else:
        assigner = LabelAssigner(tuple(draw(st.lists(st.text(max_size=4), max_size=4, unique=True))))
    keys = draw(st.permutations(assigner.keys))[:draw(st.integers(0, len(assigner.keys)))]
    thresholds = []
    for key in keys:
        threshold = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
        ucb = None if threshold is None else draw(st.floats(0.0, 1.0))
        thresholds.append(GroupThreshold(key, threshold, ucb, draw(st.integers(0, 10 ** 6))))
    return RoutingPolicy(
        epsilon=draw(st.floats(1e-9, 1.0)),
        alpha=draw(st.floats(1e-9, 1.0, exclude_max=True)),
        seed=draw(st.integers(0, 2 ** 63)),
        assigner=assigner,
        thresholds=tuple(thresholds),
        config_hash=draw(st.text(alphabet="0123456789abcdef", max_size=16)),
    )


@settings(max_examples=300, deadline=None)
@given(policies())
def test_policy_survives_json_round_trip(policy):
    back = RoutingPolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
    assert back == policy
    assert json.dumps(back.to_dict()) == json.dumps(policy.to_dict())
    assert back.limits == policy.limits


def test_threshold_lookup_follows_replace():
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=("g", "h")),
        thresholds=(GroupThreshold("g", 0.4, 0.01, 50), GroupThreshold("h", None, None, 3)),
    )
    assert threshold_for(policy, "g").threshold == 0.4
    assert threshold_for(policy, "x") is None
    moved = dataclasses.replace(policy, thresholds=(GroupThreshold("g", 0.6, 0.01, 50),))
    assert threshold_for(moved, "g").threshold == 0.6 and threshold_for(moved, "h") is None
    assert route(moved, "g", 0.5).action == CHEAP and route(policy, "g", 0.5).action == THINK


ASSIGNERS = {"marginal": TrivialAssigner(), "gpac": LabelAssigner(labels=("g",)),
             "cpac": Partition((0.2, 0.7))}


@pytest.mark.parametrize("assigner_mode", sorted(ASSIGNERS))
def test_policy_mode_is_its_assigners(assigner_mode):
    policy = RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0, assigner=ASSIGNERS[assigner_mode], thresholds=())
    assert policy.mode == assigner_mode == policy.to_dict()["mode"]


@pytest.mark.parametrize("assigner_mode", sorted(ASSIGNERS))
@pytest.mark.parametrize("mode", sorted(ASSIGNERS))
def test_policy_file_loads_only_with_its_assigners_mode(assigner_mode, mode):
    policy = RoutingPolicy(epsilon=0.05, alpha=0.05, seed=0, assigner=ASSIGNERS[assigner_mode], thresholds=())
    data = {**policy.to_dict(), "mode": mode}
    if mode == assigner_mode:
        assert RoutingPolicy.from_dict(data) == policy
    else:
        with pytest.raises(ValueError, match=f"policy mode '{mode}' is not its assigner's"):
            RoutingPolicy.from_dict(data)


def test_limits_hold_the_highest_score_routed_cheap():
    policy = RoutingPolicy(
        epsilon=0.05, alpha=0.05, seed=0,
        assigner=LabelAssigner(labels=("g", "h", "x")),
        thresholds=(GroupThreshold("g", 0.4, 0.01, 50), GroupThreshold("h", None, None, 3)),
    )
    # always_think never routes cheap, an unlisted key is absent
    assert policy.limits == {"g": 0.4, "h": float("-inf")}
    assert route(policy, "g", 0.5).action == THINK and route(policy, "g", 0.4).action == CHEAP
    assert threshold_for(policy, "g").threshold == 0.4


BAD_KEYS = {"marginal": (GROUP_ALL, "x"), "gpac": ("g", "h"), "cpac": (1, 2)}


@pytest.mark.parametrize("assigner_mode", sorted(ASSIGNERS))
def test_policy_rejects_repeated_and_unknown_keys_when_built(assigner_mode):
    """The key rules hold for a policy built in memory, as for one loaded from a file."""
    known, unknown = BAD_KEYS[assigner_mode]
    base = dict(epsilon=0.05, alpha=0.05, seed=0, assigner=ASSIGNERS[assigner_mode])
    first = GroupThreshold(known, 0.4, 0.0, 9)
    with pytest.raises(ValueError, match="^policy lists a group key more than once$"):
        RoutingPolicy(**base, thresholds=(first, GroupThreshold(known, None, None, 9)))
    unknown_message = rf"^policy thresholds name groups its assigner does not know: \[{unknown!r}\]$"
    with pytest.raises(ValueError, match=unknown_message):
        RoutingPolicy(**base, thresholds=(first, GroupThreshold(unknown, 0.4, 0.0, 9)))
    assert RoutingPolicy(**base, thresholds=(first,)).limits == {known: 0.4}


@pytest.mark.parametrize("settings_", [dict(epsilon=0.0), dict(epsilon=-1.0),
                                       dict(epsilon=float("nan")), dict(alpha=0.0), dict(alpha=1.0),
                                       dict(alpha=7.0)])
def test_policy_rejects_invalid_settings(settings_):
    base = dict(epsilon=0.05, alpha=0.05, seed=0, assigner=TrivialAssigner(), thresholds=())
    RoutingPolicy(**base)
    with pytest.raises(ValueError):
        RoutingPolicy(**{**base, **settings_})


def test_policy_file_shape(tmp_path):
    recs = labeled("a", [0.0] * 20, np.linspace(0, 1, 20))
    policy, _ = gpac(recs, 0.05, EstimatorConfig(seed=18))
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    data = json.loads(path.read_text())
    assert data["version"] == POLICY_VERSION == "pac-route/1"
    assert data["provenance"]["config_hash"] == policy.config_hash
    assert data["thresholds"][0]["group_key"] == "a"


def test_always_think_serializes_as_string():
    t = GroupThreshold("g", None, None, 2)
    d = t.to_dict()
    assert d["threshold"] == "always_think"
    assert GroupThreshold.from_dict(d).always_think


def test_version_mismatch_is_rejected(tmp_path):
    recs = labeled("a", [0.0] * 20, np.linspace(0, 1, 20))
    policy, _ = gpac(recs, 0.05, EstimatorConfig(seed=19))
    data = policy.to_dict()
    data["version"] = "pac-route/2"
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(data))
    with pytest.raises(PolicyVersionError):
        load_policy(path)


def test_config_hash_tracks_inputs():
    a = config_hash(EstimatorConfig(seed=1), epsilon=0.05)
    b = config_hash(EstimatorConfig(seed=1), epsilon=0.05)
    c = config_hash(EstimatorConfig(seed=1), epsilon=0.06)
    assert a == b
    assert a != c
    assert len(a) == 16


# a value unlike the default of every config field of that name
_CHANGED = {"method": "hoeffding", "alpha": 0.1, "pi": 0.25, "seed": 1, "n_min": 5, "kind": "cosine",
            "bound_B": 2.0, "k": 3, "mode": "joint", "split_fraction": 0.25, "joint_slack": 0.01}
_CONFIGS = (EstimatorConfig(), LossSpec(), ClusterConfig(k=2))


@pytest.mark.parametrize("config,name", [(c, f.name) for c in _CONFIGS for f in dataclasses.fields(c)],
                         ids=[f"{type(c).__name__}.{f.name}" for c in _CONFIGS for f in dataclasses.fields(c)])
def test_every_config_field_changes_the_config_hash(config, name):
    changed = dataclasses.replace(config, **{name: _CHANGED[name]})
    assert getattr(changed, name) != getattr(config, name)
    others = [c for c in _CONFIGS if c is not config]
    assert config_hash(*others, changed, mode="cpac") != config_hash(*others, config, mode="cpac")


def test_integer_and_float_keep_probabilities_stamp_one_config_hash():
    assert config_hash(EstimatorConfig(pi=1)) == config_hash(EstimatorConfig(pi=1.0))


def test_integer_and_float_joint_slacks_stamp_one_config_hash():
    assert config_hash(ClusterConfig(k=2, joint_slack=0)) == config_hash(ClusterConfig(k=2, joint_slack=0.0))


def test_integer_and_float_tolerances_stamp_one_config_hash():
    rng = np.random.default_rng(8)
    records = table(labeled("a", rng.integers(0, 2, 20).tolist(), rng.random(20).tolist())
                    + labeled("b", rng.integers(0, 2, 20).tolist(), rng.random(20).tolist()))
    config = EstimatorConfig(n_min=2)
    for calibrate in (
        lambda eps: calibrate_gpac(records, LabelAssigner(records.labels), eps, config),
        lambda eps: calibrate_cpac(records, ClusterConfig(k=2), eps, config),
    ):
        (as_int, _), (as_float, _) = calibrate(1), calibrate(1.0)
        assert as_int.config_hash == as_float.config_hash
        assert json.dumps(as_int.to_dict()) == json.dumps(as_float.to_dict())
        assert '"epsilon": 1.0,' in json.dumps(as_int.to_dict())


def _policy(**settings):
    return RoutingPolicy(**{"epsilon": 0.1, "alpha": 0.05, "seed": 0, "assigner": TrivialAssigner(),
                            "thresholds": (), **settings})


def _group(**settings):
    return GroupSpec(**{"name": "g", "weight": 1.0, "bin_edges": (0, 1), "loss_prob": (0.1,), **settings})


_SPEC = SyntheticSpec((_group(),))


def _coverage(n_cal=20, trials=2, epsilon=0.1):
    return coverage_experiment(_SPEC, n_cal, trials, epsilon, "gpac", EstimatorConfig())


def _evaluate(trials, seed=1):
    return evaluate(table(labeled("a", [0.0, 1.0, 0.0], [0.1, 0.5, 0.9])), _policy(), trials=trials, seed=seed)


@pytest.mark.parametrize("build, message", [
    (lambda: LossSpec(bound_B=True), "loss bound B must be positive and finite"),
    (lambda: LossSpec(bound_B="1"), "loss bound B must be positive and finite"),
    (lambda: ClusterConfig(k=2, joint_slack=True), "joint_slack must be non-negative and finite"),
    (lambda: ClusterConfig(k=2, joint_slack=False), "joint_slack must be non-negative and finite"),
    (lambda: ClusterConfig(k=2, joint_slack="0"), "joint_slack must be non-negative and finite"),
    (lambda: EstimatorConfig(seed=True), "seed must be an integer, got True"),
    (lambda: EstimatorConfig(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: EstimatorConfig(seed="1"), "seed must be an integer, got '1'"),
    (lambda: ClusterConfig(k=2, seed=True), "seed must be an integer, got True"),
    (lambda: ClusterConfig(k=2, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: ClusterConfig(k=2, seed="1"), "seed must be an integer, got '1'"),
    (lambda: EstimatorConfig(alpha="0.05"), "alpha must lie in (0, 1)"),
    (lambda: ClusterConfig(k=2, split_fraction="0.5"), "split_fraction must lie strictly inside (0, 1)"),
    (lambda: _policy(alpha="0.05"), "alpha must lie in (0, 1), got '0.05'"),
    (lambda: _policy(seed=True), "seed must be an integer, got True"),
    (lambda: _policy(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: _policy(seed="1"), "seed must be an integer, got '1'"),
    (lambda: _group(weight=True), "group g: weight must be a positive finite number"),
    (lambda: _group(weight="1"), "group g: weight must be a positive finite number"),
    (lambda: _group(weight=math.inf), "group g: weight must be a positive finite number"),
    (lambda: _policy(config_hash=3), "config_hash must be a string, got 3"),
    (lambda: _group(tokens_thinking=1.5), "group g: tokens_thinking must be a positive integer"),
    (lambda: _group(tokens_thinking=True), "group g: tokens_thinking must be a positive integer"),
    (lambda: _group(tokens_cheap=True), "group g: tokens_cheap must be a non-negative integer"),
    (lambda: _group(name=7), "group name must be a string, got 7"),
    (lambda: _group(bin_edges=("0", "1")), "group g: bin edges must be finite numbers, got '0'"),
    (lambda: _group(bin_edges=(0, 10**400, 1), loss_prob=(0.1, 0.1)),
     f"group g: bin edges must be finite numbers, got {10**400}"),
    (lambda: _group(loss_prob=("0.1",)), "group g: loss probabilities must lie in [0, 1]"),
    (lambda: _group(bin_edges=5), "group g: bin edges must be finite numbers, got 5"),
    (lambda: _group(loss_prob=0.1), "group g: loss probabilities must lie in [0, 1]"),
    (lambda: SyntheticSpec((_group(),), name=5), "spec name must be a string, got 5"),
    (lambda: SyntheticSpec((_group(),), notes=["x"]), "spec notes must be a string, got ['x']"),
    (lambda: Partition(["0.2", "0.8"]), "centroids must be finite numbers, got '0.2'"),
    (lambda: Partition([True, 2]), "centroids must be finite numbers, got True"),
    (lambda: Partition(5), "centroids must be finite numbers, got 5"),
    (lambda: LabelAssigner((1, 2)), "labels must be strings, got 1"),
    (lambda: LabelAssigner("math"), "labels must be strings, got 'math'"),
    (lambda: LabelAssigner({"math"}), "labels must be strings, got {'math'}"),
    (lambda: LabelAssigner(frozenset({"math"})), "labels must be strings, got frozenset({'math'})"),
    (lambda: Partition({0.2, 0.5, 0.8}), "centroids must be finite numbers, got {0.2, 0.5, 0.8}"),
    (lambda: _group(bin_edges={0.0, 0.5, 1.0}, loss_prob=(0.1, 0.2)),
     "group g: bin edges must be finite numbers, got {0.0, 0.5, 1.0}"),
    (lambda: _coverage(trials=True), "trials must be at least 1"),
    (lambda: _coverage(trials=1.5), "trials must be at least 1"),
    (lambda: _coverage(n_cal=True), "n_cal must be at least 1"),
    (lambda: _coverage(n_cal=20.0), "n_cal must be at least 1"),
    (lambda: _evaluate(True), "trials must be at least 1"),
    (lambda: _evaluate(1.5), "trials must be at least 1"),
    (lambda: _evaluate(3, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: _evaluate(3, seed="1"), "seed must be an integer, got '1'"),
    (lambda: _evaluate(3, seed=True), "seed must be an integer, got True"),
], ids=["bound_B-True", "bound_B-str", "joint_slack-True", "joint_slack-False", "joint_slack-str",
        "estimator_seed-True", "estimator_seed-float", "estimator_seed-str",
        "cluster_seed-True", "cluster_seed-float", "cluster_seed-str", "alpha-str", "split_fraction-str",
        "policy_alpha-str", "policy_seed-True", "policy_seed-float", "policy_seed-str",
        "weight-True", "weight-str", "weight-inf", "config_hash-int", "tokens_thinking-float",
        "tokens_thinking-True", "tokens_cheap-True", "group_name-int", "bin_edges-str", "bin_edges-huge",
        "loss_prob-str", "bin_edges-int", "loss_prob-float", "spec_name-int", "spec_notes-list", "centroids-str",
        "centroids-bool", "centroids-int", "labels-int", "labels-str", "labels-set", "labels-frozenset",
        "centroids-set", "bin_edges-set",
        "coverage_trials-True", "coverage_trials-float", "n_cal-True", "n_cal-float",
        "evaluate_trials-True", "evaluate_trials-float",
        "evaluate_seed-float", "evaluate_seed-str", "evaluate_seed-True"])
def test_a_setting_rejects_a_bool_or_a_value_of_another_type(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("stamp, value", [
    (lambda alpha: config_hash(EstimatorConfig(alpha=alpha)), 0.125),
    (lambda pi: config_hash(EstimatorConfig(pi=pi)), 0.25),
    (lambda n_min: config_hash(EstimatorConfig(n_min=n_min)), 5),
    (lambda seed: config_hash(EstimatorConfig(seed=seed)), 7),
    (lambda k: config_hash(ClusterConfig(k=k)), 3),
    (lambda share: config_hash(ClusterConfig(k=2, split_fraction=share)), 0.25),
    (lambda slack: config_hash(ClusterConfig(k=2, joint_slack=slack)), 0.0625),
    (lambda seed: config_hash(ClusterConfig(k=2, seed=seed)), 7),
    (lambda bound: config_hash(LossSpec(bound_B=bound)), 2.0),
    (lambda epsilon: gpac(labeled("a", [0.0] * 20, np.linspace(0, 1, 20)), epsilon, EstimatorConfig())[0]
     .config_hash, 0.25),
    (lambda alpha: json.dumps(_policy(alpha=alpha).to_dict()), 0.125),
    (lambda seed: json.dumps(_policy(seed=seed).to_dict()), 7),
    (lambda weight: json.dumps(dataclasses.asdict(_group(weight=weight))), 1.0),
    (lambda tokens: json.dumps(dataclasses.asdict(_group(tokens_thinking=tokens))), 300),
    (lambda tokens: json.dumps(dataclasses.asdict(_group(tokens_cheap=tokens))), 30),
    (lambda trials: json.dumps(_coverage(trials=trials).to_dict()), 3),
    (lambda n_cal: json.dumps(_coverage(n_cal=n_cal).to_dict()), 30),
    (lambda trials: json.dumps(_evaluate(trials).to_dict()), 3),
    (lambda seed: json.dumps(_evaluate(3, seed=seed).to_dict()), 1),
], ids=["alpha", "pi", "n_min", "estimator_seed", "k", "split_fraction", "joint_slack", "cluster_seed",
        "bound_B", "epsilon", "policy_alpha", "policy_seed", "weight", "tokens_thinking", "tokens_cheap",
        "coverage_trials", "n_cal", "evaluate_trials", "evaluate_seed"])
def test_a_numpy_scalar_setting_stamps_what_its_python_number_does(stamp, value):
    as_numpy = (np.float32 if isinstance(value, float) else np.int64)(value)
    assert stamp(as_numpy) == stamp(value)


def test_a_coverage_report_keeps_epsilon_as_a_float():
    assert json.dumps(_coverage(epsilon=np.float32(0.25)).to_dict()) == json.dumps(_coverage(epsilon=0.25).to_dict())
    assert '"epsilon": 1.0,' in json.dumps(_coverage(epsilon=1).to_dict())


@pytest.mark.parametrize("offset", [-1.0, math.nan, math.inf])
def test_ucb_offset_must_be_non_negative_and_finite(offset):
    # at -1.0 a 400-record group with 5% loss would certify threshold 0.999 at epsilon 0.05
    losses = np.where(np.arange(400) % 20 == 0, 1.0, 0.0)
    records = table(labeled("a", losses, np.linspace(0, 0.999, 400)))
    config = EstimatorConfig()
    message = f"^ucb_offset must be non-negative and finite, got {offset!r}$"
    with pytest.raises(ValueError, match=message):
        calibrate_group(records, 0.05, config, np.random.default_rng(0), ucb_offset=offset)
    with pytest.raises(ValueError, match=message):
        calibrate_gpac(records, LabelAssigner(records.labels), 0.05, config, ucb_offset=offset)


def test_a_bool_tolerance_is_rejected_everywhere():
    records = table(labeled("a", [0.0] * 20, np.linspace(0, 1, 20)))
    config = EstimatorConfig()
    for build in (
        lambda: RoutingPolicy(epsilon=True, alpha=0.05, seed=0, assigner=TrivialAssigner(), thresholds=()),
        lambda: calibrate_group(records, True, config, np.random.default_rng(0)),
        lambda: calibrate_gpac(records, LabelAssigner(records.labels), True, config),
        lambda: calibrate_cpac(records, ClusterConfig(k=2), True, config),
    ):
        with pytest.raises(ValueError, match="^tolerance epsilon must be positive and finite, got True$"):
            build()
