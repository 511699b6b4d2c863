"""Score-axis clustering: optimal 1D k-means, clustered calibration, and the
partition-gap oracle of the tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pac_route.calibration import LabelAssigner, TrivialAssigner, calibrate_gpac, load_policy, save_policy
from pac_route.clustering import (
    ClusterConfig,
    Partition,
    calibrate,
    calibrate_cpac,
    kmeans_1d,
)
from pac_route.estimator import EstimatorConfig
from pac_route.records import LossSpec, RecordTable
from pac_route.seeding import derive_seed
from reference import partition_gap


def pool(losses, uncertainties):
    return [
        dict(id=f"r{i}", uncertainty=float(u), loss=float(l))
        for i, (l, u) in enumerate(zip(losses, uncertainties))
    ]


def table(records):
    return RecordTable.from_records(records, LossSpec())


def brute_force_sse(xs, k):
    # minimum within-cluster sum of squares over contiguous splits of sorted xs
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        edges = (0,) + cuts + (n,)
        cost = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            seg = xs[a:b]
            cost += float(np.sum((seg - seg.mean()) ** 2))
        best = min(best, cost)
    return best


def dp_sse(xs, k):
    part = kmeans_1d(xs, k)
    xs = np.sort(np.asarray(xs, dtype=float))
    labels = [part.resolve(None, x) for x in xs]
    cost = 0.0
    for j in range(part.k):
        seg = xs[[i for i, g in enumerate(labels) if g == j]]
        if len(seg):
            cost += float(np.sum((seg - seg.mean()) ** 2))
    return cost


def _kmeans_1d_reference(values, k):
    # oracle: the O(k n^2) dynamic program that scores every split of every
    # prefix end with kmeans_1d's arithmetic; argmin keeps the earliest tie
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    p1 = np.concatenate([[0.0], np.cumsum(xs)])
    p2 = np.concatenate([[0.0], np.cumsum(xs * xs)])

    def seg_cost(i, j):
        s = p1[j] - p1[i]
        q = p2[j] - p2[i]
        return q - s * s / (j - i)

    best = seg_cost(0, np.arange(n + 1).clip(1))
    best[0] = 0.0
    splits = np.zeros((k, n + 1), dtype=int)
    for c in range(2, k + 1):
        nxt = np.full(n + 1, np.inf)
        for j in range(c, n + 1):
            i = np.arange(c - 1, j)
            total = best[i] + seg_cost(i, j)
            pick = int(np.argmin(total))
            nxt[j] = total[pick]
            splits[c - 1, j] = pick + c - 1
        best = nxt
    cuts = [n]
    for c in range(k, 1, -1):
        cuts.append(int(splits[c - 1, cuts[-1]]))
    cuts.append(0)
    cuts.reverse()
    return tuple(
        float((p1[cuts[i + 1]] - p1[cuts[i]]) / (cuts[i + 1] - cuts[i])) for i in range(k)
    )


# ----------------------------------------------------------------- kmeans


def test_kmeans_two_obvious_clusters():
    part = kmeans_1d([0.1, 0.2, 0.8, 0.9], 2)
    assert part.centroids == pytest.approx((0.15, 0.85))
    assert part.boundaries == pytest.approx((0.5,))


def test_kmeans_k1_is_the_mean():
    part = kmeans_1d([0.2, 0.4, 0.9], 1)
    assert part.centroids == pytest.approx((0.5,))
    assert part.boundaries == ()


def test_kmeans_k_equals_distinct_values():
    part = kmeans_1d([0.3, 0.3, 0.6, 0.9], 3)
    assert part.centroids == pytest.approx((0.3, 0.6, 0.9))
    assert dp_sse([0.3, 0.3, 0.6, 0.9], 3) == pytest.approx(0.0)


def test_kmeans_k_out_of_range():
    with pytest.raises(ValueError):
        kmeans_1d([0.1, 0.5], 3)
    with pytest.raises(ValueError):
        kmeans_1d([0.5, 0.5, 0.5], 2)  # one distinct value
    with pytest.raises(ValueError):
        kmeans_1d([0.1, 0.5], 0)


def test_kmeans_rejects_non_finite_values():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            kmeans_1d([0.1, bad, 0.5, 0.9], 2)


def test_kmeans_matches_exhaustive_search():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        xs = np.round(rng.uniform(0, 1, n), 3)
        if len(np.unique(xs)) < 2:
            continue
        k = int(rng.integers(1, len(np.unique(xs)) + 1))
        assert dp_sse(xs, k) == pytest.approx(brute_force_sse(xs, k), abs=1e-9)


def test_kmeans_matches_the_quadratic_dp_exactly():
    # uniform, rounded to 2 decimals (ties), and only 2-6 distinct values
    rng = np.random.default_rng(2011)
    for case in range(1200):
        n = int(rng.integers(2, 301))
        shape = case % 3
        if shape == 0:
            xs = rng.uniform(0, 1, n)
        elif shape == 1:
            xs = np.round(rng.uniform(0, 1, n), 2)
        else:
            xs = rng.choice(rng.uniform(0, 1, int(rng.integers(2, 7))), n)
        k = int(rng.integers(1, min(8, len(np.unique(xs))) + 1))
        assert kmeans_1d(xs, k).centroids == _kmeans_1d_reference(xs, k), (case, n, k)


# few distinct values, some of them not exact in binary, so that values repeat
# and totals tie, exactly or up to rounding
_SCORE_POOL = (0.0, 0.1, 0.125, 0.3, 0.375, 0.5, 0.7, 0.75, 0.9, 1.0)


@st.composite
def repeated_values_and_k(draw):
    xs = draw(st.lists(st.sampled_from(_SCORE_POOL), min_size=1, max_size=60))
    n_distinct = len(set(xs))
    k = draw(st.sampled_from(sorted({1, min(2, n_distinct), n_distinct})) | st.integers(1, n_distinct))
    return xs, k


@settings(max_examples=400, deadline=None)
@given(repeated_values_and_k())
def test_kmeans_matches_the_quadratic_dp_on_repeated_values(case):
    xs, k = case
    assert kmeans_1d(xs, k).centroids == _kmeans_1d_reference(xs, k)


@pytest.mark.parametrize("xs, k, earliest, later", [
    # {0} | {.375, .375, .75} and {0, .375, .375} | {.75}
    ([0.75, 0.375, 0.0, 0.375], 2, (1,), (3,)),
    # the same tie in the last layer, behind a first cluster {0}
    ([0.0, 0.8125, 1.0, 0.625, 0.8125], 3, (1, 2), (1, 4)),
])
def test_kmeans_breaks_a_last_layer_tie_toward_the_earliest_cut(xs, k, earliest, later):
    ordered = np.sort(xs)

    def cost(cuts):
        return sum(float(np.sum((seg - seg.mean()) ** 2)) for seg in np.split(ordered, cuts))

    # the values are dyadic, so both partitions cost exactly the optimum
    assert cost(earliest) == cost(later) == brute_force_sse(xs, k)
    centroids = tuple(float(seg.mean()) for seg in np.split(ordered, earliest))
    assert kmeans_1d(xs, k).centroids == centroids == _kmeans_1d_reference(xs, k)


def test_kmeans_is_order_insensitive():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 1, 30)
    a = kmeans_1d(xs, 4)
    b = kmeans_1d(xs[::-1], 4)
    assert a.centroids == b.centroids


# -------------------------------------------------------------- partition


def test_partition_requires_midpoint_boundaries():
    assert Partition((0.2, 0.8)).boundaries == (0.5,)
    with pytest.raises(ValueError):
        Partition(centroids=(0.8, 0.2))
    with pytest.raises(ValueError):
        Partition(centroids=())


def test_assignment_ties_go_to_the_lower_cluster():
    part = Partition([0.2, 0.8])
    assert part.resolve(None, 0.5) == 0
    assert part.resolve(None, 0.50001) == 1
    assert part.resolve(None, 0.0) == 0
    assert part.resolve(None, 1.0) == 1


def test_assignment_matches_searchsorted_left():
    rng = np.random.default_rng(77)
    for k in range(1, 9):
        centroids = np.sort(rng.choice(np.arange(1, 100) / 100, k, replace=False))
        part = Partition(centroids)
        scores = np.concatenate([rng.uniform(0, 1, 200), part.boundaries, [0.0, 1.0]])
        for u in scores:
            expect = int(np.searchsorted(part.boundaries, u, side="left"))
            assert part.resolve(None, float(u)) == expect
        for i, b in enumerate(part.boundaries):
            assert part.resolve(None, b) == i


def test_intervals_tile_the_unit_range():
    part = Partition([0.1, 0.5, 0.9])
    spans = part.intervals()
    assert spans[0][0] == 0.0
    assert spans[-1][1] == 1.0
    for (a, b), (c, d) in zip(spans[:-1], spans[1:]):
        assert b == c


# ------------------------------------------------------------------- gap


def test_gap_zero_for_identical_and_relabeled():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, 60)
    assert partition_gap(a, a, 3) == 0.0
    swapped = np.choose(a, [2, 0, 1])  # consistent relabeling
    assert partition_gap(a, swapped, 3) == 0.0


def test_gap_frozen_example():
    a = [0, 0, 1, 1]
    b = [0, 1, 1, 1]
    assert partition_gap(a, b, 2) == pytest.approx(0.25)


def test_gap_matches_brute_force_permutation_search():
    rng = np.random.default_rng(6)
    for _ in range(40):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4, 40))
        a = rng.integers(0, k, n)
        b = rng.integers(0, k, n)
        best = min(
            float(np.mean(np.asarray([perm[x] for x in a]) != b))
            for perm in itertools.permutations(range(k))
        )
        assert partition_gap(a, b, k) == pytest.approx(best)


def test_gap_validates_input():
    with pytest.raises(ValueError):
        partition_gap([0, 1], [0], 2)
    with pytest.raises(ValueError):
        partition_gap([0, 2], [0, 1], 2)
    with pytest.raises(ValueError):
        partition_gap([], [], 2)


# ----------------------------------------------------- clustered calibration


def rigged_records(n, rng):
    # low scores lossless, high scores lossy: a 2-cluster shape
    us = rng.uniform(0, 1, n)
    losses = (us > 0.6).astype(float) * (rng.uniform(0, 1, n) < 0.5)
    return pool(losses, us)


def test_cpac_split_mode_reports_and_routes():
    recs = rigged_records(400, np.random.default_rng(42))
    cc = ClusterConfig(k=2, mode="split", split_fraction=0.5, seed=7)
    policy, report = calibrate_cpac(table(recs), cc, 0.05, EstimatorConfig(seed=7))
    assert policy.mode == "cpac"
    assert isinstance(policy.assigner, Partition)
    assert policy.assigner.k == 2
    # calibration side only: half the records, every one resolvable
    assert report.n_total == 200
    assert report.n_unresolved == 0


def test_cpac_split_thresholds_ignore_cluster_side_losses():
    rng = np.random.default_rng(9)
    recs = rigged_records(300, rng)
    cc = ClusterConfig(k=2, mode="split", split_fraction=0.4, seed=21)
    base, _ = calibrate_cpac(table(recs), cc, 0.05, EstimatorConfig(seed=3))

    order = np.random.default_rng(derive_seed(21, "split")).permutation(len(recs))
    n_cluster = int(len(recs) * 0.4)
    mutated = list(recs)
    for i in order[:n_cluster]:
        r = mutated[i]
        mutated[i] = dict(r, loss=1.0 - r["loss"])
    redone, _ = calibrate_cpac(table(mutated), cc, 0.05, EstimatorConfig(seed=3))
    assert redone.to_dict() == base.to_dict()


def test_cpac_split_needs_records_on_both_sides():
    recs = rigged_records(2, np.random.default_rng(1))
    cc = ClusterConfig(k=1, mode="split", split_fraction=0.1, seed=1)
    with pytest.raises(ValueError):
        calibrate_cpac(table(recs), cc, 0.05, EstimatorConfig(seed=1))


def test_cpac_joint_mode_uses_every_record():
    recs = rigged_records(200, np.random.default_rng(17))
    cc = ClusterConfig(k=2, mode="joint", seed=5)
    policy, report = calibrate_cpac(table(recs), cc, 0.05, EstimatorConfig(seed=5))
    assert report.n_total == 200
    assert sum(t.n_calibration for t in policy.thresholds) == 200


def test_cpac_joint_slack_never_raises_thresholds():
    recs = rigged_records(500, np.random.default_rng(23))
    plain, _ = calibrate_cpac(
        table(recs), ClusterConfig(k=2, mode="joint", joint_slack=0.0, seed=2),
        0.05, EstimatorConfig(seed=2))
    slacked, _ = calibrate_cpac(
        table(recs), ClusterConfig(k=2, mode="joint", joint_slack=0.03, seed=2),
        0.05, EstimatorConfig(seed=2))
    for key in (0, 1):
        a = slacked.threshold_for(key)
        b = plain.threshold_for(key)
        lo = -1.0 if a.threshold is None else a.threshold
        hi = -1.0 if b.threshold is None else b.threshold
        assert lo <= hi


def test_cpac_k1_joint_matches_marginal_calibration():
    # one cluster spanning [0, 1] pools everything, like the trivial assigner
    from pac_route.calibration import TrivialAssigner, calibrate_gpac

    recs = rigged_records(150, np.random.default_rng(31))
    cc = ClusterConfig(k=1, mode="joint", seed=4)
    clustered, _ = calibrate_cpac(table(recs), cc, 0.05, EstimatorConfig(seed=4))
    pooled, _ = calibrate_gpac(table(recs), TrivialAssigner(), 0.05,
                               EstimatorConfig(seed=4))
    a = clustered.thresholds[0]
    b = pooled.thresholds[0]
    assert a.n_calibration == b.n_calibration
    # same records, same per-group stream tag differs by key; thresholds may
    # differ by draw noise but both must be feasible choices on the same pool
    assert a.threshold is None or a.ucb_at_threshold <= 0.05
    assert b.threshold is None or b.ucb_at_threshold <= 0.05


def test_cpac_policy_round_trip(tmp_path):
    recs = rigged_records(300, np.random.default_rng(8))
    cc = ClusterConfig(k=3, mode="split", seed=6)
    policy, _ = calibrate_cpac(table(recs), cc, 0.05, EstimatorConfig(seed=6))
    path = tmp_path / "cpac.json"
    save_policy(policy, path)
    back = load_policy(path)
    assert back.to_dict() == policy.to_dict()
    assert isinstance(back.assigner, Partition)
    assert back.assigner.centroids == policy.assigner.centroids


@pytest.mark.parametrize("mode, cluster_config", [
    ("marginal", None),
    ("gpac", None),
    ("cpac", ClusterConfig(k=2, mode="split", seed=4)),
    ("cpac", ClusterConfig(k=2, mode="joint", joint_slack=0.01, seed=4)),
], ids=["marginal", "gpac", "cpac-split", "cpac-joint"])
def test_calibrate_matches_the_direct_call_of_its_mode(mode, cluster_config):
    rows = rigged_records(300, np.random.default_rng(5))
    records = table([dict(row, group_label="ab"[i % 2]) for i, row in enumerate(rows)])
    config = EstimatorConfig(seed=4)
    if mode == "cpac":
        direct = calibrate_cpac(records, cluster_config, 0.05, config, n_min=5)
    else:
        assigner = TrivialAssigner() if mode == "marginal" else LabelAssigner(records.labels)
        direct = calibrate_gpac(records, assigner, 0.05, config, n_min=5)
    policy, report = calibrate(records, mode, 0.05, config, cluster_config, n_min=5)
    assert policy.mode == mode
    assert policy.to_dict() == direct[0].to_dict()
    assert report.to_dict() == direct[1].to_dict()


def test_calibrate_rejects_an_unknown_mode_and_cpac_without_a_cluster_config():
    records = table(rigged_records(50, np.random.default_rng(6)))
    with pytest.raises(ValueError, match="^mode must be one of"):
        calibrate(records, "bootstrap", 0.05, EstimatorConfig())
    with pytest.raises(ValueError, match="^cpac needs a cluster config$"):
        calibrate(records, "cpac", 0.05, EstimatorConfig())


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(k=0)
    for k in (2.5, True, "2"):
        with pytest.raises(ValueError, match="^k must be an integer"):
            ClusterConfig(k=k)
    with pytest.raises(ValueError):
        ClusterConfig(k=2, mode="sideways")
    with pytest.raises(ValueError):
        ClusterConfig(k=2, split_fraction=1.0)
    with pytest.raises(ValueError):
        ClusterConfig(k=2, joint_slack=-0.1)
