"""Importance-sampled loss estimator and its confidence bounds."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pac_route.estimator import (
    EstimatorConfig,
    UcbCurve,
    ZSamples,
    candidate_grid,
    draw_z_samples,
    ucb_clt,
    ucb_hoeffding,
)
from pac_route.records import LossSpec, RecordTable


def pool(losses, uncertainties, bound_B=1.0):
    return RecordTable.from_records([
        dict(id=f"r{i}", uncertainty=u, loss=l)
        for i, (l, u) in enumerate(zip(losses, uncertainties))
    ], LossSpec(bound_B=bound_B))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(method="wilson")
    with pytest.raises(ValueError):
        EstimatorConfig(alpha=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(pi=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(pi=1.5)
    # one draw per record: there is no draw count to set
    with pytest.raises(TypeError):
        EstimatorConfig(m=10)


@pytest.mark.parametrize("field,value", [
    ("pi", "0.5"), ("pi", True), ("pi", {"r0": 0.5}), ("pi", float("nan")),
    ("n_min", -1), ("n_min", True), ("n_min", 1.5),
])
def test_config_rejects_a_setting_of_the_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        EstimatorConfig(**{field: value})


# ---------------------------------------------------------------- sampling


def poisson_draw(losses, uncertainty, pi, rng):
    """The sampler's closed form: one keep coin per record, in record order,
    then the draws in stable score order."""
    z = np.where(rng.random(len(losses)) < pi, np.asarray(losses) / pi, 0)
    order = np.argsort(uncertainty, kind="stable")
    return z[order], np.asarray(uncertainty)[order]


def test_draw_shapes_and_support():
    losses, uncertainty = [1.0, 0.0, 0.5, 0.0, 1.0], [0.1, 0.3, 0.5, 0.7, 0.9]
    s = draw_z_samples(pool(losses, uncertainty), EstimatorConfig(pi=0.5, seed=3), np.random.default_rng(3))
    z, u = poisson_draw(losses, uncertainty, 0.5, np.random.default_rng(3))
    # one draw per record: z is 0 (dropped or lossless) or that record's loss/pi
    assert len(s) == 5
    np.testing.assert_array_equal(s.z, z)
    np.testing.assert_array_equal(s.u_origin, u)
    assert set(np.round(s.z, 12)) <= {0.0, 2.0, 1.0}


def test_draw_counts_the_kept_records():
    rng = np.random.default_rng(8)
    s = draw_z_samples(pool(np.zeros(50), np.linspace(0, 1, 50)), EstimatorConfig(pi=0.3), rng)
    # a lossless record scores 0 whether kept or not, so kept comes from the coins
    assert s.kept == np.count_nonzero(np.random.default_rng(8).random(50) < 0.3)
    assert not s.z.any()
    assert draw_z_samples(pool(np.ones(7), np.linspace(0, 1, 7)), EstimatorConfig(pi=1), rng).kept == 7


def test_draw_rejects_empty_pool_and_bad_losses():
    with pytest.raises(ValueError):
        draw_z_samples(pool([], []), EstimatorConfig(), np.random.default_rng(0))
    # a loss outside [0, B] never reaches the sampler: the table rejects it
    with pytest.raises(ValueError, match=r"loss 1.5 outside \[0, 1.0\]"):
        pool([1.5], [0.5], bound_B=1.0)


def test_draw_is_deterministic_in_the_stream():
    recs = pool([1.0, 0.0, 0.3], [0.2, 0.4, 0.6])
    cfg = EstimatorConfig(pi=0.5)
    a = draw_z_samples(recs, cfg, np.random.default_rng(11))
    b = draw_z_samples(recs, cfg, np.random.default_rng(11))
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.u_origin, b.u_origin)
    assert a.kept == b.kept


def test_draw_unbiased_for_plugin_loss():
    # one draw over the pool tiled to 100,000 records: the mean of Z sits
    # within 3 SEs of the plug-in loss
    losses = [1.0, 0.0, 0.5, 0.25, 1.0]
    n = 100_000
    tiled = np.resize(losses, n)
    recs = pool(tiled, np.resize([0.1, 0.2, 0.3, 0.4, 0.5], n))
    s = draw_z_samples(recs, EstimatorConfig(pi=0.4), np.random.default_rng(42))
    z, u = poisson_draw(tiled, recs.uncertainty, 0.4, np.random.default_rng(42))
    # the tiled scores repeat: the draws come back in stable score order
    np.testing.assert_array_equal(s.z, z)
    np.testing.assert_array_equal(s.u_origin, u)
    se = np.std(s.z, ddof=1) / math.sqrt(n)
    assert abs(np.mean(s.z) - np.mean(losses)) < 3 * se


# an int or a numpy float is a number too
@pytest.mark.parametrize("pi", [0.3, 1.0, 1, np.float64(0.25)])
def test_draw_is_the_closed_form(pi):
    # one uniform per record, in record order: the pilots rest on this order
    losses = np.array([1.0, 0.0, 0.5, 0.25, 1.0])
    uncertainty = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    s = draw_z_samples(pool(losses, uncertainty), EstimatorConfig(pi=pi), np.random.default_rng(5))
    z, u = poisson_draw(losses, uncertainty, pi, np.random.default_rng(5))
    np.testing.assert_array_equal(s.z, z)
    np.testing.assert_array_equal(s.u_origin, u)


@settings(max_examples=200, deadline=None)
@given(scores=st.one_of(
    st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), max_size=200),   # ties
    st.lists(st.floats(0.0, 1.0), unique=True, max_size=200),        # none
))
def test_draws_are_held_in_stable_score_order(scores):
    u = np.array(scores, dtype=float)
    z = np.arange(len(u), dtype=float)  # each draw carries its position
    s = ZSamples(z=z, u_origin=u)
    order = np.argsort(u, kind="stable")
    np.testing.assert_array_equal(s.u_origin, u[order])
    np.testing.assert_array_equal(s.z, z[order])


def test_tiny_pi_keeps_nothing_and_warns_nothing():
    # only kept losses are divided by pi, so 1 / 5e-324 is never computed
    recs = pool([0.0, 1.0, 0.5, 1.0], [0.1, 0.2, 0.3, 0.4])
    with np.errstate(all="raise"):
        s = draw_z_samples(recs, EstimatorConfig(pi=5e-324), np.random.default_rng(0))
    assert s.kept == 0 and not s.z.any()


# ---------------------------------------------------------------- grid


def draws_at(uncertainty):
    return ZSamples(z=np.zeros(len(uncertainty)), u_origin=np.asarray(uncertainty, dtype=float))


def test_candidate_grid_prepends_zero():
    grid = candidate_grid(draws_at([0.5, 0.2, 0.5]))
    np.testing.assert_array_equal(grid, [0.0, 0.2, 0.5])


def test_candidate_grid_keeps_existing_zero():
    grid = candidate_grid(draws_at([0.0, 0.7]))
    np.testing.assert_array_equal(grid, [0.0, 0.7])


def test_an_empty_batch_has_the_zero_candidate_alone():
    np.testing.assert_array_equal(candidate_grid(draws_at([])), [0.0])


def test_a_tie_free_batch_scored_from_zero_is_its_own_grid():
    s = draws_at([0.4, 0.0, 0.9, 0.1])
    np.testing.assert_array_equal(candidate_grid(s), [0.0, 0.1, 0.4, 0.9])
    np.testing.assert_array_equal(candidate_grid(s), s.u_origin)


@pytest.mark.parametrize("scores,grid", [
    ([0.3, 0.7, 0.3, 0.7, 0.7], [0.0, 0.3, 0.7]),
    ([0.5, 0.0, 0.5, 0.0], [0.0, 0.5]),
    ([0.6] * 4, [0.0, 0.6]),
])
def test_an_all_tied_batch_has_one_candidate_per_distinct_score(scores, grid):
    np.testing.assert_array_equal(candidate_grid(draws_at(scores)), grid)


def test_the_grid_is_read_only():
    # every curve built on the grid shares the batch's array
    with pytest.raises(ValueError):
        candidate_grid(draws_at([0.2, 0.5]))[0] = 0.9


# ---------------------------------------------------------------- bounds


def test_clt_oracle_fixture():
    # mu = 1, sd = sqrt(4/3), m = 4
    s = ZSamples(z=np.array([2.0, 0.0, 2.0, 0.0]), u_origin=np.full(4, 0.3))
    curve = ucb_clt(s, EstimatorConfig(alpha=0.05))
    expected = 1.0 + ndtri(0.95) * math.sqrt(4.0 / 3.0) / 2.0
    np.testing.assert_array_equal(curve.candidates, [0.0, 0.3])
    assert curve.ucb[0] == 0.0  # nothing routed below every score
    assert abs(curve.ucb[-1] - expected) < 1e-12
    assert abs(curve.ucb[-1] - 1.94969) < 1e-4


# alpha levels the CLI is run at, the far tail, and a log-spaced sweep of (0, 1)
ALPHA_GRID = [0.05, 0.1, 0.01, 1e-6, 0.5, 0.9, *np.geomspace(1e-9, 0.999, 5000).tolist()]


def test_normal_quantile_matches_ndtri():
    # ucb_clt takes z_{1-alpha} from the standard library rather than scipy
    for alpha in ALPHA_GRID:
        got = NormalDist().inv_cdf(1.0 - alpha)
        want = float(ndtri(1.0 - alpha))
        assert abs(got - want) <= 8 * math.ulp(want), alpha


def hoeffding_width(m, bound_B=1.0, alpha=0.05, pi=0.5):
    """ucb - mean of the Hoeffding curve over an m-draw batch, taken at its last candidate."""
    s = ZSamples(z=np.full(m, 0.5), u_origin=np.linspace(0.0, 1.0, m))
    curve = ucb_hoeffding(s, EstimatorConfig(alpha=alpha, pi=pi), LossSpec(bound_B=bound_B))
    return curve.ucb[-1] - curve.mean[-1]


def test_hoeffding_delta_oracle():
    assert abs(hoeffding_width(200) - 0.19206) < 1e-5
    # closed form, recomputed
    assert abs(hoeffding_width(200) - math.sqrt(4 * math.log(40) / 400)) < 1e-15


def test_hoeffding_all_zero_samples():
    s = ZSamples(z=np.zeros(200), u_origin=np.linspace(0.01, 0.99, 200))
    curve = ucb_hoeffding(s, EstimatorConfig(alpha=0.05, pi=0.5), LossSpec(bound_B=1.0))
    assert len(curve.ucb) == 201  # every score, and 0.0 ahead of them
    np.testing.assert_allclose(curve.ucb, 0.19206, atol=1e-5)


def test_doubling_the_loss_bound_doubles_the_hoeffding_width():
    assert hoeffding_width(50, bound_B=2.0) == pytest.approx(2 * hoeffding_width(50, bound_B=1.0), rel=1e-12)


def test_hoeffding_rejects_an_empty_batch():
    s = ZSamples(z=np.zeros(0), u_origin=np.zeros(0))
    with pytest.raises(ValueError, match="at least one draw"):
        ucb_hoeffding(s, EstimatorConfig(), LossSpec())


def test_masking_matches_direct_computation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(5, 60))
        z = rng.choice([0.0, 0.5, 2.0], size=m)
        u = rng.uniform(0, 1, size=m)
        curve = ucb_clt(ZSamples(z=z, u_origin=u), EstimatorConfig(alpha=0.1))
        assert len(curve.candidates) == m + 1  # the scores are distinct and none is 0.0
        for j, c in enumerate(curve.candidates):
            masked = np.where(u <= c, z, 0.0)
            assert abs(curve.mean[j] - masked.mean()) < 1e-12
            expect = masked.mean() + ndtri(0.9) * np.std(masked, ddof=1) / math.sqrt(m)
            assert abs(curve.ucb[j] - expect) < 1e-10


def test_clt_mean_monotone_in_threshold():
    # z >= 0, so admitting more mass can only raise the mean
    rng = np.random.default_rng(12)
    z = rng.choice([0.0, 2.0], size=300, p=[0.8, 0.2])
    u = rng.uniform(0, 1, 300)
    curve = ucb_clt(ZSamples(z=z, u_origin=u), EstimatorConfig(alpha=0.05))
    assert np.all(np.diff(curve.mean) >= -1e-15)


def test_hoeffding_never_tighter_than_clt_at_default_alpha():
    # sd of [0, R]-valued draws is at most R/2, so the normal width
    # 1.645*sd/sqrt(m) stays under the distribution-free width 1.359*R/sqrt(m)
    rng = np.random.default_rng(77)
    for _ in range(50):
        m = int(rng.integers(10, 200))
        z = rng.choice([0.0, 1.0, 2.0], size=m)
        u = rng.uniform(0, 1, m)
        s = ZSamples(z=z, u_origin=u)
        clt = ucb_clt(s, EstimatorConfig(alpha=0.05))
        hoeff = ucb_hoeffding(s, EstimatorConfig(alpha=0.05, pi=0.5), LossSpec(bound_B=1.0))
        assert np.all(hoeff.ucb >= clt.ucb - 1e-12)


def test_clt_needs_two_samples():
    s = ZSamples(z=np.array([1.0]), u_origin=np.array([0.5]))
    with pytest.raises(ValueError):
        ucb_clt(s, EstimatorConfig(alpha=0.05))


def test_hoeffding_works_from_one_sample():
    s = ZSamples(z=np.array([1.0]), u_origin=np.array([0.5]))
    curve = ucb_hoeffding(s, EstimatorConfig(alpha=0.05, pi=0.5), LossSpec(bound_B=1.0))
    assert curve.ucb[-1] > 1.0


def test_curve_requires_ascending_candidates():
    with pytest.raises(ValueError):
        UcbCurve(
            candidates=np.array([0.5, 0.2]),
            mean=np.zeros(2),
            ucb=np.zeros(2),
        )


def test_samples_and_curves_reject_arrays_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        ZSamples(z=np.zeros(2), u_origin=np.zeros(3))
    with pytest.raises(ValueError, match="one length"):
        UcbCurve(candidates=np.zeros(2), mean=np.zeros(2), ucb=np.zeros(3))


def test_zsamples_rejects_negative_z():
    with pytest.raises(ValueError):
        ZSamples(z=np.array([-0.1]), u_origin=np.array([0.5]))
