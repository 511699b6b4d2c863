"""Importance-sampled loss estimator and its confidence bounds."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

from pac_route.estimator import (
    EstimatorConfig,
    UcbCurve,
    ZSamples,
    candidate_grid,
    draw_z_samples,
    hoeffding_delta,
    pi_weights,
    sample_count,
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
    with pytest.raises(ValueError):
        EstimatorConfig(m=0)


def test_pi_weights_scalar_and_mapping():
    recs = pool([0, 0, 0], [0.1, 0.2, 0.3])
    np.testing.assert_allclose(pi_weights(EstimatorConfig(pi=0.25), recs), 0.25)
    w = pi_weights(EstimatorConfig(pi={"r0": 0.5, "r1": 0.9, "r2": 1.0}), recs)
    np.testing.assert_allclose(w, [0.5, 0.9, 1.0])


def test_pi_weights_missing_id():
    recs = pool([0, 0], [0.1, 0.2])
    with pytest.raises(ValueError) as info:
        pi_weights(EstimatorConfig(pi={"r0": 0.5}), recs)
    assert "r1" in str(info.value)


def test_sample_count_default_and_override():
    cfg = EstimatorConfig(pi=0.5)
    assert sample_count(cfg, 10, 0.5) == 20
    assert sample_count(cfg, 7, 0.3) == math.ceil(7 / 0.3)
    assert sample_count(EstimatorConfig(pi=0.5, m=33), 10, 0.5) == 33


# ---------------------------------------------------------------- sampling


def test_draw_shapes_and_support():
    recs = pool([1.0, 0.0, 0.5, 0.0, 1.0], [0.1, 0.3, 0.5, 0.7, 0.9])
    cfg = EstimatorConfig(pi=0.5, m=400, seed=3)
    s = draw_z_samples(recs, cfg, np.random.default_rng(3))
    assert len(s) == 400
    # z is either 0 (dropped or lossless) or loss/pi for some record
    allowed = {0.0, 2.0, 1.0}
    assert set(np.round(s.z, 12)) <= allowed
    assert set(s.u_origin) <= {0.1, 0.3, 0.5, 0.7, 0.9}


def test_draw_rejects_empty_pool_and_bad_losses():
    with pytest.raises(ValueError):
        draw_z_samples(pool([], []), EstimatorConfig(), np.random.default_rng(0))
    # a loss outside [0, B] never reaches the sampler: the table rejects it
    with pytest.raises(ValueError, match=r"loss 1.5 outside \[0, 1.0\]"):
        pool([1.5], [0.5], bound_B=1.0)


def test_draw_is_deterministic_in_the_stream():
    recs = pool([1.0, 0.0, 0.3], [0.2, 0.4, 0.6])
    cfg = EstimatorConfig(pi=0.5, m=100)
    a = draw_z_samples(recs, cfg, np.random.default_rng(11))
    b = draw_z_samples(recs, cfg, np.random.default_rng(11))
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.u_origin, b.u_origin)


def test_draw_unbiased_for_plugin_loss():
    # mean of Z over a large draw should sit within 3 SEs of the plug-in loss
    rng = np.random.default_rng(42)
    losses = [1.0, 0.0, 0.5, 0.25, 1.0]
    recs = pool(losses, [0.1, 0.2, 0.3, 0.4, 0.5])
    plugin = np.mean(losses)
    m = 100_000
    s = draw_z_samples(recs, EstimatorConfig(pi=0.4, m=m), rng)
    se = np.std(s.z, ddof=1) / math.sqrt(m)
    assert abs(np.mean(s.z) - plugin) < 3 * se


def test_draw_unbiased_under_per_record_weights():
    rng = np.random.default_rng(9)
    losses = [1.0, 0.2, 0.8, 0.0]
    recs = pool(losses, [0.1, 0.4, 0.6, 0.9])
    pi = {"r0": 0.2, "r1": 0.9, "r2": 0.5, "r3": 1.0}
    m = 100_000
    s = draw_z_samples(recs, EstimatorConfig(pi=pi, m=m), rng)
    se = np.std(s.z, ddof=1) / math.sqrt(m)
    assert abs(np.mean(s.z) - np.mean(losses)) < 3 * se


# ---------------------------------------------------------------- grid


def test_candidate_grid_prepends_zero():
    grid = candidate_grid(pool([0, 0, 0], [0.5, 0.2, 0.5]))
    np.testing.assert_array_equal(grid, [0.0, 0.2, 0.5])


def test_candidate_grid_keeps_existing_zero():
    grid = candidate_grid(pool([0, 0], [0.0, 0.7]))
    np.testing.assert_array_equal(grid, [0.0, 0.7])


# ---------------------------------------------------------------- bounds


def test_clt_oracle_fixture():
    # mu = 1, sd = sqrt(4/3), m = 4
    s = ZSamples(z=np.array([2.0, 0.0, 2.0, 0.0]), u_origin=np.full(4, 0.3))
    curve = ucb_clt(s, [0.5], alpha=0.05)
    expected = 1.0 + ndtri(0.95) * math.sqrt(4.0 / 3.0) / 2.0
    assert abs(curve.ucb[0] - expected) < 1e-12
    assert abs(curve.ucb[0] - 1.94969) < 1e-4


# alpha levels the CLI is run at, the far tail, and a log-spaced sweep of (0, 1)
ALPHA_GRID = [0.05, 0.1, 0.01, 1e-6, 0.5, 0.9, *np.geomspace(1e-9, 0.999, 5000).tolist()]


def test_normal_quantile_matches_ndtri():
    # ucb_clt takes z_{1-alpha} from the standard library rather than scipy
    for alpha in ALPHA_GRID:
        got = NormalDist().inv_cdf(1.0 - alpha)
        want = float(ndtri(1.0 - alpha))
        assert abs(got - want) <= 8 * math.ulp(want), alpha


def test_hoeffding_delta_oracle():
    assert abs(hoeffding_delta(0.05, 1.0, 0.5, 200) - 0.19206) < 1e-5
    # closed form, recomputed
    assert abs(hoeffding_delta(0.05, 1.0, 0.5, 200)
               - math.sqrt(4 * math.log(40) / 400)) < 1e-15


def test_hoeffding_all_zero_samples():
    s = ZSamples(z=np.zeros(200), u_origin=np.linspace(0.01, 0.99, 200))
    curve = ucb_hoeffding(s, [0.5, 1.0], alpha=0.05, bound_B=1.0, pi_min=0.5)
    np.testing.assert_allclose(curve.ucb, 0.19206, atol=1e-5)


def test_masking_matches_direct_computation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(5, 60))
        z = rng.choice([0.0, 0.5, 2.0], size=m)
        u = rng.uniform(0, 1, size=m)
        s = ZSamples(z=z, u_origin=u)
        cands = np.unique(rng.uniform(0, 1, size=5))
        curve = ucb_clt(s, cands, alpha=0.1)
        for j, c in enumerate(cands):
            masked = np.where(u <= c, z, 0.0)
            assert abs(curve.mean[j] - masked.mean()) < 1e-12
            expect = masked.mean() + ndtri(0.9) * np.std(masked, ddof=1) / math.sqrt(m)
            assert abs(curve.ucb[j] - expect) < 1e-10


def test_clt_mean_monotone_in_threshold():
    # z >= 0, so admitting more mass can only raise the mean
    rng = np.random.default_rng(12)
    z = rng.choice([0.0, 2.0], size=300, p=[0.8, 0.2])
    u = rng.uniform(0, 1, 300)
    curve = ucb_clt(ZSamples(z=z, u_origin=u), np.linspace(0, 1, 50), alpha=0.05)
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
        cands = candidate_grid(pool(np.zeros(4), [0.2, 0.4, 0.6, 0.8]))
        clt = ucb_clt(s, cands, alpha=0.05)
        hoeff = ucb_hoeffding(s, cands, alpha=0.05, bound_B=1.0, pi_min=0.5)
        assert np.all(hoeff.ucb >= clt.ucb - 1e-12)


def test_clt_needs_two_samples():
    s = ZSamples(z=np.array([1.0]), u_origin=np.array([0.5]))
    with pytest.raises(ValueError):
        ucb_clt(s, [0.5], alpha=0.05)


def test_hoeffding_works_from_one_sample():
    s = ZSamples(z=np.array([1.0]), u_origin=np.array([0.5]))
    curve = ucb_hoeffding(s, [0.5], alpha=0.05, bound_B=1.0, pi_min=0.5)
    assert curve.ucb[0] > 1.0


def test_curve_requires_ascending_candidates():
    with pytest.raises(ValueError):
        UcbCurve(
            candidates=np.array([0.5, 0.2]),
            mean=np.zeros(2),
            ucb=np.zeros(2),
        )


def test_zsamples_rejects_negative_z():
    with pytest.raises(ValueError):
        ZSamples(z=np.array([-0.1]), u_origin=np.array([0.5]))
