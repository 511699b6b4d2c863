"""Importance-sampled loss estimation and upper confidence bounds.

The routing rule sends an input to the cheap model when its uncertainty score
falls at or below a threshold u.  For a pool of n calibration records the
quantity being bounded is the plug-in loss of that rule,

    r(u) = (1/n) * sum_i loss_i * 1{U_i <= u},

estimated from m importance-sampled draws: pick a record index uniformly with
replacement, flip xi ~ Bernoulli(pi_i), and score Z = xi * loss / pi_i.  The
draw is recorded together with the uncertainty of its source record, so one
batch of draws yields the whole curve u -> estimate via the masked samples
Z_t(u) = Z_t * 1{u_origin_t <= u}.  Two upper confidence bounds on E[Z(u)]
are provided: a normal-approximation (CLT) bound and a Hoeffding bound with
range B / pi_min.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .records import RecordTable

METHODS = ("clt", "hoeffding")


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling and bound settings shared by every group of one calibration run.

    pi is either a scalar applied to all records or a mapping record id ->
    weight; m defaults to ceil(n / pi_min) for the group at hand.
    """

    method: str = "clt"
    alpha: float = 0.05
    pi: float | Mapping[str, float] = 0.5
    m: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if isinstance(self.pi, (int, float)) and not 0.0 < float(self.pi) <= 1.0:
            raise ValueError("scalar pi must lie in (0, 1]")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be a positive integer")


@dataclass(frozen=True)
class ZSamples:
    """A batch of importance-sampled draws, aligned arrays of length m."""

    z: np.ndarray
    u_origin: np.ndarray

    def __post_init__(self):
        if self.z.shape != self.u_origin.shape or self.z.ndim != 1:
            raise ValueError("z and u_origin must be 1-d arrays of equal length")
        if len(self.z) and self.z.min() < 0:
            raise ValueError("importance draws must be non-negative")

    def __len__(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class UcbCurve:
    """Point estimate and upper confidence bound per candidate threshold."""

    candidates: np.ndarray
    mean: np.ndarray
    ucb: np.ndarray

    def __post_init__(self):
        if not (len(self.candidates) == len(self.mean) == len(self.ucb)):
            raise ValueError("curve arrays must share one length")
        if len(self.candidates) > 1 and not np.all(np.diff(self.candidates) > 0):
            raise ValueError("candidates must be strictly ascending")


def pi_weights(config: EstimatorConfig, records: RecordTable) -> np.ndarray:
    """Per-record sampling weights for `records` under `config.pi`."""
    if isinstance(config.pi, Mapping):
        try:
            w = np.array([float(config.pi[i]) for i in records.ids])
        except KeyError as exc:
            raise ValueError(f"no sampling weight for record id {exc.args[0]!r}") from None
    else:
        w = np.full(len(records), float(config.pi))
    if len(w) and not (0.0 < w.min() and w.max() <= 1.0):
        raise ValueError("sampling weights must lie in (0, 1]")
    return w


def sample_count(config: EstimatorConfig, n: int, pi_min: float) -> int:
    """Number of draws m: the configured value, else ceil(n / pi_min)."""
    if config.m is not None:
        return config.m
    return math.ceil(n / pi_min)


def draw_z_samples(
    records: RecordTable, config: EstimatorConfig, rng: np.random.Generator
) -> ZSamples:
    """Draw m importance samples from `records`.

    Fully determined by `rng`: the index draw happens first, then one uniform
    per draw for the Bernoulli keep/drop decision.
    """
    if not len(records):
        raise ValueError("cannot draw from an empty record pool")
    losses = records.loss
    weights = pi_weights(config, records)
    m = sample_count(config, len(records), float(weights.min()))
    idx = rng.integers(0, len(records), size=m)
    keep = rng.random(m) < weights[idx]
    z = np.where(keep, losses[idx] / weights[idx], 0.0)
    return ZSamples(z=z, u_origin=records.uncertainty[idx])


def candidate_grid(records: RecordTable) -> np.ndarray:
    """Sorted distinct observed uncertainties, with 0.0 prepended if absent.

    The estimate and both bounds are step functions that only change at
    observed scores, so this grid is lossless; the 0.0 candidate keeps "route
    nothing observed" expressible as a real threshold.
    """
    grid = np.unique(records.uncertainty)
    if len(grid) == 0 or grid[0] > 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def _masked_moments(samples: ZSamples, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate sums S1 = sum Z_t(u) and S2 = sum Z_t(u)^2."""
    order = np.argsort(samples.u_origin, kind="stable")
    u_sorted = samples.u_origin[order]
    z_sorted = samples.z[order]
    s1 = np.concatenate([[0.0], np.cumsum(z_sorted)])
    s2 = np.concatenate([[0.0], np.cumsum(z_sorted * z_sorted)])
    counts = np.searchsorted(u_sorted, candidates, side="right")
    return s1[counts], s2[counts]


def ucb_clt(samples: ZSamples, candidates, alpha: float) -> UcbCurve:
    """Normal-approximation bound mean + z_{1-alpha} * sd / sqrt(m).

    The sample standard deviation uses divisor m - 1, so m >= 2 draws are
    required; sd exactly 0 gives ucb equal to the mean.
    """
    cand = np.asarray(candidates, dtype=float)
    m = len(samples)
    if m < 2:
        raise ValueError("CLT bound needs at least two draws")
    s1, s2 = _masked_moments(samples, cand)
    mean = s1 / m
    var = np.maximum(s2 - s1 * s1 / m, 0.0) / (m - 1)
    sd = np.sqrt(var)
    ucb = mean + NormalDist().inv_cdf(1.0 - alpha) * sd / math.sqrt(m)
    return UcbCurve(candidates=cand, mean=mean, ucb=ucb)


def hoeffding_delta(alpha: float, bound_B: float, pi_min: float, m: int) -> float:
    """Hoeffding half-width sqrt(R^2 * ln(2 / alpha) / (2m)) with R = B / pi_min."""
    if m < 1:
        raise ValueError("Hoeffding bound needs at least one draw")
    if not 0.0 < pi_min <= 1.0:
        raise ValueError("pi_min must lie in (0, 1]")
    r = bound_B / pi_min
    return math.sqrt(r * r * math.log(2.0 / alpha) / (2.0 * m))


def ucb_hoeffding(
    samples: ZSamples, candidates, alpha: float, bound_B: float, pi_min: float
) -> UcbCurve:
    """Distribution-free bound mean + delta with one delta for all candidates."""
    cand = np.asarray(candidates, dtype=float)
    m = len(samples)
    delta = hoeffding_delta(alpha, bound_B, pi_min, m)
    s1, _ = _masked_moments(samples, cand)
    mean = s1 / m
    return UcbCurve(candidates=cand, mean=mean, ucb=mean + delta)


__all__ = [
    "METHODS",
    "EstimatorConfig",
    "ZSamples",
    "UcbCurve",
    "pi_weights",
    "sample_count",
    "draw_z_samples",
    "candidate_grid",
    "ucb_clt",
    "ucb_hoeffding",
    "hoeffding_delta",
]
