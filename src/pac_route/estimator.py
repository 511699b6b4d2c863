"""Importance-sampled loss estimation and upper confidence bounds.

The routing rule sends an input to the cheap model when its uncertainty score
falls at or below a threshold u.  For a group the quantity being bounded is
its population risk under that rule,

    R(u) = E[loss * 1{U <= u}],

estimated by Poisson sampling: each of the group's n calibration records
flips one keep coin xi_i ~ Bernoulli(pi) and scores Z_i = xi_i * loss_i / pi.
Each draw keeps the uncertainty of its record, and a batch holds its draws in
ascending score order, sorted once, so one batch yields the whole curve
u -> estimate via the masked samples Z_i(u) = Z_i * 1{u_origin_i <= u}.
For i.i.d. records these are i.i.d. with mean R(u), so a valid bound on
their mean covers the population risk, not only the pool's own.
Two upper confidence bounds on E[Z(u)] are provided: a normal-approximation
(CLT) bound and a Hoeffding bound with range B / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .records import _INTEGER, _NUMBER, _SEED, LossSpec, RecordTable, _settle

METHODS = ("clt", "hoeffding")
DEFAULT_N_MIN = 10
_ESTIMATOR = (("alpha", _NUMBER, lambda alpha: 0.0 < alpha < 1.0, "alpha must lie in (0, 1)"),
              ("pi", _NUMBER, lambda pi: 0.0 < pi <= 1.0, "pi must be a number in (0, 1], got {!r}"),
              ("n_min", _INTEGER, lambda n_min: n_min >= 0, "n_min must be non-negative, got {}"), _SEED)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling and bound settings shared by every group of one calibration run.

    pi is the keep probability of every record.  A group whose draw keeps
    fewer than n_min records is not bounded.
    """

    method: str = "clt"
    alpha: float = 0.05
    pi: float = 0.5
    seed: int = 0
    n_min: int = DEFAULT_N_MIN

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        _settle(self, _ESTIMATOR)
        if self.method == "clt" and 1.0 - self.alpha == 1.0:  # the normal quantile at 1 - alpha would be infinite
            raise ValueError(f"alpha {self.alpha!r} is too small for clt: 1 - alpha rounds to 1")


@dataclass(frozen=True)
class ZSamples:
    """A batch of importance-sampled draws, aligned arrays of length n.

    Building a batch sorts both arrays by u_origin, ties in their given
    order.  kept counts the draws whose keep coin landed; a batch built by
    hand, without coins, leaves it None.  The sort also yields the read-only
    grid (see candidate_grid) and counts, the draws at or below each point.
    """

    z: np.ndarray
    u_origin: np.ndarray
    kept: int | None = None
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray | slice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.z.shape != self.u_origin.shape or self.z.ndim != 1:
            raise ValueError("z and u_origin must be 1-d arrays of equal length")
        if len(self.z) and self.z.min() < 0:
            raise ValueError("importance draws must be non-negative")
        order = np.argsort(self.u_origin)
        u = self.u_origin[order]
        rises = u[1:] > u[:-1]
        tie_free = rises.all()
        if not tie_free:  # without ties every sort is the stable one
            order = np.argsort(self.u_origin, kind="stable")
            u = self.u_origin[order]
        object.__setattr__(self, "z", self.z[order])
        object.__setattr__(self, "u_origin", u)
        # a grid point is the first score of a run, its count the run's end: a slice if no score repeats
        counts = slice(1, None) if tie_free else np.append(np.flatnonzero(rises) + 1, len(u))
        grid = u if tie_free else u[np.concatenate([[0], counts[:-1]])]
        if not len(grid) or grid[0] > 0.0:
            grid = np.concatenate([[0.0], grid])
            counts = slice(0, None) if tie_free else np.concatenate([[0], counts])
        grid.flags.writeable = False  # every curve built on the grid shares it
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "counts", counts)

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


def draw_z_samples(
    records: RecordTable, config: EstimatorConfig, rng: np.random.Generator
) -> ZSamples:
    """One keep coin per record: Z_i = loss_i / pi if kept, else 0.

    Fully determined by `rng`: one uniform per record, in record order.  Only
    the kept losses are divided by pi, so no pi overflows a dropped row.
    """
    n = len(records)
    if not n:
        raise ValueError("cannot draw from an empty record pool")
    keep = np.flatnonzero(rng.random(n) < config.pi)
    z = np.zeros(n)
    z[keep] = records.loss[keep] / config.pi
    return ZSamples(z=z, u_origin=records.uncertainty, kept=len(keep))


def candidate_grid(samples: ZSamples) -> np.ndarray:
    """The batch's sorted distinct scores, with 0.0 prepended if absent.

    The estimate and both bounds are step functions that only change at
    observed scores, so this grid is lossless; the 0.0 candidate keeps "route
    nothing observed" expressible as a real threshold.
    """
    return samples.grid


def _masked_moments(samples: ZSamples) -> tuple[np.ndarray, np.ndarray]:
    """Per grid point sums S1 = sum Z_t(u) and S2 = sum Z_t(u)^2."""
    z = samples.z
    s1 = np.concatenate([[0.0], np.cumsum(z)])
    s2 = np.concatenate([[0.0], np.cumsum(z * z)])
    return s1[samples.counts], s2[samples.counts]


def ucb_clt(samples: ZSamples, config: EstimatorConfig) -> UcbCurve:
    """Normal-approximation bound mean + z_{1-alpha} * sd / sqrt(m) on the
    batch's grid, alpha from `config`.

    The sample standard deviation uses divisor m - 1, so m >= 2 draws are
    required; sd exactly 0 gives ucb equal to the mean.
    """
    m = len(samples)
    if m < 2:
        raise ValueError("CLT bound needs at least two draws")
    s1, s2 = _masked_moments(samples)
    mean = s1 / m
    var = np.maximum(s2 - s1 * s1 / m, 0.0) / (m - 1)
    sd = np.sqrt(var)
    ucb = mean + NormalDist().inv_cdf(1.0 - config.alpha) * sd / math.sqrt(m)
    return UcbCurve(candidates=candidate_grid(samples), mean=mean, ucb=ucb)


def ucb_hoeffding(samples: ZSamples, config: EstimatorConfig, spec: LossSpec) -> UcbCurve:
    """Distribution-free bound mean + delta on the batch's grid, one delta for
    every candidate: sqrt(R^2 * ln(2 / alpha) / (2m)) with R = B / pi, alpha
    and pi from `config` and B from `spec`."""
    m = len(samples)
    if m < 1:
        raise ValueError("Hoeffding bound needs at least one draw")
    r = spec.bound_B / config.pi
    delta = math.sqrt(r * r * math.log(2.0 / config.alpha) / (2.0 * m))
    mean = _masked_moments(samples)[0] / m
    return UcbCurve(candidates=candidate_grid(samples), mean=mean, ucb=mean + delta)


__all__ = [
    "METHODS",
    "DEFAULT_N_MIN",
    "EstimatorConfig",
    "ZSamples",
    "UcbCurve",
    "draw_z_samples",
    "candidate_grid",
    "ucb_clt",
    "ucb_hoeffding",
]
