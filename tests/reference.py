"""Helpers only the tests use: oracles, samplers and record writers.

They live here rather than in the package so that the package needs numpy
alone; `partition_gap` needs scipy, which comes with the `test` extra.
"""

import json
import math
from statistics import NormalDist

import numpy as np
from scipy.optimize import linear_sum_assignment

from pac_route.io import atomic_write_text
from pac_route.simulation import SyntheticSpec

_EMBEDDING_FIELDS = ("thinking_embedding", "cheap_embedding")


def partition_gap(assignments_a, assignments_b, k: int) -> float:
    """Smallest disagreement fraction between two k-labelings over any relabeling.

    Minimizes over all label permutations via min-cost matching on the k x k
    agreement counts, so it is exact for any k.
    """
    a = np.asarray(assignments_a, dtype=int)
    b = np.asarray(assignments_b, dtype=int)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise ValueError("assignment vectors must be 1-d, non-empty, and equal length")
    for v in (a, b):
        if v.min() < 0 or v.max() >= k:
            raise ValueError(f"assignments must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=int)
    np.add.at(counts, (a, b), 1)
    rows, cols = linear_sum_assignment(-counts)
    return 1.0 - counts[rows, cols].sum() / len(a)


def sample_group(
    spec: SyntheticSpec, group_index: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n (uncertainty, loss) draws from one group's conditional distribution:
    scores uniform on [0, 1], then one loss coin per score against the loss
    probability of its bin."""
    group = spec.groups[group_index]
    u = rng.random(n)
    bins = np.searchsorted(np.asarray(group.bin_edges), u, side="right") - 1
    prob = np.asarray(group.loss_prob)[np.clip(bins, 0, len(group.loss_prob) - 1)]
    loss = (rng.random(n) < prob).astype(float)
    return u, loss


def calibrate_group_reference(uncertainty, loss, bound_B, epsilon, config, rng, ucb_offset=0.0):
    """One group's threshold and bound curve by the slow chain: the keep coins
    in record order, a stable argsort of the scores, np.unique for the grid
    and a searchsorted of the grid into the sorted scores.

    Returns (threshold or None, candidates, mean, ucb).
    """
    uncertainty, loss = np.asarray(uncertainty, dtype=float), np.asarray(loss, dtype=float)
    n = len(loss)
    keep = np.flatnonzero(rng.random(n) < config.pi)
    z = np.zeros(n)
    z[keep] = loss[keep] / config.pi
    order = np.argsort(uncertainty, kind="stable")
    u_sorted, z_sorted = uncertainty[order], z[order]
    grid = np.unique(uncertainty)
    if len(grid) == 0 or grid[0] > 0.0:
        grid = np.concatenate([[0.0], grid])
    counts = np.searchsorted(u_sorted, grid, side="right")
    s1 = np.concatenate([[0.0], np.cumsum(z_sorted)])[counts]
    s2 = np.concatenate([[0.0], np.cumsum(z_sorted * z_sorted)])[counts]
    mean = s1 / n
    if config.method == "clt":
        sd = np.sqrt(np.maximum(s2 - s1 * s1 / n, 0.0) / (n - 1))
        ucb = mean + NormalDist().inv_cdf(1.0 - config.alpha) * sd / math.sqrt(n)
    else:
        r = bound_B / config.pi
        ucb = mean + math.sqrt(r * r * math.log(2.0 / config.alpha) / (2.0 * n))
    if ucb_offset:
        ucb = ucb + ucb_offset
    feasible = np.flatnonzero(ucb <= epsilon)
    threshold = float(grid[feasible[-1]]) if len(feasible) else None
    return threshold, grid, mean, ucb


def binomial_slack(level: float, trials: int, n_se: float = 3.0) -> float:
    """n_se standard errors of a trials-sized binomial at rate `level`."""
    return n_se * math.sqrt(level * (1.0 - level) / trials)


def record_to_dict(row: dict) -> dict:
    """The row's set fields as one JSONL object, embeddings as arrays."""
    return {name: list(value) if name in _EMBEDDING_FIELDS else value
            for name, value in row.items() if value is not None}


def write_records_jsonl(rows, path) -> None:
    atomic_write_text("".join(json.dumps(record_to_dict(row)) + "\n" for row in rows), path)
