"""Learning the groups themselves by clustering uncertainty scores.

In one dimension the optimal k-means clusters are contiguous runs of the
sorted values, so the exact optimum is found by dynamic programming over
prefix sums; no Lloyd iterations and no restarts, hence fully deterministic.
The optimal start of the last cluster is monotone in the prefix end, so each
cluster-count layer but the last is a divide and conquer over that split,
walked by a schedule cached per (layer, n) at about 24 n bytes; the last
layer is needed at the full prefix only, which one O(n) scan gives.  The
cost is one sort, k - 2 layers of O(n log n) and that scan, with ties broken
toward the earliest split.  Values spread over less than about 1e-6 leave the
prefix-sum costs at rounding level, where the partition is optimal only up to
that rounding.
A fitted partition is a :class:`~pac_route.calibration.Partition`: ascending
centroids with midpoint boundaries, the group assigner of cpac calibration
and routing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .calibration import MODES, CalibrationReport, LabelAssigner, Partition, RoutingPolicy
from .calibration import TrivialAssigner, calibrate_gpac
from .estimator import EstimatorConfig
from .records import _INTEGER, _NUMBER, _SEED, RecordTable, _settle
from .seeding import substream

CLUSTER_MODES = ("split", "joint")
_CLUSTER = (("k", _INTEGER, lambda k: k >= 1, "k must be an integer >= 1, got {!r}"),
            ("split_fraction", _NUMBER, lambda f: 0.0 < f < 1.0, "split_fraction must lie strictly inside (0, 1)"),
            ("joint_slack", _NUMBER, lambda s: 0.0 <= s < np.inf, "joint_slack must be non-negative and finite"),
            _SEED)


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    mode: str = "split"
    split_fraction: float = 0.5
    joint_slack: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in CLUSTER_MODES:
            raise ValueError(f"mode must be one of {CLUSTER_MODES}, got {self.mode!r}")
        _settle(self, _CLUSTER)


@functools.lru_cache(maxsize=4)
def _schedule(c: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Layer c's divide and conquer over prefix ends c .. n, by recursion level: the ends `mid` it solves
    and, for the range [a, b] each one splits, a - 1 and b + 1, whose picks bound its candidates."""
    levels = []
    a, b = np.array([c]), np.array([n])
    while len(a):
        mid = (a + b) // 2
        level = (mid, a - 1, b + 1)
        for v in level:
            v.flags.writeable = False
        levels.append(level)
        left, right = a < mid, mid < b
        a, b = np.concatenate([a[left], mid[right] + 1]), np.concatenate([mid[left] - 1, b[right]])
    return tuple(levels)


def kmeans_1d(values, k: int) -> Partition:
    """Globally optimal k-means of scalar values, over the sorted order.

    Requires 1 <= k <= number of distinct values.  Cluster costs come from
    prefix sums.  Layer c holds, for every prefix end j, the best cost of
    splitting the first j points into c clusters; the leftmost optimal start
    of the last cluster never decreases as j grows, so each layer is a divide
    and conquer over that split (Gronlund et al., arXiv:1701.07204), run one
    recursion level at a time with all pending prefix ends of a level handled
    in a few array operations.  Which ends a level solves, and whose picks
    bound their candidates, depends on (layer, n) alone: `_schedule` caches
    it as read-only arrays, about 24 n bytes an entry, so fits of one size
    share it.  Only layers 2 .. k - 1 are built that way:
    the backtrack reads layer k at j = n alone, so the last cut is one scan
    over every candidate start.  That is one sort, k - 2 layers of
    O(n log n) and one O(n) scan in time, and O(k n) memory.
    Ties break toward the earliest split, so the result is deterministic.
    Values spread over less than about 1e-6 leave the prefix-sum costs at
    rounding level; there the partition is optimal only up to that rounding.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if not np.all(np.isfinite(xs)):
        raise ValueError("values must be finite")
    n_distinct = np.count_nonzero(xs[1:] != xs[:-1]) + (n > 0)  # runs of the sorted values
    if not 1 <= k <= n_distinct:
        raise ValueError(f"k must lie in [1, {n_distinct}] for {n_distinct} distinct values")
    p1 = np.concatenate([[0.0], np.cumsum(xs)])
    p2 = np.concatenate([[0.0], np.cumsum(xs * xs)])

    def seg_cost(i, j):
        # within-cluster sum of squares of xs[i:j]; i and j may be arrays
        s = p1[j] - p1[i]
        q = p2[j] - p2[i]
        return q - s * s / (j - i)

    # best[j] = optimal cost of the first j points with the current cluster count
    best = seg_cost(0, np.arange(n + 1).clip(1))
    best[0] = 0.0
    splits = np.zeros((k - 1, n + 2), dtype=int)
    for c in range(2, k):
        nxt = np.full(n + 1, np.inf)
        # layer c's picks by prefix end; the sentinels bound the outermost range's candidates
        pick_at = splits[c - 1]
        pick_at[c - 1], pick_at[n + 1] = c - 1, n - 1
        for mid, before, after in _schedule(c, n):
            o_lo, o_hi = pick_at[before], pick_at[after]
            width = np.minimum(mid - 1, o_hi) - o_lo + 1
            starts = np.cumsum(width) - width
            i = np.arange(width.sum()) - np.repeat(starts - o_lo, width)
            total = best[i] + seg_cost(i, np.repeat(mid, width))
            low = np.minimum.reduceat(total, starts)
            hits = np.flatnonzero(total == np.repeat(low, width))
            nxt[mid] = low
            pick_at[mid] = i[hits[np.searchsorted(hits, starts)]]
        best = nxt

    cuts = [n]
    if k > 1:
        i = np.arange(k - 1, n)
        cuts.append(int(i[np.argmin(best[i] + seg_cost(i, n))]))
        for c in range(k - 1, 1, -1):
            cuts.append(int(splits[c - 1, cuts[-1]]))
    cuts.append(0)
    cuts.reverse()
    centroids = tuple(
        float((p1[cuts[i + 1]] - p1[cuts[i]]) / (cuts[i + 1] - cuts[i])) for i in range(k)
    )
    return Partition(centroids)


def calibrate_cpac(
    records: RecordTable,
    cluster_config: ClusterConfig,
    epsilon: float,
    est_config: EstimatorConfig,
) -> tuple[RoutingPolicy, CalibrationReport]:
    """Learn a k-group partition of the uncertainty axis, then calibrate it.

    split mode shuffles the records by the cluster seed, fits the partition on
    the first split_fraction of them, and calibrates thresholds on the
    remainder only, keeping the two stages statistically independent.  joint
    mode reuses all records for both stages and adds joint_slack to every
    bound before threshold selection to pay for the reuse.
    """
    if cluster_config.mode == "split":
        order = substream(cluster_config.seed, "split").permutation(len(records))
        n_cluster = int(len(records) * cluster_config.split_fraction)
        if n_cluster < 1 or n_cluster >= len(records):
            raise ValueError("split leaves an empty clustering or calibration side")
        cluster_side = records.take(order[:n_cluster])
        cal_side = records.take(order[n_cluster:])
        offset = 0.0
    else:
        cluster_side = cal_side = records
        offset = cluster_config.joint_slack
    partition = kmeans_1d(cluster_side.uncertainty, cluster_config.k)
    return calibrate_gpac(cal_side, partition, epsilon, est_config, cluster_config, ucb_offset=offset)


def calibrate(
    records: RecordTable,
    mode: str,
    epsilon: float,
    est_config: EstimatorConfig,
    cluster_config: ClusterConfig | None = None,
) -> tuple[RoutingPolicy, CalibrationReport]:
    """Calibrate `records` under `mode`, one of MODES: marginal pools every
    record in one group, gpac groups them by their labels, and cpac learns
    the groups under `cluster_config`, which only cpac reads and needs."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "cpac":
        if cluster_config is None:
            raise ValueError("cpac needs a cluster config")
        return calibrate_cpac(records, cluster_config, epsilon, est_config)
    assigner = TrivialAssigner() if mode == "marginal" else LabelAssigner(records.labels)
    return calibrate_gpac(records, assigner, epsilon, est_config)


__all__ = [
    "CLUSTER_MODES",
    "Partition",
    "ClusterConfig",
    "kmeans_1d",
    "calibrate_cpac",
    "calibrate",
]
