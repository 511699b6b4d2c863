"""Learning the groups themselves by clustering uncertainty scores.

In one dimension the optimal k-means clusters are contiguous runs of the
sorted values, so the exact optimum is found by dynamic programming over
prefix sums; no Lloyd iterations and no restarts, hence fully deterministic.
The optimal start of the last cluster is monotone in the prefix end, so each
cluster-count layer but the last is a divide and conquer over that split; the
last layer is needed at the full prefix only, which one O(n) scan gives.  The
cost is one sort, k - 2 layers of O(n log n) and that scan, with ties broken
toward the earliest split.  Values spread over less than about 1e-6 leave the
prefix-sum costs at rounding level, where the partition is optimal only up to
that rounding.
A fitted partition is a :class:`~pac_route.calibration.Partition`: ascending
centroids with midpoint boundaries, the group assigner of cpac calibration
and routing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import MODES, CalibrationReport, LabelAssigner, Partition, RoutingPolicy
from .calibration import TrivialAssigner, calibrate_gpac
from .estimator import EstimatorConfig
from .records import RecordTable
from .seeding import substream

CLUSTER_MODES = ("split", "joint")


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    mode: str = "split"
    split_fraction: float = 0.5
    joint_slack: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (type(self.k) is not bool and isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if self.mode not in CLUSTER_MODES:
            raise ValueError(f"mode must be one of {CLUSTER_MODES}, got {self.mode!r}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie strictly inside (0, 1)")
        slack = self.joint_slack
        if type(slack) is bool or not isinstance(slack, (int, float)) or not 0.0 <= slack < np.inf:
            raise ValueError("joint_slack must be non-negative and finite")
        object.__setattr__(self, "joint_slack", float(slack))  # 0 and 0.0 stamp one config_hash
        if type(self.seed) is not int:  # a bool is no seed
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


def kmeans_1d(values, k: int) -> Partition:
    """Globally optimal k-means of scalar values, over the sorted order.

    Requires 1 <= k <= number of distinct values.  Cluster costs come from
    prefix sums.  Layer c holds, for every prefix end j, the best cost of
    splitting the first j points into c clusters; the leftmost optimal start
    of the last cluster never decreases as j grows, so each layer is a divide
    and conquer over that split (Gronlund et al., arXiv:1701.07204), run one
    recursion level at a time with all pending prefix ends of a level handled
    in a few array operations.  Only layers 2 .. k - 1 are built that way:
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
    splits = np.zeros((k - 1, n + 1), dtype=int)
    for c in range(2, k):
        nxt = np.full(n + 1, np.inf)
        # pending subproblems: prefix ends [j_lo, j_hi], split candidates [o_lo, o_hi]
        j_lo = np.array([c])
        j_hi = np.array([n])
        o_lo = np.array([c - 1])
        o_hi = np.array([n - 1])
        while len(j_lo):
            mid = (j_lo + j_hi) // 2
            width = np.minimum(mid - 1, o_hi) - o_lo + 1
            starts = np.cumsum(width) - width
            i = np.arange(width.sum()) - np.repeat(starts - o_lo, width)
            total = best[i] + seg_cost(i, np.repeat(mid, width))
            low = np.minimum.reduceat(total, starts)
            hits = np.flatnonzero(total == np.repeat(low, width))
            first = hits[np.searchsorted(hits, starts)]
            pick = i[first]
            nxt[mid] = low
            splits[c - 1, mid] = pick
            left = j_lo < mid
            right = mid < j_hi
            j_lo = np.concatenate([j_lo[left], mid[right] + 1])
            j_hi = np.concatenate([mid[left] - 1, j_hi[right]])
            o_lo = np.concatenate([o_lo[left], pick[right]])
            o_hi = np.concatenate([pick[left], o_hi[right]])
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
