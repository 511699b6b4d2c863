"""Synthetic populations with known risk, for verifying the guarantees.

A synthetic spec is a mixture of groups.  Within every group the uncertainty
score is uniform on [0, 1] and the loss is Bernoulli with a piecewise-
constant success probability over score bins, so the true risk of any
threshold rule has a closed form.  The coverage experiment repeatedly draws a
calibration set, fits a policy, and judges each group's TRUE risk against the
tolerance; reported coverage is the fraction of trials where the guarantee
held.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .calibration import GROUP_ALL, GroupKey, Partition, RoutingPolicy, TrivialAssigner
from .clustering import ClusterConfig, calibrate
from .estimator import EstimatorConfig
from .io import json_field, json_integer, json_list, json_number, json_numbers, json_object, json_string
from .io import load_json
from .records import RecordTable
from .seeding import derive_seed, substream


@dataclass(frozen=True)
class GroupSpec:
    """One mixture component: bin edges over [0, 1] and a loss probability per bin."""

    name: str
    weight: float
    bin_edges: tuple[float, ...]
    loss_prob: tuple[float, ...]
    tokens_thinking: int = 400
    tokens_cheap: int = 50

    def __post_init__(self):
        edges = tuple(map(float, self.bin_edges))
        probs = tuple(map(float, self.loss_prob))
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "loss_prob", probs)
        if not self.weight > 0:
            raise ValueError(f"group {self.name}: weight must be positive")
        if len(edges) < 2 or len(probs) != len(edges) - 1:
            raise ValueError(f"group {self.name}: need one loss probability per bin")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError(f"group {self.name}: bin edges must start at 0 and end at 1")
        if not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"group {self.name}: bin edges must be strictly ascending")
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"group {self.name}: loss probabilities must lie in [0, 1]")
        if self.tokens_thinking <= 0 or self.tokens_cheap < 0:
            raise ValueError(f"group {self.name}: bad token counts")


@dataclass(frozen=True)
class SyntheticSpec:
    groups: tuple[GroupSpec, ...]
    name: str = ""
    notes: str = ""

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a synthetic spec needs at least one group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ValueError("group names must be distinct")
        total = sum(g.weight for g in self.groups)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"group weights must sum to 1, got {total}")

    @property
    def weights(self) -> np.ndarray:
        return np.array([g.weight for g in self.groups])

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticSpec":
        data = json_object(data, "a synthetic spec")
        groups = tuple(_group_from_dict(i, g) for i, g in enumerate(json_field(data, "groups", json_list)))
        return cls(groups, json_field(data, "name", json_string, ""), json_field(data, "notes", json_string, ""))


def _group_from_dict(i: int, data: dict) -> GroupSpec:
    data = json_object(data, f"group {i}")
    return GroupSpec(
        name=json_field(data, "name", json_string, f"g{i}"),
        weight=json_field(data, "weight", json_number),
        bin_edges=json_field(data, "bins", json_numbers),
        loss_prob=json_field(data, "loss_prob", json_numbers),
        tokens_thinking=json_field(data, "tokens_thinking", json_integer, 400),
        tokens_cheap=json_field(data, "tokens_cheap", json_integer, 50),
    )


def load_spec(path) -> SyntheticSpec:
    return SyntheticSpec.from_dict(load_json(path))


def _prob_at(group: GroupSpec, u: np.ndarray) -> np.ndarray:
    edges = np.asarray(group.bin_edges)
    idx = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(group.loss_prob) - 1)
    return np.asarray(group.loss_prob)[idx]


@functools.lru_cache(maxsize=4)
def _cell_probs(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged bin edges, each group's loss probability in each merged cell, and the
    weights' CDF that Generator.choice draws group indices from (read-only, shared)."""
    edges = np.unique(np.concatenate([g.bin_edges for g in spec.groups]))
    table = np.array([_prob_at(g, edges[:-1]) for g in spec.groups])
    cdf = spec.weights.cumsum()
    cdf /= cdf[-1]
    edges.flags.writeable = table.flags.writeable = cdf.flags.writeable = False
    return edges, table, cdf


@functools.lru_cache(maxsize=4)
def _draw_ids(n: int) -> np.ndarray:
    # every trial of a coverage experiment reuses one read-only id column
    ids = np.array([f"s{i}" for i in range(n)], dtype=object)
    ids.flags.writeable = False
    return ids


def generate(spec: SyntheticSpec, n: int, rng: np.random.Generator) -> RecordTable:
    """Draw n labeled records from the mixture, as a table with ids s0, s1, ...

    Draw order is fixed (group indices, then scores, then loss coins), so a
    given generator state always yields the same records.  Label codes index
    the spec's groups.
    """
    edges, table, cdf = _cell_probs(spec)
    group_idx = cdf.searchsorted(rng.random(n), side="right")
    u = rng.random(n)
    coins = rng.random(n)
    # u < 1 = edges[-1], so every score falls in a cell
    probs = table[group_idx, np.searchsorted(edges, u, side="right") - 1]
    return RecordTable(
        ids=_draw_ids(n),
        uncertainty=u,
        loss=(coins < probs).astype(float),
        label_code=group_idx,
        labels=tuple(g.name for g in spec.groups),
        tokens_thinking=np.array([g.tokens_thinking for g in spec.groups], dtype=float)[group_idx],
        tokens_cheap=np.array([g.tokens_cheap for g in spec.groups], dtype=float)[group_idx],
    )


def true_risk(spec: SyntheticSpec, group_index: int, u: float) -> float:
    """Exact E[loss * 1{U <= u}] within one group: sum of covered bin mass times bin probability."""
    return _integral(spec.groups[group_index].bin_edges, spec.groups[group_index].loss_prob, 0.0, u)


def mixture_profile(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Merged bin edges and the group-weighted loss probability in each cell."""
    edges, table, _ = _cell_probs(spec)
    probs = np.zeros(len(edges) - 1)
    for g, row in zip(spec.groups, table):
        probs += g.weight * row
    return edges, probs


def _integral(edges, probs, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the step function that is probs[i] between edges[i] and edges[i + 1]."""
    if hi <= lo:
        return 0.0
    covered = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
    return float(np.sum(covered * probs))


def policy_true_metrics(
    spec: SyntheticSpec, policy: RoutingPolicy
) -> tuple[dict[GroupKey, float], float]:
    """True per-group risk and true cheap-routing probability of a fitted policy.

    For marginal policies the risks are reported against the spec's real
    groups (the single learned threshold applies to each); for label policies
    against the labeled groups; for partition policies against the learned
    score intervals, whose records are a mixture of the real groups.  A
    group's cut is its limit clipped to the group's score range.
    """
    assigner = policy.assigner
    if isinstance(assigner, Partition):
        edges, probs = mixture_profile(spec)
        risks: dict[GroupKey, float] = {}
        efficiency = 0.0
        for j, (lo, hi) in enumerate(assigner.intervals()):
            top = min(max(policy.limits.get(j, -np.inf), lo), hi)
            risks[j] = _integral(edges, probs, lo, top) / (hi - lo)
            efficiency += top - lo
        return risks, efficiency
    if isinstance(assigner, TrivialAssigner):
        cut = max(policy.limits.get(GROUP_ALL, -np.inf), 0.0)
        risks = {g.name: true_risk(spec, j, cut) for j, g in enumerate(spec.groups)}
        return risks, cut
    risks = {}
    efficiency = 0.0
    for j, g in enumerate(spec.groups):
        cut = max(policy.limits.get(g.name, -np.inf), 0.0)
        risks[g.name] = true_risk(spec, j, cut)
        efficiency += g.weight * cut
    return risks, efficiency


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of a coverage experiment; coverage counts trials with true risk <= epsilon."""

    per_group_coverage: dict[GroupKey, float]
    per_group_mean_risk: dict[GroupKey, float]
    efficiency: float
    trials: int
    method: str
    epsilon: float
    alpha: float
    n_cal: int

    def to_dict(self) -> dict:
        return {name: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
                for name, value in vars(self).items()}


def coverage_experiment(
    spec: SyntheticSpec,
    n_cal: int,
    trials: int,
    epsilon: float,
    method: str,
    est_config: EstimatorConfig,
    cluster_config: ClusterConfig | None = None,
) -> CoverageReport:
    """Fit `trials` policies on fresh draws and score their true risks.

    Every trial derives its data and estimator streams from (seed, trial
    index), so runs are reproducible and trials are mutually independent.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n_cal < 1:
        raise ValueError("n_cal must be at least 1")
    master = est_config.seed
    covered: dict[GroupKey, int] = {}
    risk_sums: dict[GroupKey, float] = {}
    efficiency_sum = 0.0
    for t in range(trials):
        records = generate(spec, n_cal, substream(master, "trial", t, "data"))
        cfg = replace(est_config, seed=derive_seed(master, "trial", t, "calibrate"))
        cc = cluster_config and replace(cluster_config, seed=derive_seed(master, "trial", t, "cluster"))
        policy, _ = calibrate(records, method, epsilon, cfg, cc)
        risks, efficiency = policy_true_metrics(spec, policy)
        efficiency_sum += efficiency
        for key, risk in risks.items():
            covered[key] = covered.get(key, 0) + (risk <= epsilon + 1e-12)
            risk_sums[key] = risk_sums.get(key, 0.0) + risk
    return CoverageReport(
        per_group_coverage={k: covered[k] / trials for k in covered},
        per_group_mean_risk={k: risk_sums[k] / trials for k in risk_sums},
        efficiency=efficiency_sum / trials,
        trials=trials,
        method=method,
        epsilon=epsilon,
        alpha=est_config.alpha,
        n_cal=n_cal,
    )


__all__ = [
    "GroupSpec",
    "SyntheticSpec",
    "load_spec",
    "generate",
    "true_risk",
    "mixture_profile",
    "policy_true_metrics",
    "CoverageReport",
    "coverage_experiment",
]
