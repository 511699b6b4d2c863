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
import math
import os
import pickle
import signal
from dataclasses import dataclass, replace

import numpy as np

from .calibration import _EPSILON, GROUP_ALL, GroupKey, Partition, RoutingPolicy, TrivialAssigner
from .clustering import ClusterConfig, calibrate
from .estimator import EstimatorConfig
from .io import json_field, json_list, json_object, load_json
from .records import _ANY, _COUNT, _INTEGER, _NUMBER, _STRING, RecordTable, _setting, _settings, _settle
from .seeding import derive_seed, substream

# {1}: the group's name, settled first
_GROUP = (("name", _STRING, _ANY, "group name must be a string, got {!r}"),
          ("weight", _NUMBER, lambda w: 0.0 < w < math.inf, "group {1}: weight must be a positive finite number"),
          ("tokens_thinking", _INTEGER, lambda t: t > 0, "group {1}: tokens_thinking must be a positive integer"),
          ("tokens_cheap", _INTEGER, lambda t: t >= 0, "group {1}: tokens_cheap must be a non-negative integer"))
_EDGE = (_NUMBER, math.isfinite, "group {1}: bin edges must be finite numbers, got {0!r}")
_PROB = (_NUMBER, lambda p: 0.0 <= p <= 1.0, "group {1}: loss probabilities must lie in [0, 1]")
_SPEC = (("name", _STRING, _ANY, "spec name must be a string, got {!r}"),
         ("notes", _STRING, _ANY, "spec notes must be a string, got {!r}"))


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
        _settle(self, _GROUP, self.name)
        edges, probs = _settings(self.bin_edges, *_EDGE, self.name), _settings(self.loss_prob, *_PROB, self.name)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "loss_prob", probs)
        if len(edges) < 2 or len(probs) != len(edges) - 1:
            raise ValueError(f"group {self.name}: need one loss probability per bin")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError(f"group {self.name}: bin edges must start at 0 and end at 1")
        if not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"group {self.name}: bin edges must be strictly ascending")


@dataclass(frozen=True)
class SyntheticSpec:
    groups: tuple[GroupSpec, ...]
    name: str = ""
    notes: str = ""

    def __post_init__(self):
        _settle(self, _SPEC)
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
        return cls(groups, data.get("name", ""), data.get("notes", ""))


def _group_from_dict(i: int, data: dict) -> GroupSpec:
    data = json_object(data, f"group {i}")
    return GroupSpec(
        name=data.get("name", f"g{i}"),
        weight=json_field(data, "weight"),
        bin_edges=json_field(data, "bins", json_list),
        loss_prob=json_field(data, "loss_prob", json_list),
        tokens_thinking=data.get("tokens_thinking", 400),
        tokens_cheap=data.get("tokens_cheap", 50),
    )


def load_spec(path) -> SyntheticSpec:
    return SyntheticSpec.from_dict(load_json(path))


def _prob_at(group: GroupSpec, u: np.ndarray) -> np.ndarray:
    edges = np.asarray(group.bin_edges)
    idx = np.clip(np.searchsorted(edges, u, side="right") - 1, 0, len(group.loss_prob) - 1)
    return np.asarray(group.loss_prob)[idx]


@functools.lru_cache(maxsize=4)
def _cell_probs(spec: SyntheticSpec) -> tuple[np.ndarray, ...]:
    """Merged bin edges, each group's loss probability in each cell, the weights' CDF that Generator.choice
    draws group indices from, and a row each of the groups' thinking and cheap tokens (read-only, shared)."""
    edges = np.unique(np.concatenate([g.bin_edges for g in spec.groups]))
    table = np.array([_prob_at(g, edges[:-1]) for g in spec.groups])
    cdf = spec.weights.cumsum()
    cdf /= cdf[-1]
    # one contiguous row each, as gathering a row of a 2-d array by index takes three times as long
    tokens = np.array([(g.tokens_thinking, g.tokens_cheap) for g in spec.groups], dtype=float).T.copy()
    edges.flags.writeable = table.flags.writeable = cdf.flags.writeable = tokens.flags.writeable = False
    return edges, table, cdf, *tokens


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
    edges, table, cdf, thinking, cheap = _cell_probs(spec)
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
        tokens_thinking=thinking[group_idx],
        tokens_cheap=cheap[group_idx],
    )


def true_risk(spec: SyntheticSpec, group_index: int, u: float) -> float:
    """Exact E[loss * 1{U <= u}] within one group: sum of covered bin mass times bin probability."""
    return _integral(spec.groups[group_index].bin_edges, spec.groups[group_index].loss_prob, 0.0, u)


def mixture_profile(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Merged bin edges and the group-weighted loss probability in each cell."""
    edges, table, *_ = _cell_probs(spec)
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
    The trials run in one contiguous block per CPU this process may run on,
    but no block of fewer than 8 trials: this process runs the first block
    and a forked child each other one.  Every trial's result is then folded in
    trial order, as a single loop would, so the report is the same for any
    CPU count.
    """
    trials, n_cal = _setting(trials, *_COUNT, "trials"), _setting(n_cal, *_COUNT, "n_cal")
    epsilon = _setting(epsilon, *_EPSILON)
    run = functools.partial(_trial, spec, n_cal, epsilon, method, est_config, cluster_config)
    covered: dict[GroupKey, int] = {}
    risk_sums: dict[GroupKey, float] = {}
    efficiency_sum = 0.0
    for risks, efficiency in _in_blocks(run, trials):
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


def _trial(spec, n_cal, epsilon, method, est_config, cluster_config, t: int) -> tuple[dict[GroupKey, float], float]:
    """True per-group risks and efficiency of the policy fitted in trial t."""
    master = est_config.seed
    records = generate(spec, n_cal, substream(master, "trial", t, "data"))
    cfg = replace(est_config, seed=derive_seed(master, "trial", t, "calibrate"))
    cc = cluster_config and replace(cluster_config, seed=derive_seed(master, "trial", t, "cluster"))
    policy, _ = calibrate(records, method, epsilon, cfg, cc)
    return policy_true_metrics(spec, policy)


# Fewest trials a block holds.  On a 2-core host a fork, its pipe and the wait cost about 2 ms, and the copy-on-write
# faults that follow (about 600 of them) about 4 ms more, so a child pays only for several trials of 0.5-2.5 ms each.
_BLOCK_MIN = 8


def _in_blocks(run, trials: int) -> list:
    """[run(t) for t in range(trials)], one contiguous block of trials per CPU this process may run on, but no
    block of fewer than _BLOCK_MIN trials.

    The first block runs here, every other one in a forked child.  A block
    whose child did not end cleanly runs again here, so its first failing
    trial raises here, as in a single loop; the earliest block raises first.
    Every child is waited for, and on an error or an interrupt killed first.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = max(1, min(cpus, trials // _BLOCK_MIN))
    cuts = [trials * i // count for i in range(count + 1)]
    blocks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    children = []
    try:
        for block in blocks[1:]:
            children.append((*_fork(run, block), block))
        results = [run(t) for t in blocks[0]]
        while children:
            pid, pipe, block = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            results += pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else [run(t) for t in block]
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(run, block: range):
    """(pid, read end of its pipe) of a child that pipes back the pickled [run(t) for t in block] and exits 0, or
    exits 1 if a trial raised.

    Fork is safe here although numpy's OpenBLAS keeps a second OS thread: the
    child calls no BLAS routine, and it leaves by os._exit, so it runs no
    atexit handler and flushes no buffer it copied (stdout, an open output).
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as out:
                pickle.dump([run(t) for t in block], out)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


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
