"""Per-group threshold calibration and the routing policy it produces.

For each group the selected threshold is the largest candidate whose upper
confidence bound on the routed loss stays at or below the tolerance epsilon:

    u_hat = max { u in grid : UCB_u(alpha) <= epsilon }.

When no candidate qualifies, or the group has too few records to bound (none,
or one under CLT), fewer than n_min, or keeps fewer than n_min in its draw,
the group falls back to the always-think sentinel: every input of that group
goes to the thinking model, which trivially satisfies the tolerance.  At
routing time a score equal to the threshold goes to the cheap model, and any
input whose group cannot be resolved goes to the thinking model.

Every assigner is a fixed partition whose `keys` name its groups, and names
its mode: `TrivialAssigner` marginal, `LabelAssigner` gpac, `Partition` cpac.
Calibration runs on a :class:`~pac_route.records.RecordTable`.  `assign` maps
a whole table to group codes, indices into `keys`; calibration buckets rows
by code, and each group's table is a `take` of its rows in their original
order.  `resolve` is the same mapping for one input.  A policy checks its
keys when it is built; every route goes by `RoutingPolicy.limits`.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .estimator import (
    DEFAULT_N_MIN,
    EstimatorConfig,
    UcbCurve,
    candidate_grid,
    draw_z_samples,
    ucb_clt,
    ucb_hoeffding,
)
from .io import atomic_write_json, json_array, json_field, json_integer, json_number, json_numbers, json_object
from .io import json_list, json_string, json_typed, load_json
from .records import NoRecordsError, RecordTable
from .seeding import substream

POLICY_VERSION = "pac-route/1"
MODES = ("marginal", "gpac", "cpac")
GROUP_ALL = "all"
CHEAP = "cheap"
THINK = "think"
# the limit of a group that never routes cheap: always_think, no threshold, unresolved
_NEVER = -math.inf

GroupKey = str | int


class PolicyVersionError(ValueError):
    """Raised when a policy file declares a schema version we do not speak."""


@dataclass(frozen=True)
class TrivialAssigner:
    """Puts every record into the single group "all" (marginal calibration)."""

    mode = "marginal"
    keys = (GROUP_ALL,)

    def resolve(self, group_label: str | None, uncertainty: float) -> GroupKey | None:
        return GROUP_ALL

    def assign(self, table: RecordTable) -> np.ndarray:
        """Group code of every row, an index into `keys`."""
        return np.zeros(len(table), dtype=np.int64)

    def to_dict(self) -> dict:
        return {"kind": "trivial"}


@dataclass(frozen=True)
class LabelAssigner:
    """Groups records by their group_label, one group per label in `labels`.

    A record without a label, or with a label outside the tuple, is
    unresolvable and routes to the thinking model.
    """

    mode = "gpac"
    labels: tuple[str, ...]
    keys = property(lambda self: self.labels)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be distinct, got {list(self.labels)}")

    def resolve(self, group_label: str | None, uncertainty: float) -> GroupKey | None:
        return group_label if group_label in self.labels else None

    def assign(self, table: RecordTable) -> np.ndarray:
        """Group code of every row, an index into `keys` (-1 = none)."""
        codes = [self.labels.index(label) if label in self.labels else -1 for label in table.labels]
        # the appended -1 is where a row without a label (code NO_LABEL) lands
        return np.array(codes + [-1], dtype=np.int64)[table.label_code]

    def to_dict(self) -> dict:
        return {"kind": "labels", "labels": list(self.labels)}


@dataclass(frozen=True)
class Partition:
    """k ascending centroids; inputs go to the nearest one (ties downward)."""

    mode = "cpac"
    centroids: tuple[float, ...]
    boundaries: tuple[float, ...] = field(init=False)
    keys: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        c = tuple(float(x) for x in self.centroids)
        if not all(map(math.isfinite, c)):
            raise ValueError(f"centroids must be finite, got {list(c)}")
        if len(c) == 0 or not all(a < b for a, b in zip(c, c[1:])):
            raise ValueError("centroids must be non-empty and strictly ascending")
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "boundaries", tuple((c[i] + c[i + 1]) / 2.0 for i in range(len(c) - 1)))
        object.__setattr__(self, "keys", tuple(range(len(c))))

    @property
    def k(self) -> int:
        return len(self.centroids)

    def resolve(self, group_label: str | None, uncertainty: float) -> int:
        """Index of the nearest centroid; a score on a boundary takes the lower index."""
        return bisect_left(self.boundaries, uncertainty)

    def assign(self, table: RecordTable) -> np.ndarray:
        """Cluster index of every row; a score on a boundary takes the lower index."""
        return np.searchsorted(self.boundaries, table.uncertainty, side="left")

    def intervals(self) -> tuple[tuple[float, float], ...]:
        """The score interval owned by each cluster, covering [0, 1]."""
        edges = (0.0,) + self.boundaries + (1.0,)
        return tuple((edges[i], edges[i + 1]) for i in range(self.k))

    def to_dict(self) -> dict:
        return {"kind": "centroids", "centroids": list(self.centroids)}


@dataclass(frozen=True)
class GroupThreshold:
    """Calibration outcome for one group."""

    group_key: GroupKey
    threshold: float | None          # None is the always-think sentinel
    ucb_at_threshold: float | None
    n_calibration: int

    @property
    def always_think(self) -> bool:
        return self.threshold is None

    def to_dict(self) -> dict:
        return {
            "group_key": self.group_key,
            "threshold": "always_think" if self.always_think else self.threshold,
            "ucb": self.ucb_at_threshold,
            "n": self.n_calibration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupThreshold":
        data = json_object(data, "a threshold entry")
        key = json_field(data, "group_key", lambda key: json_typed(key, (str, int), "a string or an integer"))
        threshold = json_field(data, "threshold", lambda t: None if t == "always_think" else json_number(t))
        if threshold is not None and not 0.0 <= threshold <= 1.0:
            raise ValueError(f"group {key!r}: threshold {threshold} outside [0, 1]")
        n = json_field(data, "n", json_integer)
        if n < 0:
            raise ValueError(f"group {key!r}: n {n} is negative")
        return cls(
            group_key=key,
            threshold=threshold,
            ucb_at_threshold=json_field(data, "ucb", lambda u: None if u is None else json_number(u), None),
            n_calibration=n,
        )


@dataclass(frozen=True)
class RoutingPolicy:
    """Everything needed to route new inputs: assigner plus per-group thresholds."""

    epsilon: float
    alpha: float
    seed: int
    assigner: Any
    thresholds: tuple[GroupThreshold, ...]
    config_hash: str = ""
    # group key -> the highest score routed cheap (_NEVER for always_think)
    limits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _tolerance(self.epsilon))  # 1 and 1.0 write one policy
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        keys = [t.group_key for t in self.thresholds]
        if len(set(keys)) != len(keys):
            raise ValueError("policy lists a group key more than once")
        unknown = [k for k in keys if k not in self.assigner.keys]
        if unknown:
            raise ValueError(f"policy thresholds name groups its assigner does not know: {unknown}")
        limits = {t.group_key: _NEVER if t.always_think else t.threshold for t in self.thresholds}
        object.__setattr__(self, "limits", limits)

    @property
    def mode(self) -> str:
        return self.assigner.mode

    def to_dict(self) -> dict:
        return {
            "version": POLICY_VERSION,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "seed": self.seed,
            "assigner": self.assigner.to_dict(),
            "thresholds": [t.to_dict() for t in self.thresholds],
            "provenance": {"config_hash": self.config_hash},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingPolicy":
        version = json_object(data, "a policy").get("version")
        if version != POLICY_VERSION:
            raise PolicyVersionError(
                f"unsupported policy version {version!r}; this build speaks {POLICY_VERSION}"
            )
        assigner = assigner_from_dict(data.get("assigner"))
        if json_field(data, "mode", json_string) != assigner.mode:
            raise ValueError(f"policy mode {data['mode']!r} is not its assigner's ({assigner.mode!r})")
        provenance = json_object(data.get("provenance", {}), "provenance")
        return cls(
            epsilon=json_field(data, "epsilon", json_number),
            alpha=json_field(data, "alpha", json_number),
            seed=json_field(data, "seed", json_integer),
            assigner=assigner,
            thresholds=tuple(GroupThreshold.from_dict(t) for t in json_field(data, "thresholds", json_list)),
            config_hash=json_field(provenance, "config_hash", json_string, ""),
        )


@dataclass(slots=True)
class RouteDecision:
    record_id: str
    group_key: GroupKey | None
    action: str

    def to_dict(self) -> dict:
        return {"id": self.record_id, "group_key": self.group_key, "action": self.action}


@dataclass(frozen=True)
class CalibrationReport:
    """Per-group diagnostics from a calibration run, for humans and plots:
    each group's (threshold, curve) pair from `calibrate_group`, the curve
    None for a group that was never sampled."""

    groups: tuple[tuple[GroupThreshold, UcbCurve | None], ...]
    n_total: int
    n_unresolved: int

    def to_dict(self) -> dict:
        groups = [
            t.to_dict() if curve is None
            else {**t.to_dict(), "curve": {name: a.tolist() for name, a in vars(curve).items()}}
            for t, curve in self.groups
        ]
        return {**vars(self), "groups": groups}


def _tolerance(epsilon) -> float:
    """The tolerance epsilon as a float: a number, never a bool, in (0, inf)."""
    if type(epsilon) is bool or not isinstance(epsilon, (int, float)) or not 0.0 < epsilon < math.inf:
        raise ValueError(f"tolerance epsilon must be positive and finite, got {epsilon}")
    return float(epsilon)


def assigner_from_dict(data: dict):
    kind = json_object(data, "the assigner").get("kind")
    if kind == "trivial":
        return TrivialAssigner()
    if kind == "labels":
        return LabelAssigner(labels=json_field(data, "labels", lambda v: json_array(v, (str,), "a string")))
    if kind == "centroids":
        return Partition(json_field(data, "centroids", json_numbers))
    raise ValueError(f"unknown assigner kind {kind!r}")


def calibrate_group(
    records_j: RecordTable,
    epsilon: float,
    config: EstimatorConfig,
    rng: np.random.Generator,
    *,
    group_key: GroupKey = GROUP_ALL,
    ucb_offset: float = 0.0,
) -> tuple[GroupThreshold, UcbCurve | None]:
    """Select one group's threshold; returns the bound curve for reporting.

    ucb_offset is added to every bound value before selection (used by joint
    clustered calibration to budget for the data reuse).
    """
    epsilon = _tolerance(epsilon)
    n = len(records_j)
    if n < max(config.n_min, 2 if config.method == "clt" else 1):
        return GroupThreshold(group_key, None, None, n), None
    samples = draw_z_samples(records_j, config, rng)
    if samples.kept < config.n_min:
        return GroupThreshold(group_key, None, None, n), None
    grid = candidate_grid(samples)
    if config.method == "clt":
        curve = ucb_clt(samples, grid, config.alpha)
    else:
        curve = ucb_hoeffding(samples, grid, config.alpha, records_j.spec.bound_B, config.pi)
    if ucb_offset:
        curve = UcbCurve(curve.candidates, curve.mean, curve.ucb + ucb_offset)
    feasible = np.flatnonzero(curve.ucb <= epsilon)
    if len(feasible) == 0:
        return GroupThreshold(group_key, None, None, n), curve
    pick = int(feasible[-1])
    return (
        GroupThreshold(group_key, float(curve.candidates[pick]), float(curve.ucb[pick]), n),
        curve,
    )


def calibrate_gpac(
    records: RecordTable,
    assigner,
    epsilon: float,
    config: EstimatorConfig,
    *configs,
    ucb_offset: float = 0.0,
) -> tuple[RoutingPolicy, CalibrationReport]:
    """Calibrate one threshold per assigner group over `records`.

    Records whose group cannot be resolved are excluded from calibration and
    only counted in the report.  Each group draws from its own substream of
    config.seed, so adding a group never changes another group's result.
    The policy's config_hash digests config, the table's loss spec, any
    further `configs` (cpac's ClusterConfig), the mode, epsilon and
    ucb_offset.
    """
    codes = assigner.assign(records)
    n_unresolved = int(np.count_nonzero(codes < 0))
    if n_unresolved == len(records):
        raise NoRecordsError("no record resolves to any group; nothing to calibrate")
    epsilon = _tolerance(epsilon)
    groups = tuple(
        calibrate_group(records.take(np.flatnonzero(codes == code)), epsilon, config,
                        substream(config.seed, "calibrate", key), group_key=key, ucb_offset=ucb_offset)
        for code, key in enumerate(assigner.keys)
    )
    policy = RoutingPolicy(
        epsilon=epsilon,
        alpha=config.alpha,
        seed=config.seed,
        assigner=assigner,
        thresholds=tuple(threshold for threshold, _ in groups),
        config_hash=config_hash(config, records.spec, *configs,
                                mode=assigner.mode, epsilon=epsilon, ucb_offset=ucb_offset),
    )
    return policy, CalibrationReport(groups, len(records), n_unresolved)


def route(
    policy: RoutingPolicy,
    group_hint: str | None,
    uncertainty: float,
    *,
    record_id: str = "",
) -> RouteDecision:
    """Route one input: cheap iff its group resolves and U <= that group's threshold."""
    if not 0.0 <= uncertainty <= 1.0:
        raise ValueError(f"uncertainty {uncertainty} outside [0, 1]")
    key = policy.assigner.resolve(group_hint, uncertainty)
    return RouteDecision(record_id, key, CHEAP if uncertainty <= policy.limits.get(key, _NEVER) else THINK)


def config_hash(*configs, **settings) -> str:
    """Short stable digest of every field of each of `configs`, dataclasses
    keyed by their class name (the estimator config, the table's loss spec
    and, for cpac, the cluster config), and of the loose `settings`: the
    mode, epsilon and ucb_offset.  A config's instance dict is its fields,
    and reading it costs a fraction of `dataclasses.asdict`."""
    payload = {type(c).__name__: vars(c) for c in configs}
    payload.update(settings)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_policy(policy: RoutingPolicy, path) -> None:
    """Write the policy JSON atomically (write-then-rename)."""
    atomic_write_json(policy.to_dict(), path)


def load_policy(path) -> RoutingPolicy:
    return RoutingPolicy.from_dict(load_json(path))


__all__ = [
    "POLICY_VERSION",
    "MODES",
    "GROUP_ALL",
    "CHEAP",
    "THINK",
    "DEFAULT_N_MIN",
    "PolicyVersionError",
    "TrivialAssigner",
    "LabelAssigner",
    "Partition",
    "GroupThreshold",
    "RoutingPolicy",
    "RouteDecision",
    "CalibrationReport",
    "assigner_from_dict",
    "calibrate_group",
    "calibrate_gpac",
    "route",
    "config_hash",
    "save_policy",
    "load_policy",
]
