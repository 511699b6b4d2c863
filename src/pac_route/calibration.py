"""Per-group threshold calibration and the routing policy it produces.

For each group the selected threshold is the largest candidate whose upper
confidence bound on the routed loss stays at or below the tolerance epsilon:

    u_hat = max { u in grid : UCB_u(alpha) <= epsilon }.

When no candidate qualifies, or the group has fewer than n_min calibration
records, the group falls back to the always-think sentinel: every input of
that group goes to the thinking model, which trivially satisfies the
tolerance.  At routing time a score equal to the threshold goes to the cheap
model, and any input whose group cannot be resolved goes to the thinking
model.

Each assigner names its mode: `TrivialAssigner` marginal, `LabelAssigner`
gpac, `Partition` cpac.  Calibration runs on a
:class:`~pac_route.records.RecordTable`.  Every assigner maps a whole table
to integer group codes in one call (`assign`), calibration buckets rows by
that code, and each group's table is a `take` of its rows in their original
order.  `resolve` is the same mapping for one input.  Every route goes by
`RoutingPolicy.limits`, each group's highest score routed cheap.
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
    EstimatorConfig,
    UcbCurve,
    candidate_grid,
    draw_z_samples,
    pi_weights,
    ucb_clt,
    ucb_hoeffding,
)
from .io import atomic_write_json, json_field, json_object
from .records import NO_LABEL, NoRecordsError, RecordTable
from .seeding import substream

POLICY_VERSION = "pac-route/1"
MODES = ("marginal", "gpac", "cpac")
GROUP_ALL = "all"
CHEAP = "cheap"
THINK = "think"
DEFAULT_N_MIN = 10
# the limit of a group that never routes cheap: always_think, no threshold, unresolved
_NEVER = -math.inf

GroupKey = str | int


class PolicyVersionError(ValueError):
    """Raised when a policy file declares a schema version we do not speak."""


@dataclass(frozen=True)
class TrivialAssigner:
    """Puts every record into the single group "all" (marginal calibration)."""

    mode = "marginal"

    def resolve(self, group_label: str | None, uncertainty: float) -> GroupKey | None:
        return GROUP_ALL

    def assign(self, table: RecordTable) -> tuple[np.ndarray, tuple[GroupKey, ...]]:
        """Group code of every row (an index into the returned keys; -1 = none)."""
        return np.zeros(len(table), dtype=np.int64), (GROUP_ALL,)

    def known_keys(self) -> tuple[GroupKey, ...] | None:
        return (GROUP_ALL,)

    def to_dict(self) -> dict:
        return {"kind": "trivial"}


@dataclass(frozen=True)
class LabelAssigner:
    """Groups records by their group_label.

    With an empty label tuple the assigner is open: any present label resolves
    to itself, which is how calibration discovers the groups.  A policy stores
    the closed form, where labels outside the tuple are unresolvable and the
    record routes to the thinking model.
    """

    mode = "gpac"
    labels: tuple[str, ...] = ()

    def resolve(self, group_label: str | None, uncertainty: float) -> GroupKey | None:
        if group_label is None:
            return None
        if self.labels and group_label not in self.labels:
            return None
        return group_label

    def assign(self, table: RecordTable) -> tuple[np.ndarray, tuple[GroupKey, ...]]:
        """Group code of every row (an index into the returned keys; -1 = none).

        The open form's keys are the labels present, in first-appearance order.
        """
        keys = self.labels
        if not keys:
            present, first = np.unique(table.label_code[table.label_code != NO_LABEL], return_index=True)
            keys = tuple(table.labels[c] for c in present[np.argsort(first)])
        code_of: dict[str, int] = {}
        for code, key in enumerate(keys):
            code_of.setdefault(key, code)
        # the appended -1 is where a row without a label (code NO_LABEL) lands
        lookup = np.array([code_of.get(label, -1) for label in table.labels] + [-1], dtype=np.int64)
        return lookup[table.label_code], keys

    def known_keys(self) -> tuple[GroupKey, ...] | None:
        return self.labels if self.labels else None

    def to_dict(self) -> dict:
        return {"kind": "labels", "labels": list(self.labels)}


@dataclass(frozen=True)
class Partition:
    """k ascending centroids; inputs go to the nearest one (ties downward)."""

    mode = "cpac"
    centroids: tuple[float, ...]
    boundaries: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        c = tuple(float(x) for x in self.centroids)
        if len(c) == 0 or not all(a < b for a, b in zip(c, c[1:])):
            raise ValueError("centroids must be non-empty and strictly ascending")
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "boundaries", tuple((c[i] + c[i + 1]) / 2.0 for i in range(len(c) - 1)))

    @property
    def k(self) -> int:
        return len(self.centroids)

    def resolve(self, group_label: str | None, uncertainty: float) -> int:
        """Index of the nearest centroid; a score on a boundary takes the lower index."""
        return bisect_left(self.boundaries, uncertainty)

    def assign(self, table: RecordTable) -> tuple[np.ndarray, tuple[int, ...]]:
        """Cluster index of every row; a score on a boundary takes the lower index."""
        return np.searchsorted(self.boundaries, table.uncertainty, side="left"), self.known_keys()

    def known_keys(self) -> tuple[int, ...]:
        return tuple(range(self.k))

    def intervals(self) -> tuple[tuple[float, float], ...]:
        """The score interval owned by each cluster, covering [0, 1]."""
        edges = (0.0,) + self.boundaries + (1.0,)
        return tuple((edges[i], edges[i + 1]) for i in range(self.k))

    def to_dict(self) -> dict:
        return {"kind": "centroids", "centroids": list(self.centroids)}


def _json_typed(value, types: tuple, what: str):
    """`value` if its exact type is one of `types` (a bool is no integer), else a TypeError."""
    if type(value) not in types:
        raise TypeError(f"must be {what}, got {value!r}")
    return value


def _json_array(value, types: tuple, what: str) -> tuple:
    """A JSON array whose items are all of `types`, as a tuple."""
    return tuple(_json_typed(item, types, what) for item in _json_typed(value, (list,), "an array"))


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
        key = json_field(data, "group_key", lambda key: _json_typed(key, (str, int), "a string or an integer"))
        threshold = json_field(data, "threshold", lambda raw: None if raw == "always_think" else float(raw))
        if threshold is not None and not 0.0 <= threshold <= 1.0:
            raise ValueError(f"group {key!r}: threshold {threshold} outside [0, 1]")
        return cls(
            group_key=key,
            threshold=threshold,
            ucb_at_threshold=json_field(data, "ucb", lambda ucb: None if ucb is None else float(ucb), None),
            n_calibration=json_field(data, "n", lambda n: _json_typed(n, (int,), "an integer")),
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
    # group key -> the highest score routed cheap (_NEVER for always_think);
    # derived from thresholds, where the first entry of a key wins
    limits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"tolerance epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        limits: dict = {}
        for t in self.thresholds:
            limits.setdefault(t.group_key, _NEVER if t.always_think else t.threshold)
        object.__setattr__(self, "limits", limits)

    @property
    def mode(self) -> str:
        return self.assigner.mode

    def threshold_for(self, group_key: GroupKey) -> GroupThreshold | None:
        return next((t for t in self.thresholds if t.group_key == group_key), None)

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
        assigner = assigner_from_dict(data["assigner"])
        if data["mode"] != assigner.mode:
            raise ValueError(f"policy mode {data['mode']!r} is not its assigner's ({assigner.mode!r})")
        thresholds = tuple(GroupThreshold.from_dict(t) for t in json_field(data, "thresholds", list))
        keys = [t.group_key for t in thresholds]
        if len(set(keys)) != len(keys):
            raise ValueError("policy lists a group key more than once")
        known = assigner.known_keys()
        unknown = [k for k in keys if known is not None and k not in known]
        if unknown:
            raise ValueError(f"policy thresholds name groups its assigner does not know: {unknown}")
        return cls(
            epsilon=json_field(data, "epsilon", float),
            alpha=json_field(data, "alpha", float),
            seed=json_field(data, "seed", int),
            assigner=assigner,
            thresholds=thresholds,
            config_hash=json_object(data.get("provenance", {}), "provenance").get("config_hash", ""),
        )


@dataclass(frozen=True, slots=True)
class RouteDecision:
    record_id: str
    group_key: GroupKey | None
    action: str

    def to_dict(self) -> dict:
        return {"id": self.record_id, "group_key": self.group_key, "action": self.action}


@dataclass(frozen=True)
class CalibrationReport:
    """Per-group diagnostics from a calibration run, for humans and plots.

    Each group entry is its threshold's dict plus, for a sampled group, its
    bound curve under "curve", kept as a UcbCurve until `to_dict`.
    """

    groups: tuple[dict, ...]
    n_total: int
    n_unresolved: int

    def to_dict(self) -> dict:
        return {
            "groups": [_entry_to_dict(entry) for entry in self.groups],
            "n_total": self.n_total,
            "n_unresolved": self.n_unresolved,
        }


def _entry_to_dict(entry: dict) -> dict:
    curve = entry.get("curve")
    if curve is None:
        return dict(entry)
    lists = {"candidates": curve.candidates.tolist(), "mean": curve.mean.tolist(), "ucb": curve.ucb.tolist()}
    return {**entry, "curve": lists}


def assigner_from_dict(data: dict):
    kind = json_object(data, "the assigner").get("kind")
    if kind == "trivial":
        return TrivialAssigner()
    if kind == "labels":
        return LabelAssigner(labels=json_field(data, "labels", lambda v: _json_array(v, (str,), "a string")))
    if kind == "centroids":
        return Partition(json_field(data, "centroids", lambda v: _json_array(v, (int, float), "a number")))
    raise ValueError(f"unknown assigner kind {kind!r}")


def calibrate_group(
    records_j: RecordTable,
    epsilon: float,
    config: EstimatorConfig,
    rng: np.random.Generator,
    *,
    group_key: GroupKey = GROUP_ALL,
    n_min: int = DEFAULT_N_MIN,
    ucb_offset: float = 0.0,
) -> tuple[GroupThreshold, UcbCurve | None]:
    """Select one group's threshold; returns the bound curve for reporting.

    ucb_offset is added to every bound value before selection (used by joint
    clustered calibration to budget for the data reuse).
    """
    if not epsilon > 0:
        raise ValueError("tolerance epsilon must be positive")
    n = len(records_j)
    if n < n_min:
        return GroupThreshold(group_key, None, None, n), None
    samples = draw_z_samples(records_j, config, rng)
    grid = candidate_grid(records_j)
    if config.method == "clt":
        curve = ucb_clt(samples, grid, config.alpha)
    else:
        pi_min = float(pi_weights(config, records_j).min())
        curve = ucb_hoeffding(samples, grid, config.alpha, config.bound_B, pi_min)
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
    *,
    n_min: int = DEFAULT_N_MIN,
    ucb_offset: float = 0.0,
) -> tuple[RoutingPolicy, CalibrationReport]:
    """Calibrate one threshold per assigner group over `records`.

    Records whose group cannot be resolved are excluded from calibration and
    only counted in the report.  Each group draws from its own substream of
    config.seed, so adding a group never changes another group's result.
    """
    if n_min < 0:
        raise ValueError(f"n_min must be non-negative, got {n_min}")
    codes, keys = assigner.assign(records)
    n_unresolved = int(np.count_nonzero(codes < 0))
    if n_unresolved == len(records):
        raise NoRecordsError("no record resolves to any group; nothing to calibrate")

    thresholds = []
    group_entries = []
    for code, key in enumerate(keys):
        rng = substream(config.seed, "calibrate", key)
        threshold, curve = calibrate_group(
            records.take(np.flatnonzero(codes == code)), epsilon, config, rng,
            group_key=key, n_min=n_min, ucb_offset=ucb_offset,
        )
        thresholds.append(threshold)
        entry = threshold.to_dict()
        if curve is not None:
            entry["curve"] = curve
        group_entries.append(entry)

    if isinstance(assigner, LabelAssigner) and not assigner.labels:
        assigner = LabelAssigner(labels=keys)
    policy = RoutingPolicy(
        epsilon=epsilon,
        alpha=config.alpha,
        seed=config.seed,
        assigner=assigner,
        thresholds=tuple(thresholds),
        config_hash=config_hash(config, mode=assigner.mode, epsilon=epsilon, n_min=n_min, ucb_offset=ucb_offset),
    )
    report = CalibrationReport(
        groups=tuple(group_entries), n_total=len(records), n_unresolved=n_unresolved
    )
    return policy, report


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


def config_hash(config: EstimatorConfig, **extras) -> str:
    """Short stable digest of the calibration configuration."""
    payload = {
        "method": config.method,
        "alpha": config.alpha,
        "pi": config.pi if isinstance(config.pi, (int, float)) else dict(config.pi),
        "m": config.m,
        "seed": config.seed,
        "bound_B": config.bound_B,
    }
    payload.update(extras)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_policy(policy: RoutingPolicy, path) -> None:
    """Write the policy JSON atomically (write-then-rename)."""
    atomic_write_json(policy.to_dict(), path)


def load_policy(path) -> RoutingPolicy:
    with open(path, encoding="utf-8") as fh:
        return RoutingPolicy.from_dict(json.load(fh))


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
