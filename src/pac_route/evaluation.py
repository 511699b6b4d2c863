"""Deployment metrics for a routing policy on held-out records.

Error charges each record its loss when routed to the cheap model and zero
when routed to the thinking model, averaged over the whole set; per-group
errors are the same mean restricted to one group's records.  The tolerance
gap sums, over groups, how far the trial-averaged group error sits above the
tolerance.  Saved thinking percentage (STP) compares spent tokens against
always thinking, in two accounting styles:

    cascade: the cheap model always runs, thinking runs on routed-think inputs;
    router:  exactly one model runs per input.

`evaluate` alone routes and scores; `trial_error` and `stp` are its one-trial
figures.  It routes every record once, by `RoutingPolicy.decide`, the batch
form of `route`, and a bootstrap trial resamples those decisions by index.
Sums run left to right on every Python (the builtin `sum` compensates from
3.12 on), per group through `np.bincount`, so every figure is bit-identical
to a loop that routes and adds one record at a time.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .calibration import GroupKey, RoutingPolicy
from .records import _COUNT, _SEED, MissingTokensError, NoRecordsError, RecordTable, _setting
from .seeding import substream

STP_VARIANTS = ("cascade", "router")


@dataclass(frozen=True)
class MetricsReport:
    error: float
    per_group_error: dict[GroupKey, float]
    error_gap: float
    n_per_group: dict[GroupKey, int]
    n_unresolved: int
    trials: int
    stp: float | None = None
    stp_variant: str | None = None
    flagged_groups: tuple[GroupKey, ...] = ()

    def to_dict(self) -> dict:
        return {**vars(self), "flagged_groups": list(self.flagged_groups)}


def _first_appearance(codes: np.ndarray) -> np.ndarray:
    """The distinct non-negative codes, in the order they first appear."""
    present, first = np.unique(codes[codes >= 0], return_index=True)
    return present[np.argsort(first)]


def _sum_in_order(values) -> float:
    # left to right, like a running total (np.sum adds pairwise)
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _trial_error(
    charged: np.ndarray, codes: np.ndarray, keys: tuple[GroupKey, ...], idx: np.ndarray
) -> tuple[float, dict[GroupKey, float]]:
    """Error and per-group errors of the records at positions idx, in that order."""
    contribution, codes = charged[idx], codes[idx]
    resolved = codes >= 0
    grouped = codes[resolved]
    sums = np.bincount(grouped, weights=contribution[resolved], minlength=len(keys))
    counts = np.bincount(grouped, minlength=len(keys))
    per_group = {keys[c]: float(sums[c]) / int(counts[c]) for c in _first_appearance(grouped)}
    return _sum_in_order(contribution) / len(contribution), per_group


def _group_sizes(codes: np.ndarray, keys: tuple[GroupKey, ...]) -> tuple[dict[GroupKey, int], int]:
    counts = np.bincount(codes[codes >= 0], minlength=len(keys))
    return {keys[c]: int(counts[c]) for c in _first_appearance(codes)}, int(np.count_nonzero(codes < 0))


def _saved(table: RecordTable, cheap: np.ndarray, variant: str) -> np.ndarray:
    """Per-record saved-thinking fraction; checks every record's tokens first."""
    if variant not in STP_VARIANTS:
        raise ValueError(f"stp variant must be one of {STP_VARIANTS}, got {variant!r}")
    thinking, cheap_tokens = table.tokens_thinking, table.tokens_cheap
    missing = np.flatnonzero(np.isnan(thinking) | np.isnan(cheap_tokens))
    if len(missing):
        raise MissingTokensError(
            f"record {table.ids[missing[0]]}: STP needs tokens_thinking and tokens_cheap"
        )
    empty = np.flatnonzero(thinking <= 0)
    if len(empty):
        raise MissingTokensError(f"record {table.ids[empty[0]]}: tokens_thinking must be positive")
    if variant == "cascade":
        spent = cheap_tokens + np.where(cheap, 0.0, thinking)
    else:
        spent = np.where(cheap, cheap_tokens, thinking)
    return 1.0 - spent / thinking


def trial_error(records: RecordTable, policy: RoutingPolicy) -> tuple[float, dict[GroupKey, float]]:
    """Mean routed loss over all records, and the same restricted per group.

    Records whose group does not resolve are routed to the thinking model;
    they count toward the overall mean but belong to no group bucket, so the
    overall error stays the group-size weighted mean of the group errors.
    """
    report = evaluate(records, policy)
    return report.error, report.per_group_error


def group_sizes(records: RecordTable, policy: RoutingPolicy) -> tuple[dict[GroupKey, int], int]:
    """Resolved-group record counts and the number of unresolvable records."""
    return _group_sizes(policy.assigner.assign(records), policy.assigner.keys)


def _trial_averages(trial_group_errors) -> tuple[dict[GroupKey, float], dict[GroupKey, int]]:
    """Each group's error averaged over the trials where it appears, and the
    number of those trials."""
    sums, counts = {}, {}
    for per_trial in trial_group_errors:
        for key, value in per_trial.items():
            sums[key] = sums.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}, counts


def error_gap(trial_group_errors: Sequence[Mapping[GroupKey, float]], epsilon: float) -> float:
    """Sum over groups of the excess of the trial-averaged error above epsilon.

    A group missing from some trial (no records drawn) is averaged over the
    trials where it appears.
    """
    return _sum_in_order([max(error - epsilon, 0.0) for error in _trial_averages(trial_group_errors)[0].values()])


def stp(records: RecordTable, policy: RoutingPolicy, variant: str) -> float:
    """Mean saved-thinking fraction under the chosen accounting (<= 1, may be < 0)."""
    if variant is None:  # evaluate reads None as "no STP"
        raise ValueError(f"stp variant must be one of {STP_VARIANTS}, got None")
    return evaluate(records, policy, stp_variant=variant).stp


def evaluate(
    records: RecordTable,
    policy: RoutingPolicy,
    *,
    trials: int = 1,
    seed: int = 0,
    stp_variant: str | None = None,
) -> MetricsReport:
    """Score a policy on held-out records.

    With trials > 1 each trial rescores a bootstrap resample of the records
    (drawn from substream (seed, trial index)) and per-group errors are
    averaged across trials before the gap is taken; groups that miss at least
    one trial are flagged in the report.  Token counts are checked for every
    record before any trial.
    """
    trials, seed = _setting(trials, *_COUNT, "trials"), _setting(seed, *_SEED[1:])
    if not len(records):
        raise NoRecordsError("cannot score an empty record set")
    codes, cheap = policy.decide(records)
    charged = np.where(cheap, records.loss, 0.0)
    saved = None if stp_variant is None else _saved(records, cheap, stp_variant)
    n = len(records)
    trial_errors = []
    trial_groups: list[dict[GroupKey, float]] = []
    stp_values = []
    for t in range(trials):
        idx = np.arange(n) if trials == 1 else substream(seed, "evaluate", t).integers(0, n, n)
        err, per_group = _trial_error(charged, codes, policy.assigner.keys, idx)
        trial_errors.append(err)
        trial_groups.append(per_group)
        if saved is not None:
            stp_values.append(_sum_in_order(saved[idx]) / n)
    per_group_error, appearances = _trial_averages(trial_groups)
    flagged = tuple(key for key in per_group_error if appearances[key] < trials)
    n_per_group, n_unresolved = _group_sizes(codes, policy.assigner.keys)
    return MetricsReport(
        error=_sum_in_order(trial_errors) / trials,
        per_group_error=per_group_error,
        error_gap=error_gap(trial_groups, policy.epsilon),
        n_per_group=n_per_group,
        n_unresolved=n_unresolved,
        trials=trials,
        stp=_sum_in_order(stp_values) / trials if stp_values else None,
        stp_variant=stp_variant if stp_values else None,
        flagged_groups=flagged,
    )


__all__ = [
    "STP_VARIANTS",
    "MetricsReport",
    "trial_error",
    "group_sizes",
    "error_gap",
    "stp",
    "evaluate",
]
