"""Output checks: numpy oracles for the files pac_route writes.

Every check returns a list of problems; an empty list means the output is
correct.  The oracles read only the generated input columns, the policy file
and the documented seeding scheme, never pac_route itself.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from inputs import LABELS, RARE_IN_CALIBRATION, RARE_LABEL, Population

REL_TOL = 1e-9


def substream(seed: int, *tags) -> np.random.Generator:
    """The program's seeding scheme: blake2b over the seed and purpose tags."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode())
    return np.random.default_rng(int.from_bytes(h.digest(), "big"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _thresholds(policy: dict) -> dict[str, float]:
    """Label -> threshold, with -inf for always_think (never cheap)."""
    return {
        t["group_key"]: -np.inf if t["threshold"] == "always_think" else float(t["threshold"])
        for t in policy["thresholds"]
        if t["group_key"] in policy["assigner"]["labels"]
    }


def oracle_decisions(policy: dict, pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Cheap iff the group resolves, is not always_think, and u <= t; plus resolved mask."""
    thresholds = _thresholds(policy)
    t = np.array([thresholds.get(label, -np.inf) for label in pop.label])
    resolved = np.array([label in thresholds for label in pop.label])
    return pop.uncertainty <= t, resolved


def check_policy(policy: dict, pop: Population) -> list[str]:
    problems = []
    if policy.get("version") != "pac-route/1" or policy.get("mode") != "gpac":
        problems.append("policy is not a pac-route/1 gpac policy")
    if set(policy["assigner"]["labels"]) != {*LABELS, RARE_LABEL}:
        problems.append(f"policy labels {policy['assigner']['labels']} differ from the input labels")
    for t in policy["thresholds"]:
        want_n = int(np.sum(pop.label == t["group_key"]))
        if t["n"] != want_n:
            problems.append(f"group {t['group_key']}: n={t['n']}, input has {want_n}")
        if t["threshold"] != "always_think" and not 0.0 <= t["threshold"] <= 1.0:
            problems.append(f"group {t['group_key']}: threshold {t['threshold']} outside [0, 1]")
    rare = [t for t in policy["thresholds"] if t["group_key"] == RARE_LABEL]
    if not rare or rare[0]["threshold"] != "always_think" or rare[0]["n"] != RARE_IN_CALIBRATION:
        problems.append("the rare label below --n-min is not always_think")
    return problems


def check_route(policy: dict, decisions_path, pop: Population) -> tuple[list[str], dict[str, int]]:
    """Decisions against the oracle; counts the decisions' cheap actions and
    the oracle's four route branches."""
    cheap, resolved = oracle_decisions(policy, pop)
    thresholds = _thresholds(policy)
    with open(decisions_path, encoding="utf-8") as fh:
        decisions = [json.loads(line) for line in fh]
    problems = []
    if len(decisions) != len(pop.ids):
        return [f"{len(decisions)} decisions for {len(pop.ids)} records"], {}
    bad = 0
    for i, d in enumerate(decisions):
        key = pop.label[i] if resolved[i] else None
        action = "cheap" if cheap[i] else "think"
        if d != {"id": pop.ids[i], "group_key": key, "action": action}:
            bad += 1
    if bad:
        problems.append(f"{bad} route decision(s) differ from the oracle")
    always = np.array([thresholds.get(label) == -np.inf for label in pop.label])
    branches = {
        "cheap": int(cheap.sum()),
        "think_threshold": int((resolved & ~always & ~cheap).sum()),
        "think_always_think": int((resolved & always).sum()),
        "think_unresolved": int((~resolved).sum()),
    }
    missing = [name for name, count in branches.items() if count == 0]
    if missing:
        problems.append(f"route branches never taken: {missing}")
    branches["decided_cheap"] = sum(d.get("action") == "cheap" for d in decisions)
    return problems, branches


def check_evaluate(policy: dict, report: dict, pop: Population, trials: int, seed: int) -> list[str]:
    """Recompute evaluate's report over the same bootstrap resamples.

    Per resample the overall error is the size-weighted mean of the group
    errors over resolved records (unresolved records route to thinking and
    add zero), the identity of acceptance check 09.
    """
    cheap, resolved = oracle_decisions(policy, pop)
    n = len(pop.ids)
    groups = list(policy["assigner"]["labels"])
    code = np.array([groups.index(label) if ok else -1 for label, ok in zip(pop.label, resolved)])
    contribution = np.where(cheap, pop.loss, 0.0)
    spent = np.where(cheap, pop.tokens_cheap, pop.tokens_thinking)
    saved = 1.0 - spent / pop.tokens_thinking
    errors, stps = [], []
    sums = np.zeros(len(groups))
    appearances = np.zeros(len(groups), dtype=int)
    for t in range(trials):
        idx = np.arange(n) if trials == 1 else substream(seed, "evaluate", t).integers(0, n, n)
        counts = np.bincount(code[idx] + 1, minlength=len(groups) + 1)[1:]
        group_sums = np.bincount(code[idx] + 1, weights=contribution[idx], minlength=len(groups) + 1)[1:]
        present = counts > 0
        group_err = np.divide(group_sums, counts, out=np.zeros(len(groups)), where=present)
        errors.append(float(np.sum(counts * group_err)) / n)
        sums[present] += group_err[present]
        appearances += present
        stps.append(float(saved[idx].mean()))
    want = {
        "error": float(np.mean(errors)),
        "stp": float(np.mean(stps)),
        "per_group_error": {g: sums[j] / appearances[j] for j, g in enumerate(groups) if appearances[j]},
        "n_per_group": {g: int(np.sum(code == j)) for j, g in enumerate(groups) if np.any(code == j)},
        "n_unresolved": int(np.sum(code < 0)),
    }
    problems = []
    for key in ("error", "stp"):
        if not _close(report[key], want[key]):
            problems.append(f"evaluate {key} {report[key]!r}, oracle {want[key]!r}")
    if report["per_group_error"].keys() != want["per_group_error"].keys() or not all(
        _close(report["per_group_error"][g], v) for g, v in want["per_group_error"].items()
    ):
        problems.append("evaluate per_group_error differs from the oracle")
    for key in ("n_per_group", "n_unresolved"):
        if report[key] != want[key]:
            problems.append(f"evaluate {key} {report[key]!r}, oracle {want[key]!r}")
    if report["trials"] != trials or report["stp_variant"] != "router":
        problems.append("evaluate report does not echo --trials and --stp")
    return problems


def check_simulate(report: dict, trials: int, n_cal: int, method: str) -> list[str]:
    problems = []
    if (report.get("trials"), report.get("n_cal"), report.get("method")) != (trials, n_cal, method):
        problems.append("simulate report does not echo --trials, --n-cal and --method")
    coverage = report.get("per_group_coverage") or {}
    if not coverage or not all(0.0 <= c <= 1.0 for c in coverage.values()):
        problems.append(f"coverage values outside [0, 1]: {coverage}")
    if not 0.0 <= report.get("efficiency", -1.0) <= 1.0:
        problems.append(f"efficiency {report.get('efficiency')} outside [0, 1]")
    return problems
