"""Per-layer metrics derived from the spans of one traced pass.

A span's self time is its busy time minus that of its direct children, so
summing self times attributes every instant of an operation to the innermost
traced call.  Layer of a span = the module prefix of its name; the root span
of each operation is the `cli` layer.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import BUSY, CALLS, CHILD, ITEMS, NAME, OP, PARENT, START

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
MIN_BEYOND = 10
COMMANDS = ("calibrate", "route", "evaluate", "simulate")

# name: (unit, better) of every per-layer metric, in reporting order.
METRICS = {
    "io.read_s": ("s", "lower"),
    "io.read_krec_per_s": ("krec/s", "higher"),
    "io.write_s": ("s", "lower"),
    "records.resolve_s": ("s", "lower"),
    "records.resolve_krec_per_s": ("krec/s", "higher"),
    "estimator.draw_s": ("s", "lower"),
    "estimator.bound_s": ("s", "lower"),
    "estimator.draws": ("count", "lower"),
    "estimator.candidates": ("count", "lower"),
    "calibration.self_s": ("s", "lower"),
    "calibration.certified_frac": ("fraction", "higher"),
    "calibration.route_s": ("s", "lower"),
    "calibration.route_call_p50_us": ("us", "lower"),
    "calibration.route_call_tail_us": ("us", "lower"),
    "calibration.route_call_tail_pct": ("%", "higher"),
    "calibration.route_call_samples": ("count", "higher"),
    "clustering.kmeans_s": ("s", "lower"),
    "clustering.kmeans_calls": ("count", "lower"),
    "clustering.kmeans_ms_per_call": ("ms", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.route_calls": ("count", "lower"),
    "simulation.generate_s": ("s", "lower"),
    "simulation.generate_krec_per_s": ("krec/s", "higher"),
    "simulation.true_metrics_s": ("s", "lower"),
    "simulation.trial_p50_ms": ("ms", "lower"),
    "simulation.trial_tail_ms": ("ms", "lower"),
    "simulation.trial_tail_pct": ("%", "higher"),
    "simulation.trial_samples": ("count", "higher"),
    **{f"cli.{c}.self_s": ("s", "lower") for c in COMMANDS},
    "bench.trace_overhead_pct": ("%", "lower"),
}


def tail(samples) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile): the highest ladder percentile with
    at least MIN_BEYOND samples beyond it; the tail falls back to p50."""
    if len(samples) == 0:
        return 0.0, 0.0, 0.0
    x = np.asarray(samples, dtype=float)
    pct = 50.0
    for p in TAIL_LADDER:
        if len(x) * (1.0 - p / 100.0) >= MIN_BEYOND:
            pct = p
    return float(np.percentile(x, 50.0)), float(np.percentile(x, pct)), pct


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per operation: layer -> summed self seconds, plus "wall" (root busy time)."""
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        layer = s[NAME].split(".")[0]
        ops[s[OP]][layer] += s[BUSY] - s[CHILD]
        if s[PARENT] < 0:
            ops[s[OP]]["wall"] += s[BUSY]
    return {op: dict(v) for op, v in ops.items()}


def per_layer(trace: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer never ran)."""
    spans = trace["spans"]
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    items: dict[str, int] = defaultdict(int)
    for s in spans:
        busy[s[NAME]] += s[BUSY]
        self_s[s[NAME]] += s[BUSY] - s[CHILD]
        calls[s[NAME]] += s[CALLS]
        items[s[NAME]] += s[ITEMS]

    def under(span: list, name: str) -> bool:
        while span[PARENT] >= 0:
            span = spans[span[PARENT]]
            if span[NAME] == name:
                return True
        return False

    writes = sum(
        s[BUSY] for s in spans
        if s[NAME].startswith("io.atomic_write") and not spans[s[PARENT]][NAME].startswith("io.atomic_write")
    )
    route_in_evaluate = sum(
        s[CALLS] for s in spans if s[NAME] == "calibration.route" and under(s, "evaluation.evaluate")
    )
    route_in_route = sum(
        s[BUSY] for s in spans if s[NAME] == "calibration.route" and spans[s[PARENT]][NAME] == "cli.route"
    )
    route_p50, route_tail, route_pct = tail(trace["route_call_s"])
    trial_s = _trial_seconds(spans)
    trial_p50, trial_tail, trial_pct = tail(trial_s)
    read_s = busy["io.load_records"]
    resolve_s = busy["records.resolve_loss"]
    generate_s = busy["simulation.generate"]
    kmeans_s = busy["clustering.kmeans_1d"]
    metrics = {
        "io.read_s": read_s,
        "io.read_krec_per_s": _ratio(items["io.load_records"] / 1000.0, read_s),
        "io.write_s": writes,
        "records.resolve_s": resolve_s,
        "records.resolve_krec_per_s": _ratio(calls["records.resolve_loss"] / 1000.0, resolve_s),
        "estimator.draw_s": busy["estimator.draw_z_samples"],
        "estimator.bound_s": busy["estimator.candidate_grid"] + busy["estimator.ucb_clt"]
        + busy["estimator.ucb_hoeffding"],
        "estimator.draws": items["estimator.draw_z_samples"],
        "estimator.candidates": items["estimator.candidate_grid"],
        "calibration.self_s": self_s["calibration.calibrate_gpac"] + self_s["calibration.calibrate_group"],
        "calibration.certified_frac": _ratio(items["calibration.calibrate_group"], calls["calibration.calibrate_group"]),
        "calibration.route_s": route_in_route,
        "calibration.route_call_p50_us": route_p50 * 1e6,
        "calibration.route_call_tail_us": route_tail * 1e6,
        "calibration.route_call_tail_pct": route_pct,
        "calibration.route_call_samples": len(trace["route_call_s"]),
        "clustering.kmeans_s": kmeans_s,
        "clustering.kmeans_calls": calls["clustering.kmeans_1d"],
        "clustering.kmeans_ms_per_call": _ratio(kmeans_s * 1000.0, calls["clustering.kmeans_1d"]),
        "evaluation.evaluate_s": busy["evaluation.evaluate"],
        "evaluation.route_calls": route_in_evaluate,
        "simulation.generate_s": generate_s,
        "simulation.generate_krec_per_s": _ratio(items["simulation.generate"] / 1000.0, generate_s),
        "simulation.true_metrics_s": busy["simulation.policy_true_metrics"],
        "simulation.trial_p50_ms": trial_p50 * 1000.0,
        "simulation.trial_tail_ms": trial_tail * 1000.0,
        "simulation.trial_tail_pct": trial_pct,
        "simulation.trial_samples": len(trial_s),
    }
    for c in COMMANDS:
        metrics[f"cli.{c}.self_s"] = self_s[f"cli.{c}"]
    return metrics


def _trial_seconds(spans: list[list]) -> list[float]:
    """One coverage trial runs from its generate call to the next (or to the
    end of its coverage_experiment, for the last trial)."""
    out = []
    for i, s in enumerate(spans):
        if s[NAME] != "simulation.coverage_experiment":
            continue
        starts = [c[START] for c in spans if c[NAME] == "simulation.generate" and c[PARENT] == i]
        ends = starts[1:] + [s[START] + s[BUSY]]
        out.extend(e - b for b, e in zip(starts, ends))
    return out
