"""Spans around the calls into each pac_route module, recorded from outside.

`Tracer.patched()` swaps every module-level reference to a traced public
function (the defining module, and every pac_route module that imported the
name) for a wrapper, and restores the originals on exit.  The program's own
code is untouched and its outputs stay byte-identical.

A span is [name, parent id, op id, start, busy seconds, child seconds, calls,
items]; its self time is busy minus child.
Spans live in memory; the worker writes them once, at the end of a run.
Per-record functions (LEAVES) would make one span per record, so their calls
are folded into one span per (parent span, name) that carries the call count
and the summed duration; `route` calls made directly by the `route` command
are also kept one by one in `route_call_s`, for the latency percentiles.
"""

from __future__ import annotations

import contextlib
import sys
import time

NAME, PARENT, OP, START, BUSY, CHILD, CALLS, ITEMS = range(8)


def _len(result) -> int:
    return len(result)


def _records_loaded(result) -> int:
    return len(result[0])


def _certified(result) -> int:
    return int(result[0].threshold is not None)


# (module, function, item counter or None).  Seeding is left out: its blake2b
# derivations take microseconds and count toward the caller's self time.
TRACED = (
    ("io", "load_records", _records_loaded),
    ("io", "atomic_write_text", None),
    ("io", "atomic_write_json", None),
    ("records", "resolve_loss", None),
    ("estimator", "draw_z_samples", _len),
    ("estimator", "candidate_grid", _len),
    ("estimator", "ucb_clt", None),
    ("estimator", "ucb_hoeffding", None),
    ("calibration", "calibrate_gpac", None),
    ("calibration", "calibrate_group", _certified),
    ("calibration", "route", None),
    ("calibration", "load_policy", None),
    ("calibration", "save_policy", None),
    ("clustering", "kmeans_1d", None),
    ("clustering", "calibrate_cpac", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "trial_error", None),
    ("evaluation", "stp", None),
    ("evaluation", "group_sizes", None),
    ("simulation", "coverage_experiment", None),
    ("simulation", "generate", _len),
    ("simulation", "policy_true_metrics", None),
    ("simulation", "load_spec", None),
)
LEAVES = {"records.resolve_loss", "calibration.route"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.route_call_s: list[float] = []
        self._stack: list[int] = []
        self._leaf: dict[tuple[int, str], int] = {}
        self._op = -1

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one CLI command; every traced call nests inside one."""
        self._op += 1
        with self._span(name):
            yield

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self._op, time.perf_counter(), 0.0, 0.0, 1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[BUSY] = time.perf_counter() - span[START]
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][CHILD] += span[BUSY]

    def _wrap(self, name: str, fn, items):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)

        def traced(*args, **kwargs):
            with self._span(name) as span:
                result = fn(*args, **kwargs)
                if items is not None:
                    span[ITEMS] += items(result)
                return result

        return traced

    def _wrap_leaf(self, name: str, fn):
        spans, stack, leaf = self.spans, self._stack, self._leaf
        keep = self.route_call_s if name == "calibration.route" else None

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                parent = stack[-1]
                idx = leaf.get((parent, name))
                if idx is None:
                    idx = leaf[(parent, name)] = len(spans)
                    spans.append([name, parent, spans[parent][OP], start, 0.0, 0.0, 0, 0])
                span = spans[idx]
                span[BUSY] += busy
                span[CALLS] += 1
                spans[parent][CHILD] += busy
                if keep is not None and spans[parent][NAME] == "cli.route":
                    keep.append(busy)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every loaded pac_route module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pac_route" or n.startswith("pac_route.")]
        swaps = []
        for module_name, func_name, items in TRACED:
            original = getattr(sys.modules[f"pac_route.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, items)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        swaps.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in swaps:
                setattr(module, attr, original)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "route_call_s": self.route_call_s}
