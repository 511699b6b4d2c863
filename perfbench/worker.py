"""One workload process: import pac_route.cli, warm up, then run passes.

    python3 worker.py PLAN.json [--probe]

PLAN.json (written by run.py) names the warm-up argvs, the commands of one
pass with their output files, the time budget and whether to trace.  A pass
runs every command once, in order, through pac_route.cli.main; passes repeat
on the same inputs (a closed loop: one caller, one command at a time) until
the next pass would overrun the budget, and at least `min_passes` times.
With tracing on, passes alternate untraced and traced, so the two can be
compared.  With --probe the process only measures its set-up and exits.

The host's CPU speed shifts by up to about 1.8x within seconds (shared
cores), and a CLI command runs for seconds, so while passes run a SIGALRM
timer samples a fixed reference loop every SAMPLE_INTERVAL_S.  Each command
also gets `norm_s`: its wall time scaled by the mean speed of those samples
relative to a reference loop of REF_NOMINAL_S, i.e. the time the command
would take at that nominal speed.  The set-up time is scaled the same way
(`setup_s`; the raw time is `setup_wall_s`).

The result JSON (path in the plan) holds the set-up time, every command's
exit code, wall time, CPU time, normalised time and output digests, peak RSS
and the traced passes' spans.  Output checks happen in run.py.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

from spans import Tracer

FLIP_RECORD_ID = "r0000100"
THRESHOLD_SHIFT = 0.01


SAMPLE_INTERVAL_S = 0.02
REF_NOMINAL_S = 60e-6     # the reference loop's time at the host's fast speed


def _reference_loop() -> None:
    table: dict[int, float] = {}
    for i in range(400):
        table[i % 31] = table.get(i % 31, 0.0) + i * 0.5


class SpeedProbe:
    """Times the reference loop on a real-time timer while it is entered.

    The loop runs in the SIGALRM handler, on the main thread between
    bytecodes, so it sees the CPU the program runs on; it costs about 0.3%.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, first: int) -> float:
        """Mean speed relative to nominal over the samples from index `first`
        (the latest sample alone if none came since)."""
        taken = self.samples[first:] or self.samples[-1:]
        if not taken:
            return 1.0
        return sum(REF_NOMINAL_S / t for t in taken) / len(taken)


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call(cli, argv: list[str]) -> tuple[int | None, str | None]:
    """Exit code of one CLI call (None if it raised) and the traceback, if any."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception:
        return None, traceback.format_exc()


def _run_pass(cli, commands, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    ops = []
    patch = tracer.patched() if tracer else contextlib.nullcontext()
    with patch:
        for cmd in commands:
            for out in cmd["outputs"]:
                if os.path.exists(out):
                    os.unlink(out)
            span = tracer.op(f"cli.{cmd['name']}") if tracer else contextlib.nullcontext()
            first = len(probe.samples)
            start, cpu_start = time.perf_counter(), time.process_time()
            with span:
                code, error = _call(cli, cmd["argv"])
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            speed = probe.speed(first)
            ops.append({
                "name": cmd["name"], "exit": code, "error": error, "wall_s": wall, "cpu_s": cpu,
                "speed": speed, "norm_s": wall * speed, "speed_samples": len(probe.samples) - first,
                "digests": {out: _digest(out) for out in cmd["outputs"]},
            })
    return {"traced": tracer is not None, **{k: sum(op[k] for op in ops) for k in ("wall_s", "cpu_s", "norm_s")},
            "ops": ops}


def _install_fault(cli, fault: str) -> None:
    """Corrupt the program from outside, for the self-test of the checks."""
    if fault == "exit":
        cli.cmd_evaluate = lambda args: 1
        return
    original = cli.route
    cache = {}

    def shifted(policy):
        if id(policy) not in cache:
            cache.clear()
            cache[id(policy)] = dataclasses.replace(policy, thresholds=tuple(
                t if t.always_think else dataclasses.replace(t, threshold=t.threshold + THRESHOLD_SHIFT)
                for t in policy.thresholds
            ))
        return cache[id(policy)]

    def route(policy, group_hint, uncertainty, *, record_id=""):
        if fault == "threshold":
            return original(shifted(policy), group_hint, uncertainty, record_id=record_id)
        decision = original(policy, group_hint, uncertainty, record_id=record_id)
        if record_id == FLIP_RECORD_ID:
            flipped = "think" if decision.action == "cheap" else "cheap"
            decision = dataclasses.replace(decision, action=flipped)
        return decision

    cli.route = route


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        import pac_route.cli as cli

        for argv in plan["warmup"]:
            code, error = _call(cli, argv)
            if code != 0:
                print(f"warm-up {argv[0]} failed with exit {code}\n{error or ''}", file=sys.stderr)
                return 3
        setup_wall = time.perf_counter() - start
        result = {"setup_s": setup_wall * probe.speed(0), "setup_wall_s": setup_wall,
                  "pac_route": cli.__file__}
        if "--probe" not in sys.argv:
            if plan.get("fault"):
                _install_fault(cli, plan["fault"])
            passes, traces = [], []
            begin = time.perf_counter()
            while True:
                tracer = Tracer() if plan["trace"] and len(passes) % 2 == 1 else None
                passes.append(_run_pass(cli, plan["commands"], tracer, probe))
                if tracer:
                    traces.append(tracer.to_dict())
                expected = max(p["wall_s"] for p in passes[-2:])
                if len(passes) >= plan["min_passes"] and time.perf_counter() - begin + expected > plan["seconds"]:
                    break
            result.update(
                passes=passes, traces=traces,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
