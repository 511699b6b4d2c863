"""Command line front end.

Subcommands: calibrate, route, evaluate, simulate, cluster.  Outputs are
deterministic for a fixed seed and are written atomically.  Exit codes:

    0  success
    2  unreadable or invalid input data (also argparse usage errors)
    3  no usable records (nothing resolves to any group)
    4  invalid tolerance or other invalid parameter, or an output that cannot be written
    5  policy file with an unsupported schema version
    6  --stp requested but token counts are missing
    7  invalid synthetic spec

The wrappers that know which file failed set their own code; `main` maps any
other library error by one table: NoRecordsError 3, MissingTokensError 6,
any other ValueError 4.

calibrate, route and evaluate read a records file in one byte span per CPU,
every span but the first in a forked child (see _in_spans): route routes
each span where it is read, calibrate and evaluate join the spans' resolved
tables.  cluster reads its file in one process: it has no loss spec, so
builds no table, and no benchmark workload times it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import Counter

from . import __version__
from .calibration import CHEAP, MODES, PolicyVersionError, load_policy, route
from .clustering import CLUSTER_MODES, ClusterConfig, calibrate, kmeans_1d
from .estimator import DEFAULT_N_MIN, METHODS, EstimatorConfig
from .evaluation import STP_VARIANTS, evaluate
from .io import atomic_write_json, atomic_write_text, atomic_write_texts, load_records, record_spans, render_json
from .parallel import in_blocks
from .records import (
    LOSS_KINDS,
    LossError,
    LossSpec,
    MissingTokensError,
    NoRecordsError,
    RecordColumns,
    RecordTable,
)
from .simulation import coverage_experiment, load_spec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_RECORDS = 3
EXIT_BAD_PARAM = 4
EXIT_POLICY_VERSION = 5
EXIT_MISSING_TOKENS = 6
EXIT_BAD_SPEC = 7
# decision lines joined into one string before the next block starts
_ROUTE_BLOCK = 8192
# Fewest bytes of records a span holds.  On a 2-core host, after a calibrate and an evaluate in the same process,
# two route spans of 256 KiB broke even with one (19-22 ms either way) and two of 512 KiB won (57-60 ms against
# 39-46 ms).  At this floor the 1.1 MB evaluate CSV of 20k rows splits in two: `evaluate` on it with 20 trials took
# 133 ms against 200 ms at a 1 MiB floor (medians of 20 alternating calls from one interpreter).  The small inputs
# (warm-ups, tests) never fork.
_SPAN_MIN = 1 << 19
# the exit code of a library error that no file wrapper claimed, most specific first
_EXIT_CODES = ((NoRecordsError, EXIT_NO_RECORDS), (MissingTokensError, EXIT_MISSING_TOKENS),
               (ValueError, EXIT_BAD_PARAM))


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_records(args, spec: LossSpec | None = None) -> RecordColumns:
    """The records of --records, their losses resolved by `spec` if one is given."""
    try:
        columns, ignored = load_records(args.records, args.format, spec)
    except LossError as exc:
        raise _CliError(EXIT_INPUT, f"cannot resolve losses: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read records: {exc}") from exc
    _warn_ignored(args, ignored)
    if not len(columns):
        raise _CliError(EXIT_NO_RECORDS, f"no records found in {args.records}")
    return columns


def _warn_ignored(args, ignored: int) -> None:
    if ignored:
        print(f"warning: ignored {ignored} unknown field(s) in {args.records}", file=sys.stderr)


def _load_policy(path):
    try:
        return load_policy(path)
    except PolicyVersionError as exc:
        raise _CliError(EXIT_POLICY_VERSION, str(exc)) from exc
    except (OSError, ValueError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read policy: {exc}") from exc


def _write(write, *args) -> None:
    """write(*args), an io writer; an output that cannot be written exits 4."""
    try:
        write(*args)
    except OSError as exc:
        raise _CliError(EXIT_BAD_PARAM, f"cannot write {exc.filename}: {exc.strerror or exc}") from exc


def _configs(args, method: str, cpac: bool) -> tuple[EstimatorConfig, ClusterConfig | None]:
    """The estimator config and, for cpac, the cluster config; `simulate`,
    which has no --n-min, keeps the default n_min."""
    config = EstimatorConfig(method=method, alpha=args.alpha, pi=args.pi, seed=args.seed,
                             n_min=getattr(args, "n_min", DEFAULT_N_MIN))
    if not cpac:
        return config, None
    if args.k is None:
        raise ValueError(f"cpac {args.command} needs --k")
    return config, ClusterConfig(
        k=args.k, mode=args.cluster_mode, split_fraction=args.split_fraction,
        joint_slack=args.joint_slack, seed=args.seed,
    )


def cmd_calibrate(args) -> int:
    if args.report and os.path.realpath(args.report) == os.path.realpath(args.out):
        raise ValueError(f"--report {args.report} is the --out file; give it a path of its own")
    spec = LossSpec(kind=args.loss_kind, bound_B=args.bound_b)
    config, cluster = _configs(args, args.method, args.mode == "cpac")
    records = _read_table(args, spec)
    policy, report = calibrate(records, args.mode, args.epsilon, config, cluster)
    outputs = [(render_json(policy.to_dict()), args.out)]
    if args.report:
        outputs.append((render_json(report.to_dict()), args.report))
    _write(atomic_write_texts, outputs)
    for t in policy.thresholds:
        shown = "always_think" if t.always_think else f"{t.threshold:.6g}"
        print(f"group {t.group_key}: threshold {shown} (n={t.n_calibration})")
    if report.n_unresolved:
        print(f"excluded {report.n_unresolved} record(s) with unresolvable group")
    print(f"wrote {args.out}")
    return EXIT_OK


def _decisions(policy, columns: RecordColumns) -> tuple[list[str], dict]:
    """The JSON line of each record's decision by `route`, in order
    (byte-identical to json.dumps(d.to_dict())), joined into blocks of
    _ROUTE_BLOCK lines, and the number of decisions of each (group key,
    action); no decision outlives its line."""
    quoted = json.encoder.encode_basestring_ascii
    kinds: dict = {}  # (group key, action) -> [the JSON text after the id, decisions]
    blocks, lines = [], []
    for record_id, label, u in zip(columns.id, columns.group_label, columns.uncertainty.tolist()):
        d = route(policy, label, u, record_id=record_id)
        kind = kinds.get((d.group_key, d.action))
        if kind is None:
            tail = f', "group_key": {json.dumps(d.group_key)}, "action": {json.dumps(d.action)}}}\n'
            kind = kinds[d.group_key, d.action] = [tail, 0]
        kind[1] += 1
        lines.append(f'{{"id": {quoted(d.record_id)}{kind[0]}')
        if len(lines) == _ROUTE_BLOCK:
            blocks.append("".join(lines))
            lines.clear()
    blocks.append("".join(lines))
    return blocks, {key: n for key, (_, n) in kinds.items()}


def _span(finish, path, fmt: str | None, spec: LossSpec | None, span) -> tuple:
    """(finish(columns), records, unknown fields skipped) of the records in byte span `span` of `path`."""
    columns, ignored = load_records(path, fmt, spec, span=span)
    return finish(columns), len(columns), ignored


def _in_spans(args, spec: LossSpec | None, finish) -> list:
    """finish(columns) of the records of --records, their losses resolved by `spec` if one is given, in parts in
    file order: one part per byte span of the file (io.record_spans), the first span read here and every other in
    a forked child that sends back only its part (parallel.in_blocks).  A file of one span, an error in any span,
    or no record in any, gives one part, finish(_read_records(args, spec)) over the whole file here, which
    reports every error as it always has."""
    spans = record_spans(args.records, args.format, _SPAN_MIN)
    parts = []
    if len(spans) > 1:
        with contextlib.suppress(Exception):  # the one-span path below meets it again and reports it
            parts = in_blocks(functools.partial(_span, finish, args.records, args.format, spec), spans)
    if any(records for _, records, _ in parts):
        _warn_ignored(args, sum(ignored for *_, ignored in parts))
        return [part for part, *_ in parts]
    return [finish(_read_records(args, spec))]


def _read_table(args, spec: LossSpec) -> RecordTable:
    """The records of --records as one table, read in one byte span per CPU (see _in_spans)."""
    return RecordTable.concat(_in_spans(args, spec, RecordTable.from_columns))


def cmd_route(args) -> int:
    """Route every record with `route`, in file order, and write each decision
    as its JSON line (see _decisions).

    Each byte span of the file is read and routed where it is read (see
    _in_spans), so a forked child sends back only its text and counts; the
    spans' text is written in file order, so the output is the same for any
    CPU count.
    """
    policy = _load_policy(args.policy)
    try:
        parts = _in_spans(args, None, functools.partial(_decisions, policy))
    except ValueError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from exc
    counts = Counter()
    for _, part in parts:
        counts.update(part)
    _write(atomic_write_text, [block for blocks, _ in parts for block in blocks], args.out)
    cheap = sum(n for (_, action), n in counts.items() if action == CHEAP)
    unresolved = sum(n for (key, _), n in counts.items() if key is None)
    print(f"cheap {cheap} think {counts.total() - cheap} (unresolved group {unresolved})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    spec = LossSpec(kind=args.loss_kind, bound_B=args.bound_b)
    policy = _load_policy(args.policy)
    records = _read_table(args, spec)
    report = evaluate(records, policy, trials=args.trials, seed=args.seed, stp_variant=args.stp)
    _write(atomic_write_json, report.to_dict(), args.out)
    print(f"error {report.error:.6g} gap {report.error_gap:.6g}")
    if report.stp is not None:
        print(f"stp[{report.stp_variant}] {100.0 * report.stp:.2f}%")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, cluster = _configs(args, args.ucb, args.sim_method == "cpac")
    try:
        spec = load_spec(args.spec)
    except (OSError, ValueError) as exc:
        raise _CliError(EXIT_BAD_SPEC, f"invalid synthetic spec: {exc}") from exc
    report = coverage_experiment(spec, args.n_cal, args.trials, args.epsilon, args.sim_method, config, cluster)
    _write(atomic_write_json, report.to_dict(), args.out)
    worst = min(report.per_group_coverage.values())
    print(f"coverage(min) {worst:.4f} efficiency {report.efficiency:.4f} over {report.trials} trials")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    partition = kmeans_1d(_read_records(args).uncertainty, args.k)
    _write(atomic_write_json, partition.to_dict(), args.out)
    centroids = " ".join(f"{c:.6g}" for c in partition.centroids)
    print(f"centroids {centroids}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_records_arguments(parser) -> None:
    parser.add_argument("--records", required=True, help="records file (JSONL or CSV)")
    parser.add_argument("--format", choices=("jsonl", "csv"), default=None,
                        help="records format; default follows the file extension")


def _add_loss_arguments(parser) -> None:
    parser.add_argument("--loss-kind", choices=LOSS_KINDS, default="precomputed",
                        help="how to obtain each record's loss")
    parser.add_argument("--bound-b", type=float, default=None,
                        help="a-priori loss bound B; defaults to 1 (2 for cosine)")


def _add_estimator_arguments(parser) -> None:
    parser.add_argument("--alpha", type=float, default=0.05, help="confidence level of the bound")
    parser.add_argument("--pi", type=float, default=0.5, help="importance-sampling keep probability")
    parser.add_argument("--seed", type=int, default=0, help="master seed for all randomness")


def _add_cluster_arguments(parser) -> None:
    parser.add_argument("--k", type=int, default=None, help="number of learned groups")
    parser.add_argument("--cluster-mode", choices=CLUSTER_MODES, default="split",
                        help="fit groups on a held-out split, or reuse all records with slack")
    parser.add_argument("--split-fraction", type=float, default=0.5,
                        help="fraction of records used for clustering in split mode")
    parser.add_argument("--joint-slack", type=float, default=0.0,
                        help="bound inflation paid for data reuse in joint mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pac-route", allow_abbrev=False,
        description="Calibrate, apply, and verify risk-controlled routing between "
        "a thinking and a non-thinking model.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", allow_abbrev=False,
                       help="learn per-group thresholds from calibration records")
    _add_records_arguments(p)
    _add_loss_arguments(p)
    p.add_argument("--mode", choices=MODES, default="gpac",
                   help="one pooled group, labeled groups, or learned score clusters")
    p.add_argument("--epsilon", type=float, required=True, help="loss tolerance per group")
    p.add_argument("--method", choices=METHODS, default="clt", help="upper confidence bound construction")
    _add_estimator_arguments(p)
    p.add_argument("--n-min", type=int, default=DEFAULT_N_MIN,
                   help="groups that keep fewer records in their draw always route to the thinking model")
    _add_cluster_arguments(p)
    p.add_argument("--out", required=True, help="policy JSON output path")
    p.add_argument("--report", default=None, help="optional per-group diagnostics JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("route", allow_abbrev=False, help="apply a policy to records")
    p.add_argument("--policy", required=True, help="policy JSON from calibrate")
    _add_records_arguments(p)
    p.add_argument("--out", required=True, help="decisions JSONL output path")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("evaluate", allow_abbrev=False, help="score a policy on held-out records")
    p.add_argument("--policy", required=True, help="policy JSON from calibrate")
    _add_records_arguments(p)
    _add_loss_arguments(p)
    p.add_argument("--stp", choices=STP_VARIANTS, default=None,
                   help="also report saved thinking percentage under this accounting")
    p.add_argument("--trials", type=int, default=1,
                   help="bootstrap resamples for trial-averaged group errors")
    p.add_argument("--seed", type=int, default=0, help="seed for the resamples")
    p.add_argument("--out", required=True, help="metrics JSON output path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", allow_abbrev=False, help="Monte Carlo coverage check on a synthetic spec")
    p.add_argument("--spec", required=True, help="synthetic population spec JSON")
    p.add_argument("--method", dest="sim_method", choices=MODES,
                   default="gpac", help="calibration scheme under test")
    p.add_argument("--n-cal", type=int, required=True, help="calibration records per trial")
    p.add_argument("--trials", type=int, default=500, help="number of Monte Carlo trials")
    p.add_argument("--epsilon", type=float, required=True, help="loss tolerance per group")
    p.add_argument("--ucb", choices=METHODS, default="clt", help="upper confidence bound construction")
    _add_estimator_arguments(p)
    _add_cluster_arguments(p)
    p.add_argument("--out", required=True, help="coverage report JSON output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cluster", allow_abbrev=False, help="fit a k-group partition of the uncertainty axis")
    _add_records_arguments(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--out", required=True, help="partition JSON output path")
    p.set_defaults(func=cmd_cluster)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
