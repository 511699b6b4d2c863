"""Benchmark-owned input generator for the deploy-gpac workload.

Uses numpy only and never imports pac_route, so a change to the program
(its simulation module included) cannot change the bytes it is measured on.
The population follows steep2's two loss profiles:

    benign: loss probability 0.01 over the whole uncertainty range
    hard:   0.08 below u = 0.5, 1.0 above (the cliff the threshold binds at)

Three large labels carry the traffic (two benign, one hard).  On top of
that a share of records has no group_label (unresolved), and a rare label
appears fewer times in the calibration file than calibrate's --n-min, so
it is calibrated as always_think.  Losses travel as thinking/cheap/gold
answer triples (binary loss), with token counts for STP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Equal shares of the labeled traffic; only "hard" follows the hard profile,
# the rare label and unlabeled records follow the benign one.
LABELS = ("alpha", "beta", "hard")
RARE_LABEL = "rare"
UNLABELED_SHARE = 0.02
RARE_SHARE = 0.001          # share of route/evaluate records with the rare label
RARE_IN_CALIBRATION = 6     # fewer than calibrate's default --n-min of 10

# Each file draws from its own stream of (workload seed, set, file).
STREAM_TAGS = {"calibrate": 1, "route": 2, "evaluate": 3}


@dataclass(frozen=True)
class Population:
    """Columns of one generated file, kept for the output oracles."""

    ids: list[str]
    uncertainty: np.ndarray      # float64
    label: np.ndarray            # object: str, or None for unlabeled
    loss: np.ndarray             # 0/1 float64, the binary loss the answers encode
    tokens_thinking: np.ndarray  # int64
    tokens_cheap: np.ndarray     # int64


def population(
    seed: int, stream: int, name: str, n: int, rare: int
) -> tuple[Population, list[tuple[str, str, str]]]:
    """n records with `rare` rare-label records; returns columns and answer triples."""
    rng = np.random.default_rng([seed, stream, STREAM_TAGS[name]])
    n_unlabeled = int(round(n * UNLABELED_SHARE))
    n_labeled = n - n_unlabeled - rare
    labels = np.empty(n, dtype=object)
    labels[:n_labeled] = np.array(LABELS, dtype=object)[rng.integers(0, len(LABELS), n_labeled)]
    labels[n_labeled:n_labeled + rare] = RARE_LABEL
    labels[n_labeled + rare:] = None
    labels = labels[rng.permutation(n)]

    hard = labels == "hard"
    u = rng.random(n)
    p_loss = np.where(hard, np.where(u < 0.5, 0.08, 1.0), 0.01)
    loss = (rng.random(n) < p_loss).astype(float)
    scale_t = rng.uniform(0.5, 1.5, n)
    scale_c = rng.uniform(0.5, 1.5, n)
    tokens_thinking = np.maximum(1, np.round(np.where(hard, 600, 400) * scale_t)).astype(np.int64)
    tokens_cheap = np.maximum(1, np.round(np.where(hard, 50, 60) * scale_c)).astype(np.int64)

    # Answer triples encoding the loss: loss 1 iff cheap misses gold while
    # thinking hits it.  Loss-0 records mix both-right, both-wrong and
    # cheap-right-thinking-wrong, and some answers carry stray whitespace.
    gold = rng.integers(0, 1000, n)
    case = rng.choice(3, size=n, p=(0.8, 0.1, 0.1))
    padded = rng.random(n) < 0.05
    triples = []
    for i in range(n):
        g = f"a{gold[i]}"
        if loss[i]:
            think, cheap = g, f"b{gold[i]}"
        elif case[i] == 0:
            think, cheap = g, g
        elif case[i] == 1:
            think, cheap = f"c{gold[i]}", f"b{gold[i]}"
        else:
            think, cheap = f"c{gold[i]}", g
        if padded[i]:
            cheap = f" {cheap} "
        triples.append((think, cheap, g))
    ids = [f"{name[0]}{i:07d}" for i in range(n)]
    return Population(ids, u, labels, loss, tokens_thinking, tokens_cheap), triples


def write_jsonl(pop: Population, triples, path: Path, *, answers: bool) -> None:
    """JSONL in the field order of pac_route.io; unlabeled records omit group_label."""
    lines = []
    for i, rid in enumerate(pop.ids):
        label = pop.label[i]
        parts = [f'"id": "{rid}"', f'"uncertainty": {float(pop.uncertainty[i])!r}']
        if label is not None:
            parts.append(f'"group_label": "{label}"')
        if answers:
            think, cheap, gold = triples[i]
            parts += [
                f'"thinking_answer": "{think}"', f'"cheap_answer": "{cheap}"',
                f'"gold_answer": "{gold}"',
                f'"tokens_thinking": {int(pop.tokens_thinking[i])}',
                f'"tokens_cheap": {int(pop.tokens_cheap[i])}',
            ]
        lines.append("{" + ", ".join(parts) + "}\n")
    path.write_text("".join(lines), encoding="utf-8")


def write_csv(pop: Population, triples, path: Path) -> None:
    header = "id,uncertainty,group_label,thinking_answer,cheap_answer,gold_answer,tokens_thinking,tokens_cheap\n"
    lines = [header]
    for i, rid in enumerate(pop.ids):
        label = pop.label[i] or ""
        think, cheap, gold = triples[i]
        lines.append(
            f"{rid},{float(pop.uncertainty[i])!r},{label},{think},{cheap},{gold},"
            f"{int(pop.tokens_thinking[i])},{int(pop.tokens_cheap[i])}\n"
        )
    path.write_text("".join(lines), encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def deploy_inputs(
    seed: int, out_dir: Path, sizes: dict[str, int], stream: int = 0
) -> dict[str, Population]:
    """Write calibrate.jsonl, route.jsonl and evaluate.csv; return their columns.

    `stream` separates independent input sets of one seed (the measured set
    and the small warm-up set).
    """
    pops = {}
    cal, cal_triples = population(seed, stream, "calibrate", sizes["calibrate"], RARE_IN_CALIBRATION)
    write_jsonl(cal, cal_triples, out_dir / "calibrate.jsonl", answers=True)
    pops["calibrate"] = cal
    rare = max(1, int(round(sizes["route"] * RARE_SHARE)))
    route, route_triples = population(seed, stream, "route", sizes["route"], rare)
    write_jsonl(route, route_triples, out_dir / "route.jsonl", answers=False)
    pops["route"] = route
    rare = max(1, int(round(sizes["evaluate"] * RARE_SHARE)))
    ev, ev_triples = population(seed, stream, "evaluate", sizes["evaluate"], rare)
    write_csv(ev, ev_triples, out_dir / "evaluate.csv")
    pops["evaluate"] = ev
    return pops
