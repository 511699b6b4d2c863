"""The README's Python examples run as written."""

import json
import re
from pathlib import Path

from test_acceptance import COVERAGE_FLOOR

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) == 2
    rows = [{"id": f"{label}{i}", "uncertainty": i / 40, "group_label": label,
             "loss": float(label == "hard" and i % 3 == 0)}
            for label in ("easy", "hard") for i in range(40)]
    (tmp_path / "cal.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:  # in order: the second uses the imports of the first
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["decision"].action in ("cheap", "think")
    assert (tmp_path / "policy.json").is_file()
    assert len(namespace["records"]) == 1 and namespace["records"].spec.bound_B == 1.0


# ------------------------------------------------ the claims table

PILOTS = README.parent / "tests" / "data" / "pilots"
CLAIMS_BEGIN = "<!-- rendered from tests/data/pilots/ by `python tests/test_readme.py`; edit that, not this -->"
CLAIMS_END = "<!-- end of the rendered claims -->"


def pilot_rows() -> dict:
    """(lowest group's coverage, efficiency) of every committed pilot run,
    keyed (spec, mode, bound, n_cal); a cpac label names its cluster mode
    and check 11 runs every cpac pilot at k 3."""
    rows = {}
    for path in sorted(PILOTS.glob("*.json")):
        pilot = json.loads(path.read_text())
        for run in pilot["runs"]:
            label = run["label"]
            mode = run["method"] + "".join(f" {m} k=3" for m in ("split", "joint") if m in label)
            bound = "hoeffding" if "hoeffding" in label else "clt"
            rows[pilot["spec"], mode, bound, run["n_cal"]] = min(run["per_group_coverage"].values()), run["efficiency"]
    return rows


def render_claims() -> str:
    """The README's table of the pilot runs, and one line per claim of the
    paper saying which rows show it."""
    rows = pilot_rows()
    row = {key: f"row {i} ({key[0]} {key[1]})" for i, key in enumerate(rows, 1)}
    marginal = {key: value for key, value in rows.items() if key[1] == "marginal"}
    grouped = {key: value for key, value in rows.items() if key[1] != "marginal"}
    broken = [f"{row[key]} reads {c:.3f}" for key, (c, _) in marginal.items() if c < COVERAGE_FLOOR]
    low = [f"{row[key]} reads {c:.3f}" for key, (c, _) in grouped.items() if c < COVERAGE_FLOOR]
    weakest = min(grouped, key=lambda key: grouped[key][0])
    gains = []
    for key, (_, e) in marginal.items():
        gpac = (key[0], "gpac", *key[2:])
        if rows[gpac][1] > e:
            gains.append(f"{row[gpac]} reads {rows[gpac][1]:.3f} against {row[key]} {e:.3f}")
    cpac_beside_marginal = {key[0] for key in grouped if key[1].startswith("cpac")} & {key[0] for key in marginal}
    routed = [e for key, (_, e) in grouped.items() if key[2] == "clt"]
    finite = [e for key, (_, e) in rows.items() if key[2] == "hoeffding"]
    specs = len({key[0] for key in rows})
    lines = [
        CLAIMS_BEGIN,
        "| row | spec | mode | bound | n_cal | lowest group's coverage | efficiency |",
        "|---|---|---|---|---|---|---|",
        *(f"| {i} | {s} | {m} | {b} | {n} | {c:.3f} | {e:.3f} |"
          for i, ((s, m, b, n), (c, e)) in enumerate(rows.items(), 1)),
        "",
        "- *Marginal PAC does not control each group's error:* "
        + (f"shown: {'; '.join(broken)}." if broken else "not shown: no marginal row is below the floor."),
        "- *G-PAC and C-PAC control each group's error:* "
        + (f"not shown: {'; '.join(low)}." if low else
           f"shown on these {specs} specs by all {len(grouped)} gpac and cpac rows; the lowest is "
           f"{row[weakest]} at {grouped[weakest][0]:.3f}. Most rows use the asymptotic CLT bound, which "
           "ROADMAP item 10 finds below the floor on small groups of random specs."),
        "- *Grouping can improve efficiency over marginal PAC:* "
        + (f"shown for gpac: {'; '.join(gains)}." if gains else "not shown for gpac.")
        + ("" if cpac_beside_marginal else
           " Not shown for cpac: no spec has both a cpac and a marginal pilot (ROADMAP item 6's inverted2 would)."),
        f"- *Risk control with substantial savings:* shown under CLT, whose gpac and cpac rows route "
        f"{min(routed):.3f} to {max(routed):.3f} of the mass cheap. Under the finite-sample hoeffding bound its "
        f"{len(finite)} rows route "
        + ("nothing." if max(finite) == 0.0 else f"{min(finite):.3f} to {max(finite):.3f}."),
        CLAIMS_END,
    ]
    return "\n".join(lines) + "\n"


def claims_span(text: str) -> slice:
    """Where the rendered claims sit in the README's text, markers and final newline included."""
    return slice(text.index(CLAIMS_BEGIN), text.index(CLAIMS_END) + len(CLAIMS_END) + 1)


def test_readme_holds_the_rendered_claims():
    text = README.read_text(encoding="utf-8")
    assert text[claims_span(text)] == render_claims(), "rerun `PYTHONPATH=src python tests/test_readme.py`"


if __name__ == "__main__":
    text = README.read_text(encoding="utf-8")
    span = claims_span(text)
    README.write_text(text[:span.start] + render_claims() + text[span.stop:], encoding="utf-8")
