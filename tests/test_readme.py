"""The README's Python examples run as written."""

import json
import re
from pathlib import Path

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
