"""The benchmark's tracer patches pac_route functions by name; every name it
lists must exist, or `perfbench/run.py --trace 1` breaks after a refactor."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import LEAVES, TRACED

    for module, function, _ in TRACED:
        assert callable(getattr(importlib.import_module(f"pac_route.{module}"), function, None)), \
            f"pac_route.{module}.{function}"
    assert LEAVES <= {f"{module}.{function}" for module, function, _ in TRACED}
