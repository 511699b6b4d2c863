"""The pytest settings in pyproject.toml report every failure of a run.

Every warning is an error there, but the hypothesis plugin touches the
deprecated `mypy_extensions.TypedDict` while it reports a failing property;
unless that one warning is ignored, pytest stops with an INTERNALERROR and
the failures after it go unreported.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_a_plain_failure():
    assert False
"""


def test_a_failing_property_leaves_every_later_failure_reported(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "2 failed" in done.stdout
