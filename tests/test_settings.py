"""The pytest settings in pyproject.toml: a failing property test reports its example."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_failing_property_test_reports_its_example(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised in Hypothesis'
    # report hook into an INTERNALERROR that hides the falsifying example
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
