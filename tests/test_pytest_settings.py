"""The suite's own pytest settings keep a failing run readable."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_a_plain_test_that_passes():
    assert True
'''


def test_a_failing_property_leaves_the_rest_of_the_run_reported(tmp_path):
    """On a failure the hypothesis plugin imports libcst, whose mypy_extensions import
    warns; under ``filterwarnings = error`` that warning would end the run with an
    INTERNALERROR, skip every later test and lose the failure summary."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(PROPERTY_THEN_PLAIN, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          "test_property.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "FAILED test_property.py::test_a_property_that_fails" in out
