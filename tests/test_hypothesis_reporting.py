"""A failing hypothesis test reports its falsifying example.

The suite turns every ``DeprecationWarning`` into an error
(``pyproject.toml``).  Hypothesis imports libcst while it reports a
failure, and libcst triggers ``mypy_extensions.TypedDict``'s deprecation
warning; unless that one warning is ignored, every failing ``@given`` test
ends in a pytest ``INTERNALERROR`` that hides the example.  The check runs
pytest on a deliberately failing test, under the repository's own pytest
settings.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_given_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
