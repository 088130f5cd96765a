"""The repository's pytest settings themselves."""
import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # Warnings are errors here, and Hypothesis's report hook touches a
    # deprecated mypy_extensions name: unless that one warning is ignored,
    # the first failing @given test ends the session in INTERNALERROR.
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout
