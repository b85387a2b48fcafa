"""The test configuration reports a failing property test instead of crashing."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under the project's warning filters, a failing @given test prints its
    falsifying example and counts as one failure (the plugin's report used
    to raise a DeprecationWarning as an error and end the session)."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 10\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "Falsifying example" in out.stdout
    assert "1 failed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
