"""The suite's pytest settings report a failing property test as a
failure.

``hypothesis``'s failure hook imports ``libcst``, which warns with a
``DeprecationWarning``; the settings turn such warnings into errors, so
without their ``libcst`` exception pytest would stop with an
``INTERNALERROR`` and hide every later result.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_reports_as_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert run.returncode == 1
