"""The suite's own pytest settings: one failing property test is reported
as a failure, and the tests after it still run.

``pyproject.toml`` turns warnings into errors.  A warning raised inside a
pytest hook then ends the session with ``INTERNALERROR``; hypothesis's
report hook raised one whenever an example failed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_order.py").write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_order.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
