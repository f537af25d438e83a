"""pyproject.toml's pytest settings let a failing hypothesis property be
reported: its falsifying example printed and the tests after it run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROPERTIES = '''\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_properties.py").write_text(PROPERTIES, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_properties.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "Falsifying example: test_fails(" in run.stdout, run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
