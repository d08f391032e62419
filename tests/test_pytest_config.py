import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_later_results(tmp_path):
    # Under the repo's filterwarnings, a warning raised while hypothesis
    # reports a failure must not end the session in INTERNALERROR, which
    # would hide the result of every test after the failing one.
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = {name: value for name, value in os.environ.items() if name != "PYTEST_ADDOPTS"}
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [*command, "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
