import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
FROZEN = Path(__file__).resolve().parent / "demo_stdout"


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # The census demo prints its wall time; every other byte is frozen.
    stdout = re.sub(r"^elapsed: \d+ ms$", "elapsed: ... ms", proc.stdout, flags=re.M)
    assert stdout == (FROZEN / f"{demo.stem}.txt").read_text()
