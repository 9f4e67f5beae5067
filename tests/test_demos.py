"""The demo scripts run to completion against the current package."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# 01 integrates long trajectories (about 5 s) and is left out
@pytest.mark.parametrize(
    "script",
    ["02_conserved_ladder.py", "03_poisson_hierarchy.py", "04_time_dependent_symmetries.py"],
)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
