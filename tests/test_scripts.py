"""Smoke tests: the example scripts run against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_index_zoo_runs_and_agrees():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "index_zoo.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdicts = re.findall(r"numeric agrees: (\w+)", proc.stdout)
    assert len(verdicts) == 5
    assert set(verdicts) == {"True"}
