"""Smoke tests: the example scripts run against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_index_zoo_runs_and_agrees():
    proc = run_script("index_zoo.py")
    verdicts = re.findall(r"numeric agrees: (\w+)", proc.stdout)
    assert len(verdicts) == 5
    assert set(verdicts) == {"True"}


def test_run_anomaly_presets_classifies_the_presets():
    proc = run_script("run_anomaly_presets.py")
    # Levin-Gu, the on-site control, and the Pauli and Weyl-pair mixed anomalies
    verdicts = re.findall(r"^verdict: (\w+)", proc.stdout, re.M)
    assert verdicts == ["Anomalous", "NonAnomalous", "Anomalous", "Anomalous"]
    assert proc.stdout.count("classes equal: True") == 2
    assert '"classes_equal": true' in proc.stdout


def test_gap_scan_writes_the_table(tmp_path):
    out = tmp_path / "gap_scan.csv"
    proc = run_script("gap_scan.py", str(out))
    assert f"wrote {out}" in proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("N,J,a,E0,") and len(lines) == 9
    assert "trend (('h0', 'h1'), 0.0, 0.0): gapless" in proc.stdout
    assert "trend (('h0', 'h1', 'hj'), 4.0, 0.0): ssb" in proc.stdout
