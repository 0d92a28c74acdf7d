"""The exact fields of every bundled non-spectra config's report, against
JSON checked in under tests/golden/: verdict, class, invariant factors,
phase rows, representative rows and index. Float diagnostics are left out.
A change that moves one of these fields, such as a new basis in the Smith
elimination, fails here; it must name the moved fields and update the file
by hand."""

import json
from pathlib import Path

import pytest
import yaml

from chainomaly import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(
    p for p in (ROOT / "configs").glob("*.yaml")
    if yaml.safe_load(p.read_text())["mode"] != "spectra"
)


def exact_fields(report):
    """The report without its diagnostics block and without any float."""
    if isinstance(report, dict):
        return {
            k: exact_fields(v) for k, v in report.items()
            if k != "diagnostics" and not isinstance(v, float)
        }
    if isinstance(report, list):
        return [exact_fields(v) for v in report]
    return report


def test_every_non_spectra_config_has_a_golden_report():
    assert [p.stem for p in CONFIGS] == sorted(p.stem for p in GOLDEN.glob("*.json"))
    assert len(CONFIGS) == 5


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_report_exact_fields_match_the_golden_file(config, tmp_path):
    assert cli.main(["run", str(config), "--out", str(tmp_path)]) == 0
    name = yaml.safe_load(config.read_text())["output"]["json"]
    got = exact_fields(json.loads((tmp_path / name).read_text()))
    assert got == json.loads((GOLDEN / f"{config.stem}.json").read_text())
