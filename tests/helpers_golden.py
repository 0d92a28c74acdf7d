"""The exact fields of a report and the golden files under tests/golden/
that pin them. Used only by the tests."""

import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def exact_fields(report):
    """The report without its diagnostics block and without any float, in a
    mapping or in a list: verdicts, classes, invariant factors, phase rows,
    indices, sizes and trends stay; energies, gaps and charges go."""
    if isinstance(report, dict):
        return {
            k: exact_fields(v) for k, v in report.items()
            if k != "diagnostics" and not isinstance(v, float)
        }
    if isinstance(report, list):
        return [exact_fields(v) for v in report if not isinstance(v, float)]
    return report


def golden(name: str):
    """The golden exact fields stored as tests/golden/<name>.json."""
    return json.loads((GOLDEN / f"{name}.json").read_text())
