import json
from pathlib import Path

import numpy as np
import pytest

from chainomaly import cli, opwin, qca
from chainomaly.errors import IoError, ParseError, ValidationError

LEVIN_GU = """
mode: anomaly
action:
  preset: levin-gu-z2
"""

CUSTOM_ONSITE = """
mode: anomaly
group: {kind: cyclic, n: 2}
action:
  site: {registers: [2]}
  map:
    - element: 0
      steps: []
    - element: 1
      steps:
        - kind: layer
          period: 1
          templates:
            - {anchor: 0, span: 1, unitary: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
"""

LSM = """
mode: anomaly
action:
  preset: lsm
  rep: pauli
"""

SPECTRA_SMALL = """
mode: spectra
spectra:
  k: 3
  grid:
    - {N: 6, terms: [h0]}
    - {N: 8, J: 4.0, terms: [h0, h1, hj]}
output:
  csv: out.csv
  json: out.json
"""


def test_parse_minimal_preset():
    cfg = cli.parse_config(LEVIN_GU)
    assert cfg.mode == "anomaly"
    assert cfg.action is not None and cfg.group.order == 2


def test_parse_rejects_bad_yaml():
    with pytest.raises(ParseError):
        cli.parse_config("mode: [unclosed")


def test_parse_rejects_unknown_mode():
    with pytest.raises(ValidationError, match="mode"):
        cli.parse_config("mode: banana")


def test_parse_names_offending_path_for_bad_matrix():
    bad = CUSTOM_ONSITE.replace("[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]",
                                "[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]")
    with pytest.raises(ValidationError) as err:
        cli.parse_config(bad)
    assert "action.map[1].steps" in str(err.value)
    assert "unitary" in str(err.value)


def test_parse_custom_action_and_run():
    cfg = cli.parse_config(CUSTOM_ONSITE)
    result = cli.run(cfg)
    assert result.report["verdict"] == "NonAnomalous"


def test_parse_lsm_carries_projective_rep():
    cfg = cli.parse_config(LSM)
    assert cfg.lsm_rep is not None
    assert cfg.lsm_rep.dimension == 2
    assert cfg.lsm_rep.group.order == 4


def test_parse_lsm_custom_matrices_roundtrip():
    mats = {
        0: np.eye(2, dtype=complex),
        1: np.array([[1, 0], [0, -1]], dtype=complex),
        2: np.array([[0, 1], [1, 0]], dtype=complex),
        3: np.array([[0, -1], [1, 0]], dtype=complex),
    }
    lits = [opwin.matrix_to_pairs(mats[g]) for g in range(4)]
    text = {
        "mode": "anomaly",
        "action": {
            "preset": "lsm",
            "rep": {"group": {"kind": "product", "factors": [2, 2]}, "matrices": lits},
        },
    }
    import yaml

    cfg = cli.parse_config(yaml.safe_dump(text))
    for g in range(4):
        assert np.allclose(cfg.lsm_rep.matrices[g], mats[g])
        assert opwin.matrix_to_pairs(cfg.lsm_rep.matrices[g]) == lits[g]


def test_run_levin_gu_report():
    result = cli.run(cli.parse_config(LEVIN_GU))
    rep = result.report
    assert rep["verdict"] == "Anomalous"
    assert rep["class"] == [1]
    assert rep["invariant_factors"] == [2]
    row = next(r for r in rep["omega"] if r["args"] == ["-1", "-1", "-1"])
    assert row["phase"] == "1/2"


def test_run_cohomology_mode():
    cfg = cli.parse_config("mode: cohomology\ngroup: {kind: cyclic, n: 2}\ndegree: 3\n")
    result = cli.run(cfg)
    assert result.report["pretty"] == "ℤ/2"
    assert result.report["invariant_factors"] == [2]


def test_run_gnvw_mode():
    cfg = cli.parse_config(
        "mode: gnvw\naction:\n  site: {registers: [2]}\n  steps:\n"
        "    - {kind: shift, register: 0, displacement: 1}\n"
    )
    result = cli.run(cfg)
    assert result.report["symbolic"] == {"2": 1}
    assert result.report["agree"] is True


def test_run_spectra_mode():
    cfg = cli.parse_config(SPECTRA_SMALL)
    result = cli.run(cfg)
    assert result.csv_text.startswith("N,J,a,E0,E1,E2,gap,gap2,charge_re,charge_im")
    rows = result.report["rows"]
    assert rows[0]["gap"] == pytest.approx(2.0, abs=1e-9)
    assert rows[1]["gap"] < 1e-2


def test_emit_report_and_determinism(tmp_path):
    cfg = cli.parse_config(LEVIN_GU)
    cfg.out_json = "r.json"
    cfg.out_summary = "s.txt"
    result = cli.run(cfg)
    cli.emit_report(result, cfg, str(tmp_path))
    blob1 = (tmp_path / "r.json").read_bytes()
    result2 = cli.run(cli.parse_config(LEVIN_GU))
    cfg.out_json = "r2.json"
    cli.emit_report(result2, cfg, str(tmp_path))
    assert blob1 == (tmp_path / "r2.json").read_bytes()
    assert json.loads(blob1)["verdict"] == "Anomalous"


def test_emit_report_missing_directory(tmp_path):
    cfg = cli.parse_config(LEVIN_GU)
    cfg.out_json = "nosuchdir/r.json"
    result = cli.run(cfg)
    with pytest.raises(IoError, match="nosuchdir"):
        cli.emit_report(result, cfg, str(tmp_path))


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(LEVIN_GU)
    assert cli.main(["run", str(cfg_path)]) == 0
    cfg_path.write_text("mode: banana\n")
    assert cli.main(["run", str(cfg_path)]) == 1
    cfg_path.write_text("mode: [unclosed\n")
    assert cli.main(["run", str(cfg_path)]) == 1
    # a pipeline failure: action that is not a homomorphism
    broken = CUSTOM_ONSITE.replace(
        "    - element: 0\n      steps: []\n",
        "    - element: 0\n      steps:\n"
        "        - kind: layer\n          period: 1\n          templates:\n"
        "            - {anchor: 0, span: 1, unitary: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}\n",
    )
    cfg_path.write_text(broken)
    assert cli.main(["run", str(cfg_path)]) == 2
    capsys.readouterr()


def test_row_nested_matrix_literal_is_a_config_error(tmp_path, capsys):
    # each matrix literal is a flat list of [re, im] pairs, not a list of rows
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(
        "mode: anomaly\n"
        "action:\n"
        "  preset: lsm\n"
        "  rep:\n"
        "    group: {kind: cyclic, n: 2}\n"
        "    matrices:\n"
        "      - [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]\n"
        "      - [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]\n"
    )
    assert cli.main(["run", str(cfg_path)]) == 1
    assert "action.rep.matrices[1]" in capsys.readouterr().err


GNVW_SITE = "mode: gnvw\naction:\n  site: {registers: [2]}\n  steps: "


@pytest.mark.parametrize(
    "text, path",
    [
        (GNVW_SITE + "[5]\n", "action.steps[0]"),
        (GNVW_SITE + "[{kind: layer, period: 1, templates: [5]}]\n",
         "action.steps[0].templates[0]"),
        (GNVW_SITE + "[{kind: shift, register: 0}]\n", "action.steps[0].displacement"),
        ("mode: anomaly\ngroup: {kind: cyclic, n: 2}\n"
         "action: {site: {registers: [2]}, map: [5]}\n", "action.map[0]"),
        ("mode: spectra\nspectra: {grid: [5]}\n", "spectra.grid[0]"),
        ("mode: spectra\nspectra: {grid: [{N: 6, terms: h0}]}\n", "spectra.grid[0].terms"),
        ("mode: selftest\ncaps: 5\n", "caps"),
        ("mode: selftest\noutput: 5\n", "output"),
        ("mode: selftest\noutput: {json: 5}\n", "output.json"),
        (GNVW_SITE + "[{kind: layer, period: 1, min_site: a, templates: []}]\n",
         "action.steps[0].min_site"),
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, text, path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(text)
    assert cli.main(["run", str(cfg_path)]) == 1
    assert f"error: {path}:" in capsys.readouterr().err


def test_selftest_passes():
    ok, lines = cli.selftest()
    assert ok
    assert all(line.startswith("PASS") for line in lines)


def test_expr_config_roundtrip():
    # the serialized step list parsed back produces the identical step list
    cfg = cli.parse_config(CUSTOM_ONSITE)
    e = cfg.action.expr(1)
    data = qca.expr_to_data(e)
    again = qca.expr_from_data(cfg.action.sites, data)
    assert qca.expr_to_data(again) == data


def test_shipped_configs_parse():
    cfg_dir = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(cfg_dir.glob("*.yaml")):
        cfg = cli.parse_config(path.read_text())
        assert cfg.mode in cli.MODES


CUSTOM_LEVIN_GU = """
mode: anomaly
group: {kind: cyclic, n: 2}
action:
  site: {registers: [2]}
  map:
    - element: 0
      steps: []
    - element: 1
      steps:
        - kind: layer
          period: 1
          templates:
            - {anchor: 0, span: 1, unitary: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
        - kind: layer
          period: 2
          templates:
            - anchor: 0
              span: 2
              unitary: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                        [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                        [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
                        [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
        - kind: layer
          period: 2
          templates:
            - anchor: 1
              span: 2
              unitary: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                        [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                        [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
                        [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]
"""


def test_custom_circuit_config_matches_preset():
    custom = cli.run(cli.parse_config(CUSTOM_LEVIN_GU)).report
    preset = cli.run(cli.parse_config(LEVIN_GU)).report
    assert custom["verdict"] == "Anomalous"
    assert custom["class"] == preset["class"]
    # same phases; the generic group labels elements 0/1 instead of 1/-1
    assert [r["phase"] for r in custom["omega"]] == [
        r["phase"] for r in preset["omega"]
    ]
