import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import yaml

from chainomaly import cli, grpcoh, spectra
from chainomaly.errors import IoError, ParseError, ValidationError

from helpers_golden import GOLDEN, exact_fields, golden
from helpers_serialize import expr_to_data, matrix_to_pairs

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
    assert cfg.action is not None and cfg.action.group.order == 2


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
    lits = [matrix_to_pairs(mats[g]) for g in range(4)]
    text = {
        "mode": "anomaly",
        "action": {
            "preset": "lsm",
            "rep": {"group": {"kind": "product", "factors": [2, 2]}, "matrices": lits},
        },
    }
    cfg = cli.parse_config(yaml.safe_dump(text))
    for g in range(4):
        assert np.allclose(cfg.lsm_rep.matrices[g], mats[g])
        assert matrix_to_pairs(cfg.lsm_rep.matrices[g]) == lits[g]


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


def test_gnvw_opposed_shifts_report_pinned(tmp_path):
    # a qubit shifted right and a qutrit shifted left: index 2/3
    cfg_path = tmp_path / "gnvw.yaml"
    cfg_path.write_text(
        "mode: gnvw\naction:\n  site: {registers: [2, 3]}\n  steps:\n"
        "    - {kind: shift, register: 0, displacement: 1}\n"
        "    - {kind: shift, register: 1, displacement: -1}\n"
        "output: {json: report.json, summary: summary.txt}\n"
    )
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["symbolic"] == report["numeric"] == {"2": 1, "3": -1}
    summary = (tmp_path / "summary.txt").read_text()
    assert summary == "index = 1*log2 + -1*log3 (numeric agrees)\n"


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


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_spectra_report_is_strict_json(tmp_path):
    # k = 2 leaves gap2 unmeasured, and N = 24 is refused by the size cap:
    # both are null in the JSON and nan in the summary and the CSV
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(
        "mode: spectra\nspectra: {k: 2, grid: [{N: 6}, {N: 24}]}\n"
        "output: {json: r.json, csv: r.csv, summary: s.txt}\n"
    )
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "r.json").read_text(), parse_constant=_no_constant)["rows"]
    assert rows[0]["gap"] > 0 and rows[0]["gap2"] is None
    assert rows[1]["error"].startswith("SizeCap")
    assert (rows[1]["gap"], rows[1]["gap2"], rows[1]["charge"]) == (None, None, [None, None])
    assert "gap2=nan" in (tmp_path / "s.txt").read_text()
    assert (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[7] == "nan"


def test_emit_report_refuses_a_stray_nan(tmp_path):
    cfg = cli.parse_config("mode: cohomology\ngroup: {kind: cyclic, n: 2}\noutput: {json: r.json}\n")
    result = cli.RunResult(report={"x": float("nan")}, summary="")
    with pytest.raises(ValueError):
        cli.emit_report(result, cfg, str(tmp_path))


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


def z2_qubit_action(*steps: str) -> str:
    """An anomaly config: Z/2 on qubits whose generator is the given steps."""
    return (
        "mode: anomaly\ngroup: {kind: cyclic, n: 2}\naction:\n  site: {registers: [2]}\n"
        "  map:\n    - {element: 0, steps: []}\n"
        f"    - {{element: 1, steps: [{', '.join(steps)}]}}\n"
        "output: {json: r.json}\n"
    )


def one_site_gate(anchor: int, pairs: str) -> str:
    return f"{{anchor: {anchor}, span: 1, unitary: {pairs}}}"


X_PAIRS = "[[0, 0], [1, 0], [1, 0], [0, 0]]"
Z_PAIRS = "[[1, 0], [0, 0], [0, 0], [-1, 0]]"
S_PAIRS = "[[1, 0], [0, 0], [0, 0], [0, 1]]"
R2 = 0.7071067811865476  # 1/sqrt(2)
H_PAIRS = f"[[{R2}, 0], [{R2}, 0], [{R2}, 0], [{-R2}, 0]]"
X_LAYER = f"{{kind: layer, period: 1, templates: [{one_site_gate(0, X_PAIRS)}]}}"
H_LAYER_FROM_3 = f"{{kind: layer, period: 1, min_site: 3, templates: [{one_site_gate(0, H_PAIRS)}]}}"


def period_ten_layer(pairs_at_5: str) -> str:
    gates = f"{one_site_gate(0, X_PAIRS)}, {one_site_gate(5, pairs_at_5)}"
    return f"{{kind: layer, period: 10, templates: [{gates}]}}"


@pytest.mark.parametrize(
    "steps",
    [
        # squared: conjugation by Z on the sites 5 mod 10 only
        [period_ten_layer(S_PAIRS)],
        # squared: (H X)^2 on the sites >= 3 only
        [X_LAYER, H_LAYER_FROM_3],
    ],
    ids=["period-10", "min-site-3"],
)
def test_non_homomorphism_off_the_radius_window_exits_2(tmp_path, capsys, steps):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(z2_qubit_action(*steps))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "error: pair (1, 1) violates the homomorphism property" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_non_homomorphism_error_names_the_site(tmp_path, capsys):
    # squared, the generator is conjugation by Z on the sites 5 mod 10 only
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(z2_qubit_action(period_ten_layer(S_PAIRS)))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "violates the homomorphism property at site 5, register 0 (residual 2)" in err


def test_period_ten_homomorphism_classifies(tmp_path, capsys):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(z2_qubit_action(period_ten_layer(Z_PAIRS)))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "verdict: NonAnomalous" in capsys.readouterr().out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["class"] == [0] and report["diagnostics"]["homomorphism_residual"] == 0.0


def z2_two_qubit_action(steps: list[dict]) -> str:
    """An anomaly config: Z/2 on two qubit registers whose generator is the
    given steps, as config data."""
    return yaml.safe_dump({
        "mode": "anomaly",
        "group": {"kind": "cyclic", "n": 2},
        "action": {
            "site": {"registers": [2, 2]},
            "map": [{"element": 0, "steps": []}, {"element": 1, "steps": steps}],
        },
        "output": {"json": "r.json"},
    })


def shift_data(register: int, displacement: int) -> dict:
    return {"kind": "shift", "register": register, "displacement": displacement}


def layer_data(period: int, anchor: int, span: int, unitary, registers) -> dict:
    template = {"anchor": anchor, "span": span, "unitary": matrix_to_pairs(unitary)}
    return {"kind": "layer", "period": period, "templates": [{**template, "registers": registers}]}


@pytest.mark.parametrize("k", [1, 2])
def test_conjugated_levin_gu_classifies(tmp_path, capsys, k):
    # Levin-Gu on register 0, conjugated by the shift of register 0 by +k
    # and register 1 by -k
    cz = np.diag([1, 1, 1, -1])
    steps = [
        shift_data(0, k), shift_data(1, -k),
        layer_data(1, 0, 1, np.array([[0, 1], [1, 0]]), [[0, 0]]),
        layer_data(2, 0, 2, cz, [[0, 0], [1, 0]]),
        layer_data(2, 1, 2, cz, [[0, 0], [1, 0]]),
        shift_data(0, -k), shift_data(1, k),
    ]
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(z2_two_qubit_action(steps))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "verdict: Anomalous" in capsys.readouterr().out
    assert json.loads((tmp_path / "r.json").read_text())["class"] == [1]


@pytest.mark.parametrize(
    "text, sites",
    [
        # an X layer cut to -200 .. 200
        (
            z2_qubit_action(
                "{kind: layer, period: 1, min_site: -200, max_site: 200, "
                f"templates: [{one_site_gate(0, X_PAIRS)}]}}"
            ),
            405,
        ),
        # X layers of coprime periods 97 and 89
        (
            z2_qubit_action(
                f"{{kind: layer, period: 97, templates: [{one_site_gate(0, X_PAIRS)}]}}",
                f"{{kind: layer, period: 89, templates: [{one_site_gate(0, X_PAIRS)}]}}",
            ),
            8633,
        ),
    ],
    ids=["bounded-400", "periods-97-89"],
)
def test_too_many_probe_sites_exits_2(tmp_path, capsys, text, sites):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(text)
    start = time.perf_counter()
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {sites} probe sites exceed cap 256\n"
    assert not (tmp_path / "r.json").exists()


def test_gnvw_large_displacement_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(
        "mode: gnvw\naction:\n  site: {registers: [2]}\n  steps:\n"
        "    - {kind: shift, register: 0, displacement: 10000}\n"
    )
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numeric index at radius 10000 and site dimension 2 needs a ")
    assert err.endswith("2^20000-element unit batch; cap is 64\n")


@pytest.mark.parametrize("fault", ["block", "gamma"])
def test_spectra_internal_fault_exits_3(tmp_path, monkeypatch, capsys, fault):
    # a broken internal guarantee in a spectra row fails the run; only a
    # pipeline refusal (size cap, no convergence) is recorded as row data
    if fault == "block":
        # a diagonal that differs between r and its partner r' breaks A
        real_block = spectra._momentum_block

        def broken(orb, hops, m):
            inside, block = real_block(orb, hops, m)
            if m == 1:
                block = block + sp.diags(np.linspace(0.0, 1.0, block.shape[0]))
            return inside, block

        monkeypatch.setattr(spectra, "_momentum_block", broken)
        message = "momentum sector 1: block is not real"
    else:
        # a wrong Gamma image breaks the split basis
        real_gamma = spectra._gamma_partners

        def broken(orb):
            index, shift, sign = real_gamma(orb)
            return index, shift + 1, sign

        monkeypatch.setattr(spectra, "_gamma_partners", broken)
        message = "momentum sector 1: A does not map the Gamma = 1 half to itself"
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text("mode: spectra\nspectra:\n  grid:\n    - {N: 8, terms: [h0, h1]}\n")
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


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
GATE = "{anchor: 0, span: 1, unitary: [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}"
ONSITE_MAP = (
    "mode: anomaly\ngroup: {kind: cyclic, n: 2}\naction:\n  site: {registers: [2]}\n  map: "
)
LSM_REP = "mode: anomaly\naction:\n  preset: lsm\n  rep: "


def one_layer(head="period: 1", gate=GATE):
    """A gnvw config whose one step is a layer of one gate."""
    return GNVW_SITE + "[{kind: layer, " + head + ", templates: [" + gate + "]}]\n"


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
        ("mode: cohomology\ncaps: 5\n", "caps"),
        ("mode: cohomology\noutput: 5\n", "output"),
        ("mode: cohomology\noutput: {json: 5}\n", "output.json"),
        (GNVW_SITE + "[{kind: layer, period: 1, min_site: a, templates: []}]\n",
         "action.steps[0].min_site"),
        # integers are YAML integers: never a float, a bool or a string
        (GNVW_SITE + "[{kind: shift, register: 0, displacement: 1.5}]\n",
         "action.steps[0].displacement"),
        (one_layer("period: 1.7"), "action.steps[0].period"),
        (one_layer(gate=GATE.replace("anchor: 0", "anchor: '0'")),
         "action.steps[0].templates[0].anchor"),
        (one_layer(gate=GATE.replace("span: 1", "span: true")), "action.steps[0].templates[0].span"),
        (one_layer(gate=GATE.replace("}", ", registers: [[0.5, 0]]}")),
         "action.steps[0].templates[0].registers[0][0]"),
        ("mode: cohomology\ngroup: {kind: table, table: [[0, 1], [1, 0.5]]}\n", "group.table[1][1]"),
        # a kind or a preset is a name, never a list
        (GNVW_SITE + "[{kind: [shift], register: 0, displacement: 1}]\n", "action.steps[0]"),
        ("mode: anomaly\naction: {preset: [lsm]}\n", "action.preset"),
        # a layer has at least one gate
        (GNVW_SITE + "[{kind: layer, period: 1, templates: []}]\n", "action.steps[0].templates"),
        # numbers are finite
        ("mode: spectra\nspectra: {grid: [{N: 6, J: .nan, terms: [h0, hj]}]}\n", "spectra.grid[0].J"),
        # each map element appears exactly once
        (ONSITE_MAP + "[{element: 0, steps: []}, {element: 1, steps: []}, {element: 5, steps: []}]\n",
         "action.map"),
        (ONSITE_MAP + "[{element: 0, steps: []}, {element: 0, steps: []}, {element: 1, steps: []}]\n",
         "action.map"),
        # a library refusal names the field it came from
        ("mode: gnvw\naction:\n  site: {registers: [1]}\n  steps: []\n", "action.site"),
        ("mode: cohomology\ngroup: {kind: cyclic, n: 0}\n", "group.n"),
        ("mode: cohomology\ngroup: {kind: product, factors: [2, 0]}\n", "group.factors[1]"),
        ("mode: cohomology\ngroup: {kind: cyclic, n: 2}\ndegree: 0\n", "degree"),
        (LSM_REP + "{group: {kind: cyclic, n: 2}, matrices: [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], "
         "[1.0, 0.0]], [[1.0, 0.0]]]}\n", "action.rep"),
        # a one-dimensional representation has no register to act on
        (LSM_REP + "{group: {kind: cyclic, n: 1}, matrices: [[[1, 0]]]}\n", "action.rep"),
        # spectrum_row reads the second level, and lowest_eigs gives at most 8
        ("mode: spectra\nspectra: {k: 1, grid: [{N: 4, terms: [h0]}]}\n", "spectra.k"),
        ("mode: spectra\nspectra: {k: 9, grid: [{N: 4, terms: [h0]}]}\n", "spectra.k"),
        # each form accepts only the top-level keys it reads
        ("mode: anomaly\ngroup: {kind: cyclic, n: 5}\naction: {preset: levin-gu-z2}\n", "group"),
        ("mode: spectra\ndegree: 7\n", "degree"),
        (LEVIN_GU + "spectra: {k: 3}\n", "spectra"),
        ("mode: cohomology\ngroup: {kind: cyclic, n: 2}\naction: {preset: onsite}\n", "action"),
        # two output keys that resolve to one file
        (LEVIN_GU + "output: {json: same.txt, summary: ./same.txt}\n", "output"),
    ],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, text, path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(text)
    assert cli.main(["run", str(cfg_path)]) == 1
    assert f"error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, path",
    [
        ("mode: cohomology\nbogus: 1\n", "bogus"),
        (LEVIN_GU + "caps: {den_cap: 48, window_cap: 4096, max_hint: 8}\n", "caps"),
        (LEVIN_GU + "caps: {threads: 4}\n", "caps"),
        ("mode: cohomology\noutput: {jsn: r.json}\n", "output.jsn"),
        ("mode: spectra\nspectra: {k: 2, gird: []}\n", "spectra.gird"),
        ("mode: spectra\nspectra: {grid: [{N: 6, j: 1.0}]}\n", "spectra.grid[0].j"),
        ("mode: anomaly\naction: {preset: lsm, reps: pauli}\n", "action.reps"),
        (one_layer("period: 1, min_sit: 0"), "action.steps[0].min_sit"),
        (GNVW_SITE + "[{kind: shift, register: 0, displacement: 1, period: 2}]\n",
         "action.steps[0].period"),
        (one_layer(gate=GATE.replace("}", ", regsiters: [[0, 0]]}")),
         "action.steps[0].templates[0].regsiters"),
        ("mode: cohomology\ngroup: {kind: cyclic, n: 2, m: 3}\n", "group.m"),
        ("mode: gnvw\naction:\n  site: {registers: [2], regs: [3]}\n  steps: []\n", "action.site.regs"),
        (ONSITE_MAP + "[{element: 0, steps: [], note: x}, {element: 1, steps: []}]\n",
         "action.map[0].note"),
        (LSM_REP + "{group: {kind: cyclic, n: 1}, matrices: [[[1.0, 0.0]]], name: x}\n",
         "action.rep.name"),
        # each form of action has its own keys
        ("mode: anomaly\naction: {preset: onsite, rep: pauli}\n", "action.rep"),
        ("mode: anomaly\naction: {preset: onsite, site: {registers: [3]}}\n", "action.site"),
        (LEVIN_GU + "  steps: []\n", "action.steps"),
        (LSM_REP + "pauli\n  map: []\n", "action.map"),
        (GNVW_SITE + "[]\n  preset: lsm\n", "action.preset"),
        (GNVW_SITE + "[]\n  map: []\n", "action.map"),
        (ONSITE_MAP + "[]\n  steps: []\n", "action.steps"),
        (ONSITE_MAP + "[]\n  rep: pauli\n", "action.rep"),
        # only spectra mode writes a CSV report
        ("mode: cohomology\ngroup: {kind: cyclic, n: 2}\noutput: {json: r.json, csv: r.csv}\n",
         "output.csv"),
        (LEVIN_GU + "output: {csv: r.csv}\n", "output.csv"),
    ],
)
def test_unknown_key_is_a_config_error(tmp_path, capsys, text, path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(text)
    assert cli.main(["run", str(cfg_path)]) == 1
    assert f"error: {path}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"mode: \xff\n"])
def test_unreadable_config_is_an_io_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "c.yaml"
    if content is not None:
        cfg_path.write_bytes(content)
    assert cli.main(["run", str(cfg_path)]) == IoError.exit_code
    assert f"error: cannot read config {cfg_path}:" in capsys.readouterr().err


def test_missing_out_directory_fails_before_the_pipeline(tmp_path, capsys, monkeypatch):
    def pipeline(cfg):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run", pipeline)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(SPECTRA_SMALL)
    missing = tmp_path / "nosuchdir"
    assert cli.main(["run", str(cfg_path), "--out", str(missing)]) == IoError.exit_code
    assert f"error: output directory does not exist: {missing}" in capsys.readouterr().err


def test_expr_config_roundtrip():
    # the serialized step list parsed back produces the identical step list
    cfg = cli.parse_config(CUSTOM_ONSITE)
    data = expr_to_data(cfg.action.expr(1))
    text = {"mode": "gnvw", "action": {"site": {"registers": [2]}, "steps": data}}
    again = cli.parse_config(yaml.safe_dump(text)).gnvw_expr
    assert expr_to_data(again) == data


def test_readme_config_examples_parse():
    # the stricter reader and the documented format cannot drift apart
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
    assert examples
    for text in examples:
        assert cli.parse_config(text).mode in cli.MODES


def test_shipped_configs_parse(tmp_path):
    cfg_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(cfg_dir.glob("*.yaml"))
    assert paths
    for path in paths:
        cfg = cli.parse_config(path.read_text())
        assert cfg.mode in cli.MODES
        out = tmp_path / path.stem
        out.mkdir()
        assert cli.main(["run", str(path), "--out", str(out)]) == 0, path.name


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


ROOT = Path(__file__).resolve().parent.parent


BENCHMARK_WORKLOADS = ("classify", "translation", "cohomology", "spectra")


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    """Every seed-1 config of every benchmark workload, as the benchmark
    writes it, run through the CLI front door: "workload/stem" -> (exit
    code, JSON report or None)."""
    tmp = tmp_path_factory.mktemp("benchmark")
    runs = {}
    for workload in BENCHMARK_WORKLOADS:
        subprocess.run(
            [sys.executable, str(ROOT / "clibench" / "run.py"), "--workload", workload,
             "--seed", "1", "--dump-configs", str(tmp / workload)],
            check=True, capture_output=True, cwd=ROOT, timeout=120,
        )
        written = sorted((tmp / workload).glob("*.yaml"))
        assert written, workload
        for cfg in written:
            out = tmp / "out" / workload / cfg.stem
            out.mkdir(parents=True)
            code = cli.main(["run", str(cfg), "--out", str(out)])
            report = out / yaml.safe_load(cfg.read_text())["output"]["json"]
            runs[f"{workload}/{cfg.stem}"] = (
                code, json.loads(report.read_text()) if report.exists() else None
            )
    return runs


@pytest.mark.slow
def test_benchmark_configs_run(benchmark_runs):
    """Every benchmark config exits 0, and its report's exact fields match
    its golden file, tests/golden/<workload>/<stem>.json, so a change that
    breaks the benchmark's inputs or moves an exact answer fails here."""
    assert {name: code for name, (code, _) in benchmark_runs.items() if code} == {}
    files = sorted(f"{w}/{p.stem}" for w in BENCHMARK_WORKLOADS for p in (GOLDEN / w).glob("*.json"))
    assert files == sorted(benchmark_runs)
    moved = [name for name, (_, rep) in benchmark_runs.items() if exact_fields(rep) != golden(name)]
    assert moved == []


@pytest.mark.slow
@pytest.mark.parametrize(
    "group",
    [
        ["translation/lsm_pauli", "translation/lsm_pauli_rotated", "translation/lsm_pauli_rephased"],
        ["classify/k4", "classify/k4_conj_onsite", "classify/k4_conj_twosite",
         "classify/k4_conj_onsite_rng3"],
    ],
    ids=["pauli", "k4"],
)
def test_gauges_of_one_action_print_one_report(benchmark_runs, group):
    # the same rep rotated or rephased, and the same K4 action conjugated by
    # local unitaries: one class, so the same exact fields and the same
    # diagnostics keys in every gauge
    reports = [benchmark_runs[name][1] for name in group]
    assert all(exact_fields(r) == exact_fields(reports[0]) for r in reports)
    assert all(set(r["diagnostics"]) == set(reports[0]["diagnostics"]) for r in reports)


def test_lsm_with_a_non_projective_rep_exits_2_naming_the_pair(tmp_path, capsys):
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    mats = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1]), hadamard]
    config = {
        "mode": "anomaly",
        "action": {
            "preset": "lsm",
            "rep": {
                "group": {"kind": "product", "factors": [2, 2]},
                "matrices": [matrix_to_pairs(m) for m in mats],
            },
        },
        "output": {"json": "r.json"},
    }
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "matrices at ((0,1), (1,0)) are not projective" in err
    assert not (tmp_path / "r.json").exists()


# -- a type-III anomaly of Z2^3 ------------------------------------------------------------------

PAULI_X_DATA = matrix_to_pairs(np.array([[0, 1], [1, 0]]))


def type_iii_steps(g: int) -> list[dict]:
    """The edge action of omega(a, b, c) = (-1)^(a1 b2 c3) on three qubit
    registers, for the element g = 4 g1 + 2 g2 + g3: X on register i - 1 for
    each g_i = 1, then, if g1 = 1, two brickwork layers of the diagonal gate
    (-1)^((g2 + a2)(a3 + b3)) on the slots a2, a3 of a site and b3 of the
    next."""
    bits = ((g >> 2) & 1, (g >> 1) & 1, g & 1)
    flips = [
        {"anchor": 0, "span": 1, "unitary": PAULI_X_DATA, "registers": [[0, i]]}
        for i, bit in enumerate(bits) if bit
    ]
    steps = [{"kind": "layer", "period": 1, "templates": flips}] if flips else []
    if bits[0]:
        phases = [
            (-1) ** (((bits[1] + a2) % 2) * ((a3 + b3) % 2))
            for a2 in (0, 1) for a3 in (0, 1) for b3 in (0, 1)
        ]
        gate = {"span": 2, "unitary": matrix_to_pairs(np.diag(phases)),
                "registers": [[0, 1], [0, 2], [1, 2]]}
        steps += [
            {"kind": "layer", "period": 2, "templates": [{"anchor": anchor, **gate}]}
            for anchor in (0, 1)
        ]
    return steps


def test_type_iii_anomaly_of_z2_cubed(tmp_path, capsys):
    # H^3(Z2^3, U(1)) = Z2^7. The oracle is the alternating sum
    # Omega(a, b, c) = sum over permutations s of sgn(s) omega(s(a, b, c))
    # mod 1, in which every coboundary term of an abelian group cancels
    config = {
        "mode": "anomaly",
        "group": {"kind": "product", "factors": [2, 2, 2]},
        "action": {
            "site": {"registers": [2, 2, 2]},
            "map": [{"element": g, "steps": type_iii_steps(g)} for g in range(8)],
        },
        "output": {"json": "r.json"},
    }
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "verdict: Anomalous" in capsys.readouterr().out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["invariant_factors"] == [2] * 7
    assert report["class"] == [0, 0, 0, 1, 1, 1, 1]
    assert set(report["diagnostics"]["v_windows"].values()) <= {"[]", "[0,0]"}
    # element 4 a1 + 2 a2 + a3 is named ((a1,a2),a3)
    index = {f"(({g >> 2},{(g >> 1) & 1}),{g & 1})": g for g in range(8)}
    omega = {
        tuple(index[x] for x in row["args"]): Fraction(row["phase"]) for row in report["omega"]
    }

    def alternating_sum(a, b, c):
        signs = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}
        args = (a, b, c)
        return sum(s * omega[tuple(args[i] for i in p)] for p, s in signs.items()) % 1

    e1, e2, e3 = 4, 2, 1
    assert alternating_sum(e1, e2, e3) == Fraction(1, 2)
    assert alternating_sum(e1, e1, e2) == 0
    # restricted to <g>, (-1)^(a1 b2 c3) is (-1)^(g1 g2 g3 xyz), and (-1)^(xyz)
    # generates H^3(Z2, U(1)) = Z2: so the restriction is trivial on the six
    # cyclic subgroups off the diagonal and not on <(1, 1, 1)>. The class of
    # the restriction to <g> is 2 (omega(g, 1, g) + omega(g, g, g)) mod 2
    restricted = [2 * (omega[g, 0, g] + omega[g, g, g]) % 2 for g in range(1, 8)]
    assert restricted == [0, 0, 0, 0, 0, 0, 1]
    assert exact_fields(report) == golden("cases/type_iii_z2_cubed")


def test_cohomology_degree_past_the_face_index_exits_2(tmp_path, capsys):
    # the trivial group passes MATRIX_CAP at every degree; a degree whose
    # face index numpy cannot hold is refused by name, and the largest
    # admitted degree still answers
    cfg_path = tmp_path / "c.yaml"
    text = "mode: cohomology\ngroup: {{kind: cyclic, n: 1}}\ndegree: {}\noutput: {{json: r.json}}\n"
    cfg_path.write_text(text.format(64))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: degree 64 exceeds cap {grpcoh.DEGREE_CAP}: ")
    assert not (tmp_path / "r.json").exists()
    cfg_path.write_text(text.format(grpcoh.DEGREE_CAP))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert (report["degree"], report["pretty"]) == (grpcoh.DEGREE_CAP, "trivial")
    assert f"H^{grpcoh.DEGREE_CAP} = trivial\n" in capsys.readouterr().out
