"""The benchmark's operations: one generated YAML config each, with the checks
its report must pass.

Every input is made here from the workload seed; chainomaly sees only the
YAML. An operation's check reads the report the CLI wrote and returns the
disagreements it finds with the oracles, as strings (empty when all agree).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1, -1]).astype(complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)

# Gauge-dependent phases that do not snap to a rational raise SnapFailure,
# exit code 2.
SNAP_FAILURE = r"exit code 2: .*no rational with denominator"


@dataclass(frozen=True)
class Op:
    name: str
    config: dict
    check: Callable[[dict], list[str]]
    # A fault of the program that makes this operation fail on every run: a
    # pattern every disagreement of that failure matches. Such a failure is
    # counted in `failed`, not reported as an error.
    known_fault: str | None = None
    # Name of an operation in the same round whose class this one must share.
    same_class_as: str | None = None


# -- config building blocks ---------------------------------------------------------


def pairs(mat) -> list[list[float]]:
    """Row-major [re, im] pairs, the CLI's matrix literal."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]


def layer(period: int, anchor: int, mat) -> dict:
    span = int(round(math.log2(len(mat))))
    return {
        "kind": "layer",
        "period": period,
        "templates": [{"anchor": anchor, "span": span, "unitary": pairs(mat)}],
    }


def orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random real orthogonal matrix. Real gates keep every extracted
    gauge phase at +-1, so no operation built from them meets the snapping
    fault that complex gauge phases trigger."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def ginibre_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary, QR of a complex Gaussian matrix with the phases of
    R's diagonal removed."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def out_files(csv: bool = False) -> dict:
    out = {"json": "report.json", "summary": "summary.txt"}
    if csv:
        out["csv"] = "spectra.csv"
    return out


FLIP = [layer(1, 0, PAULI_X)]
LEVIN_GU = FLIP + [layer(2, 0, CZ), layer(2, 1, CZ)]
ENTANGLER = [layer(2, 0, CZ), layer(2, 1, CZ)]
# Klein four-group Z2 x Z2 acting by identity, flip, flip-entangle and their
# product, the bare entangler; restricted to each cyclic subgroup the class
# is 0, 1 and 0.
K4_STEPS = [[], FLIP, LEVIN_GU, ENTANGLER]
K4_INVARIANTS = {1: 0, 2: 1, 3: 0}
K4 = orc.product_table(2, 2)
Z2 = orc.product_table(2)


def pauli_matrices() -> list[np.ndarray]:
    return [
        np.linalg.matrix_power(PAULI_X, a) @ np.linalg.matrix_power(PAULI_Z, b)
        for a in range(2)
        for b in range(2)
    ]


def clock_shift_matrices(p: int) -> list[np.ndarray]:
    w = cmath.exp(2j * math.pi / p)
    clock = np.diag([w**k for k in range(p)])
    shift = np.roll(np.eye(p), 1, axis=0).astype(complex)
    return [
        np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b)
        for a in range(p)
        for b in range(p)
    ]


# -- checks ---------------------------------------------------------------------


def _expect(cond: bool, msg: str, errors: list[str]) -> None:
    if not cond:
        errors.append(msg)


def _cochain(report_rows, degree: int, n: int) -> dict:
    """Phases of a reported cochain, keyed by argument tuple. Rows come in
    lexicographic order of the arguments."""
    keys = [k for k in np.ndindex(*([n] * degree))]
    if len(report_rows) != len(keys):
        raise ValueError(f"expected {len(keys)} cochain rows, got {len(report_rows)}")
    return {tuple(int(x) for x in k): orc.parse_phase(r["phase"]) for k, r in zip(keys, report_rows)}


def check_anomaly(orders: list[int], invariants: dict[int, int]) -> Callable[[dict], list[str]]:
    """Checks for an action of the product of cyclic groups of these orders;
    `invariants` gives the expected class of the restriction to <g>."""
    anomalous = any(invariants.values())
    table = orc.product_table(*orders)
    n = len(table)
    factors = orc.kunneth(orders, 3)

    def check(report: dict) -> list[str]:
        errors: list[str] = []
        omega = _cochain(report["omega"], 3, n)
        bad = orc.cocycle_defects(table, omega, 3)
        _expect(not bad, f"omega fails the 3-cocycle identity at {bad[:3]}", errors)
        for g, want in invariants.items():
            got = orc.cyclic_invariant(table, omega, g)
            _expect(got == want, f"restriction to <{g}> is {got}, expected {want}", errors)
        _expect(
            orc.same_abelian_group(report["invariant_factors"], factors),
            f"H^3 factors {report['invariant_factors']}, expected {factors}",
            errors,
        )
        verdict = "Anomalous" if anomalous else "NonAnomalous"
        _expect(report["verdict"] == verdict, f"verdict {report['verdict']}", errors)
        _expect(any(report["class"]) == anomalous, f"class {report['class']}", errors)
        return errors

    return check


def check_lsm(table, matrices, generators: list[int]) -> Callable[[dict], list[str]]:
    """The slant class must equal the projective class, and be nonzero
    exactly when the generators' commutator phase is nontrivial."""
    n = len(table)
    gens = [matrices[g] for g in generators]
    anomalous = any(
        abs(orc.commutator_phase(a, b) - 1) > 1e-9
        for i, a in enumerate(gens)
        for b in gens[i + 1 :]
    )
    orders = [orc.element_order(table, g) for g in generators]

    def check(report: dict) -> list[str]:
        errors: list[str] = []
        for key in ("slant", "projective"):
            bad = orc.cocycle_defects(table, _cochain(report[key], 2, n), 2)
            _expect(not bad, f"{key} fails the 2-cocycle identity at {bad[:3]}", errors)
        _expect(
            report["slant_class"] == report["projective_class"] and report["classes_equal"],
            f"slant class {report['slant_class']} differs from projective class "
            f"{report['projective_class']}",
            errors,
        )
        _expect(any(report["slant_class"]) == anomalous, f"slant class {report['slant_class']}", errors)
        verdict = "Anomalous" if anomalous else "NonAnomalous"
        _expect(report["verdict"] == verdict, f"verdict {report['verdict']}", errors)
        want = orc.kunneth(orders, 2)
        _expect(
            orc.same_abelian_group(report["invariant_factors"], want),
            f"H^2 factors {report['invariant_factors']}, expected {want}",
            errors,
        )
        return errors

    return check


def check_gnvw(registers: list[int], steps: list[dict]) -> Callable[[dict], list[str]]:
    want = {str(p): e for p, e in orc.shift_index(registers, steps).items()}

    def check(report: dict) -> list[str]:
        errors: list[str] = []
        sym = {p: e for p, e in report["symbolic"].items() if e}
        num = {p: e for p, e in report["numeric"].items() if e}
        _expect(sym == want, f"symbolic index {sym}, expected {want}", errors)
        _expect(num == want, f"numeric index {num}, expected {want}", errors)
        _expect(report["agree"] is True, "report says the indices disagree", errors)
        return errors

    return check


def check_cohomology(want: list[int], degree: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        got = report["invariant_factors"]
        if report["degree"] != degree or not orc.same_abelian_group(got, want):
            return [f"H^{report['degree']} factors {got}, expected {want}"]
        return []

    return check


def check_spectra(grid: list[dict], trends: dict[str, str]) -> Callable[[dict], list[str]]:
    """Energies against free fermions, the paramagnet's exact levels, the
    ground-state flip-entangle charge of the symmetric chain, and trends."""

    def check(report: dict) -> list[str]:
        errors: list[str] = []
        rows = report["rows"]
        if len(rows) != len(grid):
            return [f"{len(rows)} rows for a grid of {len(grid)}"]
        for spec, row in zip(grid, rows):
            if "error" in row:
                continue  # counted as a failed operation
            terms = spec["terms"]
            n = spec["N"]
            ref = orc.free_fermion_levels(
                n,
                field=1.0,
                cluster=1.0 if "h1" in terms else 0.0,
                ising=spec.get("J", 0.0) if "hj" in terms else 0.0,
                nlow=len(row["energies"]),
            )
            dev = max(abs(a - b) for a, b in zip(row["energies"], ref))
            _expect(dev <= 1e-8, f"N={n} {terms}: energies off free fermions by {dev:.3g}", errors)
            if terms == ["h0"]:
                _expect(abs(row["energies"][0] + n) <= 1e-8, f"N={n} h0: E0 {row['energies'][0]}", errors)
                _expect(abs(row["gap"] - 2) <= 1e-8, f"N={n} h0: gap {row['gap']}", errors)
            if terms == ["h0", "h1"]:
                re, im = row["charge"]
                _expect(
                    abs(abs(re) - 1) <= 1e-6 and abs(im) <= 1e-6,
                    f"N={n} h0+h1: ground-state charge {re}+{im}i",
                    errors,
                )
        for key, want in trends.items():
            got = report["trends"].get(key)
            _expect(got == want, f"trend {key} is {got}, expected {want}", errors)
        return errors

    return check


# -- workloads --------------------------------------------------------------------


def _k4_action(steps_per_element) -> dict:
    return {
        "mode": "anomaly",
        "group": {"kind": "product", "factors": [2, 2]},
        "action": {
            "site": {"registers": [2]},
            "map": [{"element": g, "steps": s} for g, s in enumerate(steps_per_element)],
        },
        "output": out_files(),
    }


def _conjugated_k4(w_layer: dict, w_inverse_layer: dict) -> dict:
    return _k4_action([[]] + [[w_inverse_layer] + s + [w_layer] for s in K4_STEPS[1:]])


def classify(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    u1 = orthogonal(2, rng)
    u2 = orthogonal(4, rng)
    fault_u = ginibre_unitary(2, np.random.default_rng(3))
    k4_check = check_anomaly([2, 2], K4_INVARIANTS)
    pauli_steps = [[layer(1, 0, m)] if g else [] for g, m in enumerate(pauli_matrices())]
    return [
        Op(
            "levin_gu",
            {"mode": "anomaly", "action": {"preset": "levin-gu-z2"}, "output": out_files()},
            check_anomaly([2], {1: 1}),
        ),
        Op(
            "onsite_flip",
            {"mode": "anomaly", "action": {"preset": "onsite"}, "output": out_files()},
            check_anomaly([2], {1: 0}),
        ),
        Op("k4", _k4_action(K4_STEPS), k4_check),
        Op("k4_pauli_onsite", _k4_action(pauli_steps), check_anomaly([2, 2], {1: 0, 2: 0, 3: 0})),
        Op(
            "k4_conj_onsite",
            _conjugated_k4(layer(1, 0, u1), layer(1, 0, u1.T)),
            k4_check,
            same_class_as="k4",
        ),
        Op(
            "k4_conj_twosite",
            _conjugated_k4(layer(2, 0, u2), layer(2, 0, u2.T)),
            k4_check,
            same_class_as="k4",
        ),
        Op(
            "k4_conj_onsite_rng3",
            _conjugated_k4(layer(1, 0, fault_u), layer(1, 0, fault_u.conj().T)),
            k4_check,
            known_fault=SNAP_FAILURE,
            same_class_as="k4",
        ),
    ]


def _lsm(rep) -> dict:
    return {"mode": "anomaly", "action": {"preset": "lsm", "rep": rep}, "output": out_files()}


def _matrix_rep(orders: list[int], matrices) -> dict:
    return {
        "group": {"kind": "product", "factors": orders},
        "matrices": [pairs(m) for m in matrices],
    }


def _gnvw(registers: list[int], steps: list[dict]) -> dict:
    return {
        "mode": "gnvw",
        "action": {"site": {"registers": registers}, "steps": steps},
        "output": {"json": "report.json"},
    }


def translation(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    pauli = pauli_matrices()
    o = orthogonal(2, rng)
    rotated = [o @ m @ o.T for m in pauli]
    rephased = [m * cmath.exp(1j * t) for m, t in zip(pauli, (0.0, 0.3, 1.1, 2.0))]
    clock = clock_shift_matrices(3)
    shift_steps = [{"kind": "shift", "register": 0, "displacement": 1}]
    return [
        Op("lsm_pauli", _lsm("pauli"), check_lsm(K4, pauli, [2, 1])),
        Op("lsm_linear_z2", _lsm("linear-z2"), check_lsm(Z2, [np.eye(2), PAULI_X], [1])),
        Op(
            "lsm_clock_shift3",
            _lsm(_matrix_rep([3, 3], clock)),
            check_lsm(orc.product_table(3, 3), clock, [3, 1]),
        ),
        Op("lsm_pauli_rotated", _lsm(_matrix_rep([2, 2], rotated)), check_lsm(K4, rotated, [2, 1])),
        Op(
            "lsm_pauli_rephased",
            _lsm(_matrix_rep([2, 2], rephased)),
            check_lsm(K4, rephased, [2, 1]),
            known_fault=SNAP_FAILURE,
        ),
        Op("gnvw_shift", _gnvw([2], shift_steps), check_gnvw([2], shift_steps)),
        Op("gnvw_levin_gu", _gnvw([2], LEVIN_GU), check_gnvw([2], LEVIN_GU)),
    ]


def _cohomology_op(name: str, group: dict, degree: int, want: list[int]) -> Op:
    return Op(
        name,
        {"mode": "cohomology", "group": group, "degree": degree, "output": {"json": "report.json"}},
        check_cohomology(want, degree),
    )


def cohomology(seed: int) -> list[Op]:
    del seed  # labellings stay fixed: the cost of elimination depends on them
    ops = []
    for n in (2, 3, 4, 5):
        ops.append(_cohomology_op(f"h3_z{n}", {"kind": "cyclic", "n": n}, 3, orc.kunneth([n], 3)))
    for degree, orders in ((3, [2, 2]), (2, [3, 3]), (2, [2, 2, 2]), (2, [2, 4]), (2, [2, 3])):
        name = f"h{degree}_z" + "xz".join(map(str, orders))
        ops.append(_cohomology_op(name, {"kind": "product", "factors": orders}, degree, orc.kunneth(orders, degree)))
    ops.append(_cohomology_op("h2_z8", {"kind": "cyclic", "n": 8}, 2, orc.kunneth([8], 2)))
    for degree, name, table in ((3, "S3", orc.s3_table()), (2, "S3", orc.s3_table()),
                                (2, "D8", orc.d8_table()), (2, "Q8", orc.q8_table())):
        ops.append(
            _cohomology_op(
                f"h{degree}_{name.lower()}",
                {"kind": "table", "table": table},
                degree,
                orc.TABULATED[(name, degree)],
            )
        )
    return ops


def _spectra_op(name: str, grid: list[dict], trends: dict[str, str]) -> Op:
    config = {"mode": "spectra", "spectra": {"k": 6, "grid": grid}, "output": out_files(csv=True)}
    return Op(name, config, check_spectra(grid, trends))


SYMMETRIC = "(('h0', 'h1'), 0.0, 0.0)"
ISING4 = "(('h0', 'h1', 'hj'), 4.0, 0.0)"


def spectra(seed: int) -> list[Op]:
    """The bundled default grid without its N=12 paramagnet row, and larger
    single sizes. The paramagnet alone (h0) is kept only at dense sizes: on
    the Lanczos path its N-fold first excited level is sometimes reported
    with missing copies, so an operation holding such a row would fail now
    and then."""
    del seed  # sizes and couplings set the cost; they stay fixed
    grid = [{"N": n, "terms": ["h0", "h1"]} for n in (8, 10, 12, 14)]
    grid += [{"N": n, "terms": ["h0"]} for n in (8, 10)]
    grid += [{"N": 10, "J": 4.0, "terms": ["h0", "h1", "hj"]}]
    ising = [{"N": n, "J": 4.0, "terms": ["h0", "h1", "hj"]} for n in (12, 14)]
    return [
        _spectra_op("spectra_grid", grid, {SYMMETRIC: "gapless", ISING4: "ssb"}),
        _spectra_op("spectra_h01_n16", [{"N": 16, "terms": ["h0", "h1"]}], {}),
        _spectra_op("spectra_h01_n18", [{"N": 18, "terms": ["h0", "h1"]}], {}),
        _spectra_op("spectra_ising4", ising, {ISING4: "ssb"}),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "classify": classify,
    "translation": translation,
    "cohomology": cohomology,
    "spectra": spectra,
}


def round_order(ops: list[Op], seed: int) -> list[Op]:
    """The seed also fixes the order in which a round runs its operations."""
    perm = np.random.default_rng([seed, 1]).permutation(len(ops))
    return [ops[i] for i in perm]


def read_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
