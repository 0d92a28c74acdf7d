"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget."""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from chainomaly import cli, opwin, spectra
from chainomaly import anomaly as anm
from chainomaly.grpcoh import (
    FiniteGroup,
    PhaseCochain,
    _cohomology_cached,
    class_of,
    coboundary,
    cohomology,
)
from chainomaly.opwin import SiteSpec
from chainomaly.qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    compose,
    gnvw_numeric,
    gnvw_symbolic,
)

from conftest import image, random_unitary, single_gate_expr, slot_product
from helpers_free_fermion import free_fermion_levels
from helpers_support_algebra import support_dims


@contextmanager
def criterion(num: int, desc: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: {desc}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget:
        print(f"ACCEPTANCE {num}: {desc}: FAIL (runtime {elapsed:.1f}s > {budget}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget")
    print(f"ACCEPTANCE {num}: {desc}: PASS ({elapsed:.1f}s)")


def test_criterion_1_levin_gu_pipeline():
    with criterion(1, "flip-entangle preset: V, omega, class, verdict", 10.0):
        report = anm.anomaly_class(anm.levin_gu_action())
        # obstruction unitary at the cut is the Pauli Z up to gauge
        _, vt = anm.omega_cocycle(anm.levin_gu_action())
        slots, v11 = vt.gate(1, 1)
        assert slots == (0,)
        assert np.allclose(v11, opwin.PAULI_Z, atol=1e-9)
        assert report.omega.at(1, 1, 1) == Fraction(1, 2)
        assert max(
            d["snap_error"] for d in report.diagnostics["omega"].values()
        ) < 1e-8
        assert report.cohomology.invariant_factors == (2,)
        assert report.coords.residues == (1,)
        assert report.verdict == "Anomalous"


def test_criterion_2_onsite_control():
    with criterion(2, "on-site flip control: omega = 0, NonAnomalous", 5.0):
        report = anm.anomaly_class(anm.onsite_flip_action())
        assert report.omega.is_zero()
        assert report.verdict == "NonAnomalous"


def test_criterion_3_lsm_mixed_anomaly():
    with criterion(3, "translation x projective rep: slant class = multiplier class", 60.0):
        out = anm.lsm_pipeline(anm.pauli_projective_rep())
        rho_class = class_of(
            anm.projective_cocycle(anm.pauli_projective_rep()),
            cohomology(anm.pauli_projective_rep().group, 2),
        )
        assert out.slant_class.residues == rho_class.residues
        assert out.cohomology.invariant_factors == (2,)
        assert not out.slant_class.is_trivial
        assert out.classes_equal
        linear = anm.lsm_pipeline(anm.linear_flip_rep())
        assert linear.slant_class.is_trivial


def test_criterion_4_cohomology_kernel():
    _cohomology_cached.cache_clear()
    z2 = FiniteGroup.cyclic(2)
    z2z2 = FiniteGroup.direct_product(z2, z2)
    with criterion(4, "H^3(Z/2) = Z/2 (each computation under 5 s)", 15.0):
        t0 = time.monotonic()
        assert cohomology(z2, 3).invariant_factors == (2,)
        assert time.monotonic() - t0 < 5.0
        t0 = time.monotonic()
        assert cohomology(z2, 2).is_trivial
        assert time.monotonic() - t0 < 5.0
        t0 = time.monotonic()
        h2 = cohomology(z2z2, 2)
        assert h2.invariant_factors == (2,)
        assert time.monotonic() - t0 < 5.0
        # cross-check by the projective Pauli pair
        rho = anm.projective_cocycle(anm.pauli_projective_rep())
        assert class_of(rho, h2).residues == (1,)


def _random_index_expr(rng, d: int) -> QcaExpr:
    """Layers of random 2-site gates composed with shifts; the radius is kept
    at 1 for d = 3 (the numeric unit batch grows as d^(2r))."""
    sites = SiteSpec((d,))
    steps = []
    if d == 2:
        kind = rng.integers(0, 4)
        if kind == 0:  # single 2-site layer
            steps = [BlockLayer(2, (GateTemplate(int(rng.integers(0, 2)), 2, random_unitary(4, rng)),))]
        elif kind == 1:  # two layers, radius 2
            steps = [
                BlockLayer(2, (GateTemplate(0, 2, random_unitary(4, rng)),)),
                BlockLayer(2, (GateTemplate(1, 2, random_unitary(4, rng)),)),
            ]
        elif kind == 2:  # layer composed with a unit shift
            steps = [
                BlockLayer(2, (GateTemplate(int(rng.integers(0, 2)), 2, random_unitary(4, rng)),)),
                ShiftPrimitive(0, int(rng.choice([-1, 1]))),
            ]
            rng.shuffle(steps)
        else:
            steps = [ShiftPrimitive(0, int(rng.choice([-1, 1])))]
    else:
        kind = rng.integers(0, 3)
        if kind == 0:  # single 2-site layer
            steps = [BlockLayer(2, (GateTemplate(int(rng.integers(0, 2)), 2, random_unitary(d * d, rng)),))]
        elif kind == 1:  # on-site gate layer composed with a unit shift
            steps = [
                BlockLayer(1, (GateTemplate(0, 1, random_unitary(d, rng)),)),
                ShiftPrimitive(0, int(rng.choice([-1, 1]))),
            ]
            rng.shuffle(steps)
        else:
            steps = [ShiftPrimitive(0, int(rng.choice([-1, 1])))]
    return QcaExpr(sites, tuple(steps))


def test_criterion_5_gnvw_agreement():
    with criterion(5, "numeric index = symbolic index on 55 random expressions", 120.0):
        # pinned sub-case: the unit shift at d = 2
        s2 = SiteSpec((2,))
        shift = QcaExpr(s2, (ShiftPrimitive(0, 1),))
        assert support_dims(shift) == (4, 1)
        assert gnvw_numeric(shift).as_dict() == {2: 1}
        rng = np.random.default_rng(415)
        count = 0
        for d in (2, 3):
            for _ in range(30 if d == 2 else 25):
                e = _random_index_expr(rng, d)
                assert gnvw_numeric(e) == gnvw_symbolic(e)
                count += 1
        assert count >= 50


def test_criterion_6_cocycle_robustness(rng):
    with criterion(6, "pentagon exact; restriction and gauge independence", 120.0):
        act = anm.levin_gu_action()
        G = act.group
        om, vt = anm.omega_cocycle(act)
        # post-snap cocycle identity on every quadruple, exact arithmetic
        d_om = coboundary(om)
        assert all(v == 0 for v in d_om.values)
        beta = {g: anm.restrict_right(act.expr(g)) for g in G.elements()}
        s2 = act.sites
        # >= 10 random local conjugations of the restriction
        for _ in range(10):
            U = {}
            for g in G.elements():
                lo = int(rng.integers(0, 3))
                hi = min(4, lo + int(rng.integers(0, 2)))
                slots = tuple(range(lo, hi + 1))
                U[g] = (slots, random_unitary(2 ** len(slots), rng))
            beta_t = {
                g: compose(beta[g], single_gate_expr(s2, *U[g])) for g in G.elements()
            }
            vt_t = anm.VTable(entries={}, residuals={})
            for g1 in G.elements():
                for g2 in G.elements():
                    g12 = G.mul(g1, g2)
                    left = image(beta[g1], U[g1])
                    u12_dag = (U[g12][0], U[g12][1].conj().T)
                    right = image(beta[g12], slot_product(s2, U[g2], u12_dag))
                    vt_t.entries[(g1, g2)] = slot_product(s2, left, vt.gate(g1, g2), right)
            om_t = anm.omega_from_vtable(G, beta_t, vt_t, den_cap=48)
            assert om_t.values == om.values
        # >= 10 random rephasings: exact coboundary shift, class unchanged
        H = cohomology(G, 3)
        base_class = class_of(om, H)
        for _ in range(10):
            theta = PhaseCochain.from_function(
                G, 2, lambda g, h: Fraction(int(rng.integers(0, 12)), 12)
            )
            vt2 = anm.VTable(entries={}, residuals={})
            for (g, h), (slots, mat) in vt.entries.items():
                vt2.entries[(g, h)] = (slots, np.exp(2j * np.pi * float(theta.at(g, h))) * mat)
            om2 = anm.omega_from_vtable(G, beta, vt2, den_cap=48)
            assert (om2 - om).values == coboundary(-theta).values
            assert class_of(om2, H).residues == base_class.residues


def test_criterion_7_spectral_witness():
    with criterion(7, "gapless trend, free-fermion match, strong-coupling SSB", 300.0):
        gaps = {}
        for n in (8, 10, 12, 14):
            H = spectra.build_hamiltonian(spectra.HamiltonianSpec(n))
            vals, _ = spectra.lowest_eigs(H, k=6)
            oracle = free_fermion_levels(n, nlow=6)
            assert np.max(np.abs(vals - np.array(oracle))) <= 1e-6
            gaps[n] = float(vals[1] - vals[0])
        ngaps = [n * gaps[n] for n in (8, 10, 12, 14)]
        assert max(ngaps) <= min(ngaps) * 1.15
        # strong Ising coupling: near-degenerate pair, separated second gap
        H = spectra.build_hamiltonian(
            spectra.HamiltonianSpec(10, j_coupling=4.0, terms=("h0", "h1", "hj"))
        )
        vals, _ = spectra.lowest_eigs(H, k=3)
        assert vals[1] - vals[0] < 1e-2
        assert vals[2] - vals[0] > 0.5
        # non-anomalous control stays at gap exactly 2
        for n in (8, 10, 12):
            H = spectra.build_hamiltonian(spectra.HamiltonianSpec(n, terms=("h0",)))
            vals, _ = spectra.lowest_eigs(H, k=2)
            assert abs(vals[1] - vals[0] - 2.0) <= 1e-9


def test_criterion_8_numerical_hygiene(tmp_path):
    with criterion(8, "residuals, automorphism checks, byte-stable reports", 120.0):
        # eigenpair residuals
        for spec in (spectra.HamiltonianSpec(8), spectra.HamiltonianSpec(12)):
            H = spectra.build_hamiltonian(spec)
            vals, vecs = spectra.lowest_eigs(H, k=4)
            for i in range(4):
                r = np.linalg.norm(H.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
                assert r <= 1e-7
        # automorphism checks
        for act in (anm.levin_gu_action(), anm.onsite_flip_action()):
            assert anm.verify_action(act)["max_residual"] <= 1e-9
        rep = anm.anomaly_class(anm.levin_gu_action())
        assert rep.diagnostics["max_v_residual"] <= 1e-9
        # byte-identical reports from identical runs
        cfg_text = "mode: anomaly\naction: {preset: levin-gu-z2}\n"
        blobs = []
        for tag in ("a", "b"):
            cfg = cli.parse_config(cfg_text)
            cfg.out_json = f"{tag}.json"
            result = cli.run(cfg)
            cli.emit_report(result, cfg, str(tmp_path))
            blobs.append((tmp_path / f"{tag}.json").read_bytes())
        assert blobs[0] == blobs[1]
        csv1 = spectra.rows_to_csv(spectra.gap_scan([spectra.HamiltonianSpec(8)], k=3))
        csv2 = spectra.rows_to_csv(spectra.gap_scan([spectra.HamiltonianSpec(8)], k=3))
        assert csv1 == csv2
