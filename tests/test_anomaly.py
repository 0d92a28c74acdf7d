import itertools
from fractions import Fraction

import numpy as np
import pytest

from chainomaly import qca
from chainomaly import anomaly as anm
from chainomaly.errors import (
    NotAHomomorphism,
    NotIdentityOutside,
    NotInner,
    NotProjective,
    NotScalar,
    ShiftsPresent,
    SnapFailure,
)
from chainomaly.grpcoh import (
    FiniteGroup,
    PhaseCochain,
    class_of,
    coboundary,
    cohomology,
    is_cocycle,
)
from chainomaly.opwin import PAULI_X, PAULI_Z, SiteSpec, Window
from chainomaly.qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    action_distance_on_units,
    compose,
    identity_expr,
    invert,
    matrix_unit_batch,
)

from conftest import (
    image,
    on_union,
    random_unitary,
    single_gate_expr,
    slot_distance,
    slot_product,
)

S2 = SiteSpec((2,))


# -- verify_action -----------------------------------------------------------------

def test_verify_levin_gu():
    diag = anm.verify_action(anm.levin_gu_action())
    assert diag["max_residual"] <= 1e-9


def test_verify_onsite():
    assert anm.verify_action(anm.onsite_flip_action())["max_residual"] <= 1e-9


def test_verify_rejects_broken_identity():
    act = anm.levin_gu_action()
    x_layer = QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 1, PAULI_X),)),))
    broken = anm.ActionSpec(act.group, act.sites, (x_layer, act.expr(1)))
    with pytest.raises(NotAHomomorphism):
        anm.verify_action(broken)


def test_verify_rejects_non_involution():
    # generator maps to a single spin flip composed with an entangling layer
    # that does not square to the identity
    rng = np.random.default_rng(3)
    layer = BlockLayer(2, (GateTemplate(0, 2, random_unitary(4, rng)),))
    bad = QcaExpr(S2, (layer,))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), S2, (identity_expr(S2), bad))
    with pytest.raises(NotAHomomorphism):
        anm.verify_action(act)


# -- stacking and restriction ---------------------------------------------------------

def test_stack_neutralize_zero_index_unchanged():
    act = anm.levin_gu_action()
    assert anm.stack_neutralize(act) is act


def test_pure_translation_stacks_to_swap_circuit():
    # translation acting on the doubled chain as shift x inverse-shift
    trivial_rep = anm.ProjectiveRep(FiniteGroup.trivial(), (np.eye(2, dtype=complex),))
    circ = anm.lsm_stacked_expr(trivial_rep, 0, 1)
    assert not circ.has_shifts
    assert qca.gnvw_symbolic(circ).is_zero
    s22 = SiteSpec((2, 2))
    raw = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    units = matrix_unit_batch(4)
    for j in (-1, 0, 1):
        assert action_distance_on_units(circ, raw, Window.site(j), units) <= 1e-9


def test_restrict_right_truncates_gates():
    act = anm.levin_gu_action()
    beta = anm.restrict_right(act.expr(1))
    # identity to the left of the cut
    for j in (-3, -2, -1):
        probe = ((j,), PAULI_X)
        assert slot_distance(S2, image(beta, probe), probe) <= 1e-12
    # acts like the full automorphism well to the right
    x5 = ((5,), PAULI_X)
    full = image(act.expr(1), x5)
    assert slot_distance(S2, image(beta, x5), full) <= 1e-12
    # boundary site keeps only the right bond gate
    expected = ((0, 1), np.kron(PAULI_X, PAULI_Z))
    assert slot_distance(S2, image(beta, ((0,), PAULI_X)), expected) <= 1e-12


def test_restrict_right_rejects_shifts():
    e = QcaExpr(S2, (ShiftPrimitive(0, 1),))
    with pytest.raises(ShiftsPresent):
        anm.restrict_right(e)


def test_restrict_right_onsite_layer():
    act = anm.onsite_flip_action()
    beta = anm.restrict_right(act.expr(1))
    z0 = ((0,), PAULI_Z)
    assert slot_distance(S2, image(beta, z0), ((0,), -PAULI_Z)) <= 1e-12
    zm = ((-1,), PAULI_Z)
    assert slot_distance(S2, image(beta, zm), zm) <= 1e-12


# -- extraction --------------------------------------------------------------------------

def test_extract_levin_gu_square_is_z0():
    beta = anm.restrict_right(anm.levin_gu_action().expr(1))
    (slots, mat), _ = anm._extract_once(compose(beta, beta), Window(0, 1))
    assert slots == (0,)
    assert np.allclose(mat, PAULI_Z, atol=1e-9)


def test_extract_identity():
    (slots, mat), _ = anm._extract_once(identity_expr(S2), Window(0, 1))
    assert slots == ()
    assert abs(mat[0, 0] - 1.0) <= 1e-12


def test_extract_random_gate_recovers_it(rng):
    u = random_unitary(4, rng)
    e = single_gate_expr(S2, (0, 1), u)
    gate, resid = anm._extract_search(e)
    assert resid <= 1e-9
    # same gauge normalization applied to the input reproduces it exactly
    flat = u.reshape(-1)
    idx = next(i for i in range(flat.size) if abs(flat[i]) > 0.5 / 2)
    u_gauged = u * (flat[idx].conjugate() / abs(flat[idx]))
    union, (mat, _) = on_union(S2, gate, ((0, 1), u))
    assert union == (0, 1)
    assert np.max(np.abs(mat - u_gauged)) <= 1e-9


def test_extract_rejects_non_inner():
    beta = anm.restrict_right(anm.levin_gu_action().expr(1))
    with pytest.raises((NotInner, NotIdentityOutside)):
        anm._extract_search(beta, max_hint=4)


def test_vtable_invariant_levin_gu():
    act = anm.levin_gu_action()
    om, vt = anm.omega_cocycle(act)
    G = act.group
    beta = {g: anm.restrict_right(act.expr(g)) for g in G.elements()}
    units = matrix_unit_batch(2)
    for (g, h), gate in vt.entries.items():
        target = compose(beta[g], compose(beta[h], invert(beta[G.mul(g, h)])))
        conj = single_gate_expr(S2, *gate)
        for j in (0, 1, 2):
            assert action_distance_on_units(target, conj, Window.site(j), units) <= 1e-9


# -- the degree-3 cocycle -------------------------------------------------------------------

def test_omega_levin_gu_values():
    # hand-composed expectation: V(-1,-1) = Z0, other V = 1, and the restricted
    # automorphism flips the sign of Z0, so the only nonzero value is
    # Z0 * 1 * 1 * (-Z0)^{-1} = -1, a half turn at (-1,-1,-1)
    act = anm.levin_gu_action()
    om, vt = anm.omega_cocycle(act)
    for t in itertools.product(range(2), repeat=3):
        expect = Fraction(1, 2) if t == (1, 1, 1) else Fraction(0)
        assert om.at(*t) == expect
    assert max(d["snap_error"] for d in vt.omega_diagnostics.values()) < 1e-8


def test_omega_onsite_trivial():
    om, _ = anm.omega_cocycle(anm.onsite_flip_action())
    assert om.is_zero()


def test_omega_rephasing_shifts_by_coboundary(rng):
    act = anm.levin_gu_action()
    G = act.group
    om, vt = anm.omega_cocycle(act)
    beta = {g: anm.restrict_right(act.expr(g)) for g in G.elements()}
    for _ in range(3):
        theta = PhaseCochain.from_function(
            G, 2, lambda g, h: Fraction(int(rng.integers(0, 8)), 8)
        )
        vt2 = anm.VTable(entries={}, residuals={})
        for (g, h), (slots, mat) in vt.entries.items():
            phase = np.exp(2j * np.pi * float(theta.at(g, h)))
            vt2.entries[(g, h)] = (slots, phase * mat)
        om2 = anm.omega_from_vtable(G, beta, vt2, den_cap=48)
        diff = om2 - om
        # with the alternating-sum orientation the shift is d(-theta)
        assert diff.values == coboundary(-theta).values
        H = cohomology(G, 3)
        assert class_of(om2, H).residues == class_of(om, H).residues


def test_omega_beta_independence_exact(rng):
    # replacing the restriction by its composition with a local conjugation,
    # with the obstruction unitaries transported accordingly, reproduces the
    # cocycle value for value
    act = anm.levin_gu_action()
    G = act.group
    om0, vt0 = anm.omega_cocycle(act)
    beta = {g: anm.restrict_right(act.expr(g)) for g in G.elements()}
    for _ in range(3):
        U = {}
        for g in G.elements():
            lo = int(rng.integers(0, 3))
            hi = min(4, lo + int(rng.integers(0, 2)))
            slots = tuple(range(lo, hi + 1))
            U[g] = (slots, random_unitary(2 ** len(slots), rng))
        beta_t = {
            g: compose(beta[g], single_gate_expr(S2, *U[g])) for g in G.elements()
        }
        vt_t = anm.VTable(entries={}, residuals={})
        for g1 in G.elements():
            for g2 in G.elements():
                g12 = G.mul(g1, g2)
                left = image(beta[g1], U[g1])
                u12_dag = (U[g12][0], U[g12][1].conj().T)
                right = image(beta[g12], slot_product(S2, U[g2], u12_dag))
                vt_t.entries[(g1, g2)] = slot_product(S2, left, vt0.gate(g1, g2), right)
        om_t = anm.omega_from_vtable(G, beta_t, vt_t, den_cap=48)
        assert om_t.values == om0.values


def test_non_scalar_associator_names_the_tuple():
    # V(-1,-1) = Z0 times X0: beta_(-1) maps it to a product that leaves
    # Z1 behind, so omega(-1,-1,-1) is not a multiple of the identity
    act = anm.levin_gu_action()
    G = act.group
    _, vt = anm.omega_cocycle(act)
    beta = {g: anm.restrict_right(act.expr(g)) for g in G.elements()}
    vt.entries[(1, 1)] = slot_product(S2, ((0,), PAULI_X), vt.entries[(1, 1)])
    with pytest.raises(NotScalar, match=r"omega\(-1, -1, -1\): product is not"):
        anm.omega_from_vtable(G, beta, vt, den_cap=48)


def test_omega_pentagon_exact():
    om, _ = anm.omega_cocycle(anm.levin_gu_action())
    assert is_cocycle(om)
    assert coboundary(om).is_zero()


# -- full pipeline --------------------------------------------------------------------------

def test_anomaly_class_levin_gu():
    rep = anm.anomaly_class(anm.levin_gu_action())
    assert rep.verdict == "Anomalous"
    assert rep.cohomology.invariant_factors == (2,)
    assert rep.coords.residues == (1,)
    assert not rep.stacked
    assert all(pl.is_zero for pl in rep.gnvw.values())


def test_anomaly_class_onsite_control():
    rep = anm.anomaly_class(anm.onsite_flip_action())
    assert rep.verdict == "NonAnomalous"
    assert rep.coords.is_trivial


def test_verdict_matches_class():
    for act in (anm.levin_gu_action(), anm.onsite_flip_action()):
        rep = anm.anomaly_class(act)
        assert (rep.verdict == "Anomalous") == (not rep.coords.is_trivial)


def test_report_json_schema():
    rep = anm.anomaly_class(anm.levin_gu_action())
    d = rep.as_json_dict()
    assert set(d) == {
        "gnvw",
        "stacked",
        "omega",
        "invariant_factors",
        "class",
        "verdict",
        "diagnostics",
    }
    assert d["invariant_factors"] == [2]
    assert d["class"] == [1]
    row = next(r for r in d["omega"] if r["args"] == ["-1", "-1", "-1"])
    assert row["phase"] == "1/2"


def _lift_levin_gu_with_trivial_factor() -> anm.ActionSpec:
    # the same action on the first register of a doubled chain, identity on
    # the second: stacking with a trivially acting factor
    s22 = SiteSpec((2, 2))
    act = anm.levin_gu_action()
    steps = []
    for step in act.expr(1).steps:
        steps.append(anm._lift_step_to_double(step, 1))
    gamma2 = QcaExpr(s22, tuple(steps))
    return anm.ActionSpec(act.group, s22, (identity_expr(s22), gamma2))


def test_stacking_with_trivial_factor_preserves_class():
    stacked = _lift_levin_gu_with_trivial_factor()
    rep = anm.anomaly_class(stacked)
    base = anm.anomaly_class(anm.levin_gu_action())
    assert rep.coords.residues == base.coords.residues
    assert rep.omega.values == base.omega.values


# -- projective representations ----------------------------------------------------------------

def test_pauli_multiplier_values():
    rep = anm.pauli_projective_rep()
    rho = anm.projective_cocycle(rep)
    G = rep.group
    # labels: (a, b) -> a*2 + b; direct 2x2 products pin the phases
    xa, zb = 2, 1  # (1,0) and (0,1)
    assert rho.at(xa, zb) == 0
    assert rho.at(zb, xa) == Fraction(1, 2)
    assert is_cocycle(rho)


def test_linear_rep_trivial_multiplier():
    rho = anm.projective_cocycle(anm.linear_flip_rep())
    assert rho.is_zero()


def test_pauli_multiplier_class_nonzero():
    rep = anm.pauli_projective_rep()
    rho = anm.projective_cocycle(rep)
    H = cohomology(rep.group, 2)
    assert H.invariant_factors == (2,)
    assert class_of(rho, H).residues == (1,)


def test_not_projective_detected():
    G = FiniteGroup.cyclic(2)
    mats = (np.eye(2, dtype=complex), np.diag([1.0, 1j]))  # order 4, not 2
    rep = anm.ProjectiveRep(G, mats)
    with pytest.raises(NotProjective, match=r"matrices at \(1, 1\) are not projective"):
        anm.projective_cocycle(rep)


def test_snap_failures_name_the_failing_tuple():
    # omega(-1,-1,-1) = 1/2 and rho(X, Z) = 1/2 have no denominator-1 rational
    with pytest.raises(
        SnapFailure, match=r"omega\(-1, -1, -1\): no rational with denominator <= 1"
    ):
        anm.anomaly_class(anm.levin_gu_action(), den_cap=1)
    with pytest.raises(
        SnapFailure, match=r"multiplier at \(\(0,1\), \(1,0\)\): no rational with denominator"
    ):
        anm.projective_cocycle(anm.pauli_projective_rep(), den_cap=1)


# -- the mixed anomaly --------------------------------------------------------------------------

def test_lsm_pauli_slant_equals_multiplier_class():
    out = anm.lsm_pipeline(anm.pauli_projective_rep())
    assert out.classes_equal
    assert not out.slant_class.is_trivial
    assert out.verdict == "Anomalous"
    assert out.cohomology.invariant_factors == (2,)


def test_lsm_linear_rep_trivial():
    out = anm.lsm_pipeline(anm.linear_flip_rep())
    assert out.slant_class.is_trivial
    assert out.verdict == "NonAnomalous"


def test_lsm_obstruction_is_projective_matrix_on_one_site():
    # V((g,0),(e,1)) acts on the first register of a single site near the cut
    # as the projective matrix of g; the uniform gate truncation keeps the
    # on-site swap at the cut, which parks the obstruction on site 0
    rep = anm.pauli_projective_rep()
    G0 = rep.group
    beta = {}
    for g in G0.elements():
        for n in range(3):
            beta[(g, n)] = anm.restrict_right(anm.lsm_stacked_expr(rep, g, n))
    g = 2  # the (1,0) element, matrix X
    a, b = (g, 0), (0, 1)
    ab = (g, 1)
    ev = compose(beta[a], compose(beta[b], invert(beta[ab])))
    gate, _ = anm._extract_search(ev)
    assert qca._site_span(SiteSpec((2, 2)), gate[0]) == Window(0, 0)
    expected = np.kron(PAULI_X, np.eye(2))
    # same gauge rule applied to the expected matrix
    flat = expected.reshape(-1)
    idx = next(i for i in range(flat.size) if abs(flat[i]) > 0.5 / 2)
    expected = expected * (flat[idx].conjugate() / abs(flat[idx]))
    _, (mat, _) = on_union(SiteSpec((2, 2)), gate, ((0, 1), expected))
    assert np.max(np.abs(mat - expected)) <= 1e-9


def test_lsm_stacked_expr_balances_the_whole_action():
    # the translation circuit balanced on its own, with the on-site layer in
    # front, is step for step the balancing of layer + shifts together
    rep = anm.pauli_projective_rep()
    sites2 = SiteSpec((2, 2))
    for g in rep.group.elements():
        for n in (1, 2):
            layer = BlockLayer(1, (GateTemplate(0, 1, rep.matrices[g], registers=((0, 0),)),))
            steps = ((layer,) if g else ()) + (ShiftPrimitive(0, n), ShiftPrimitive(1, -n))
            whole = qca.balance_shifts(QcaExpr(sites2, steps))
            assert qca.expr_to_data(anm.lsm_stacked_expr(rep, g, n)) == qca.expr_to_data(whole)


def test_lsm_balances_each_translation_once(monkeypatch):
    calls = []

    def counting(expr, *args, **kw):
        calls.append(expr)
        return qca.balance_shifts(expr, *args, **kw)

    monkeypatch.setattr(anm, "balance_shifts", counting)
    out = anm.lsm_pipeline(anm.clock_shift_rep(3))
    assert out.classes_equal
    assert len(calls) == 2


@pytest.mark.slow
def test_lsm_clock_shift_order_three():
    out = anm.lsm_pipeline(anm.clock_shift_rep(3))
    assert out.classes_equal
    assert out.cohomology.invariant_factors == (3,)
    assert not out.slant_class.is_trivial
    triple = out.slant_class + out.slant_class + out.slant_class
    assert triple.is_trivial


def test_conjugated_action_same_class(rng):
    # conjugating the whole action by a local unitary near the cut leaves the
    # class (and here even the snapped cocycle) unchanged
    act = anm.levin_gu_action()
    wexpr = single_gate_expr(S2, (0, 1), random_unitary(4, rng))
    conj = compose(wexpr, compose(act.expr(1), invert(wexpr)))
    act2 = anm.ActionSpec(act.group, S2, (identity_expr(S2), conj))
    base = anm.anomaly_class(act)
    moved = anm.anomaly_class(act2)
    assert moved.coords.residues == base.coords.residues
    assert moved.omega.values == base.omega.values


def _onsite_action(rep: anm.ProjectiveRep) -> anm.ActionSpec:
    sites = SiteSpec((rep.dimension,))
    exprs = []
    for g in rep.group.elements():
        if g == 0:
            exprs.append(identity_expr(sites))
        else:
            layer = BlockLayer(1, (GateTemplate(0, 1, rep.matrices[g]),))
            exprs.append(QcaExpr(sites, (layer,)))
    return anm.ActionSpec(rep.group, sites, tuple(exprs))


def test_onsite_projective_action_not_anomalous():
    # without translation even a projective on-site action has trivial index:
    # the multiplier phases cancel inside the conjugations
    rep = anm.anomaly_class(_onsite_action(anm.pauli_projective_rep()))
    assert rep.omega.is_zero()
    assert rep.verdict == "NonAnomalous"
    assert rep.cohomology.invariant_factors == (2, 2, 2)


def test_k4_action_functorial_restrictions():
    # order-two flip and flip-entangle generators commute, giving a
    # Klein-four action; restricting the degree-3 cocycle to each cyclic
    # subgroup reproduces that subgroup's own class
    act = anm.levin_gu_action()
    gamma = act.expr(1)
    flip = anm.onsite_flip_action().expr(1)
    K4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    exprs = (identity_expr(S2), flip, gamma, compose(gamma, flip))
    spec = anm.ActionSpec(K4, S2, exprs)
    rep = anm.anomaly_class(spec)
    assert rep.verdict == "Anomalous"
    assert rep.cohomology.invariant_factors == (2, 2, 2)
    Z2 = FiniteGroup.cyclic(2)
    H3 = cohomology(Z2, 3)

    def restriction(stride):
        return PhaseCochain.from_function(
            Z2, 3, lambda a, b, c: rep.omega.at(stride * a, stride * b, stride * c)
        )

    assert class_of(restriction(2), H3).residues == (1,)  # flip-entangle subgroup
    assert class_of(restriction(1), H3).residues == (0,)  # bare flip subgroup
    assert class_of(restriction(3), H3).residues == (0,)  # pure entangler subgroup


def test_inner_action_not_anomalous(rng):
    # conjugation by a fixed local order-two unitary is an inner action
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    evals, evecs = np.linalg.eigh(h)
    w = evecs @ np.diag(np.where(evals > np.median(evals), 1.0, -1.0)) @ evecs.conj().T
    act = anm.ActionSpec(
        FiniteGroup.cyclic(2),
        S2,
        (identity_expr(S2), single_gate_expr(S2, (0, 1, 2), w)),
    )
    rep = anm.anomaly_class(act)
    assert rep.verdict == "NonAnomalous"
    assert rep.omega.is_zero()


def test_stack_neutralize_rejects_fake_shift_action():
    # finite order forces zero shift content, so a generator mapped to a bare
    # shift cannot be a homomorphism; the doubled rebuild (lift, opposite
    # copy shifts, swap circuitization) runs and then detects the defect
    act = anm.ActionSpec(
        FiniteGroup.cyclic(2),
        S2,
        (identity_expr(S2), QcaExpr(S2, (ShiftPrimitive(0, 1),))),
    )
    with pytest.raises(NotAHomomorphism):
        anm.stack_neutralize(act)
