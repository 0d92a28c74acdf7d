import functools
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chainomaly import _tensors as tz
from chainomaly import cli, qca
from chainomaly import anomaly as anm
from chainomaly.errors import (
    NotAHomomorphism,
    NotProjective,
    NotScalar,
    ShiftsPresent,
    WindowCapExceeded,
)
from chainomaly.grpcoh import (
    FiniteGroup,
    PhaseCochain,
    bockstein_class,
    cohomology,
)
from chainomaly.opwin import PAULI_X, PAULI_Z, SiteSpec
from chainomaly.qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    column_units,
    compose,
    identity_expr,
    invert,
    matrix_unit_batch,
)

import helpers_probe
from conftest import (
    image,
    on_union,
    random_unitary,
    single_gate_expr,
    slot_distance,
    slot_product,
)
from helpers_cochain import (
    class_of_by_fractions,
    coboundary,
    cochain_from_function,
    cochain_neg,
    coords_add,
    is_cocycle,
    is_zero,
    max_turn_distance,
)
from helpers_edge import edge_action
from helpers_reps import clock_shift_rep
from helpers_serialize import expr_to_data

S2 = SiteSpec((2,))


def lsm_stacked_expr(rep: anm.ProjectiveRep, g: int, n: int) -> QcaExpr:
    """Action of (g, n) on the doubled chain: the on-site projective layer on
    the first register, then translation by n (the second copy shifted by -n)
    balanced into a swap circuit."""
    sites2 = SiteSpec((rep.dimension,) * 2)
    out = identity_expr(sites2)
    if n:
        out = qca.balance_shifts(QcaExpr(sites2, (ShiftPrimitive(0, n), ShiftPrimitive(1, -n))))
    if g:
        layer = BlockLayer(1, (GateTemplate(0, 1, rep.matrices[g], registers=((0, 0),)),))
        out = qca.compose(out, QcaExpr(sites2, (layer,)))
    return out


def lsm_pipeline_beta(monkeypatch, rep: anm.ProjectiveRep) -> dict:
    """The restricted circuits lsm_pipeline builds, captured off its VTable."""
    tables, real = [], anm.VTable

    def spy(beta, *args):
        tables.append(real(beta, *args))
        return tables[-1]

    monkeypatch.setattr(anm, "VTable", spy)
    anm.lsm_pipeline(rep)
    (table,) = tables
    return table.beta


# -- verify_action -----------------------------------------------------------------

def naive_homomorphism_residual(spec: anm.ActionSpec) -> float:
    """verify_action's residual computed pair by pair: compose(e_g, e_h)
    against e_gh, and the identity element's expression against the identity,
    at every probe site."""
    G = spec.group
    r = max(max(qca.radius(e) for e in spec.exprs), 1)
    units = column_units(spec.sites.dim)

    def dist(e1, e2):
        return max(
            helpers_probe.action_distance(e1, e2, range(j, j + 1), units)
            for j in range(-(r + 1), r + 1)
        )

    worst = dist(spec.expr(0), identity_expr(spec.sites))
    for g, h in itertools.product(G.elements(), repeat=2):
        worst = max(worst, dist(compose(spec.expr(g), spec.expr(h)), spec.expr(G.mul(g, h))))
    return worst


def k4_action() -> anm.ActionSpec:
    """The Klein-four action by identity, flip, flip-entangle and both."""
    gamma = anm.levin_gu_action().expr(1)
    flip = anm.onsite_flip_action().expr(1)
    K4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    return anm.ActionSpec(K4, S2, (identity_expr(S2), flip, gamma, compose(gamma, flip)))


def k4_conjugated(seed: int, span: int) -> anm.ActionSpec:
    """k4_action conjugated by a seeded real orthogonal layer of gates on
    `span` sites."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2 ** span, 2 ** span)))
    w = q * np.sign(np.diag(r))
    w_layer, w_inverse = (BlockLayer(span, (GateTemplate(0, span, m),)) for m in (w, w.T))
    base = k4_action()
    exprs = [base.expr(0)] + [
        QcaExpr(S2, (w_inverse,) + e.steps + (w_layer,)) for e in base.exprs[1:]
    ]
    return anm.ActionSpec(base.group, S2, tuple(exprs))


def k4_conjugated_twosite(seed: int) -> anm.ActionSpec:
    return k4_conjugated(seed, 2)


def s3_permutation_action() -> anm.ActionSpec:
    """S3 permuting the basis states of a qutrit on every site: an action of
    a non-abelian group."""
    perms = list(itertools.permutations(range(3)))
    table = tuple(tuple(perms.index(tuple(a[i] for i in b)) for b in perms) for a in perms)
    sites = SiteSpec((3,))
    exprs = [identity_expr(sites)] + [
        QcaExpr(sites, (BlockLayer(1, (GateTemplate(0, 1, np.eye(3)[:, p]),)),))
        for p in perms[1:]
    ]
    return anm.ActionSpec(FiniteGroup(table), sites, tuple(exprs))


def test_verify_levin_gu():
    assert anm.verify_action(anm.levin_gu_action()) <= 1e-9


def test_verify_onsite():
    assert anm.verify_action(anm.onsite_flip_action()) <= 1e-9


@pytest.mark.parametrize(
    "make",
    [
        anm.levin_gu_action,
        anm.onsite_flip_action,
        lambda: k4_conjugated_twosite(11),
        s3_permutation_action,
    ],
    ids=["levin-gu", "onsite", "k4-conj-twosite", "s3-permutations"],
)
def test_verify_matches_pairwise_reference(make):
    # images reused per element give exactly the pairwise compose residual
    spec = make()
    assert anm.verify_action(spec) == naive_homomorphism_residual(spec)


def test_verify_refuses_a_map_wrong_off_the_generators():
    # K4 is generated by the flip and gamma; mapping gamma * flip to gamma
    # breaks only an element outside that set, and the pair (flip, gamma),
    # whose product it is, is refused
    act = k4_action()
    broken = anm.ActionSpec(act.group, act.sites, (*act.exprs[:3], act.expr(2)))
    with pytest.raises(NotAHomomorphism, match=r"^pair \(\(0,1\), \(1,0\)\) violates"):
        anm.verify_action(broken)


def test_verify_rejects_broken_identity():
    act = anm.levin_gu_action()
    x_layer = QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 1, PAULI_X),)),))
    broken = anm.ActionSpec(act.group, act.sites, (x_layer, act.expr(1)))
    with pytest.raises(NotAHomomorphism, match="identity element acts nontrivially"):
        anm.verify_action(broken)


def test_verify_rejects_non_involution():
    # generator maps to a single spin flip composed with an entangling layer
    # that does not square to the identity; (1, 1) is the first failing pair
    rng = np.random.default_rng(3)
    layer = BlockLayer(2, (GateTemplate(0, 2, random_unitary(4, rng)),))
    bad = QcaExpr(S2, (layer,))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), S2, (identity_expr(S2), bad))
    with pytest.raises(NotAHomomorphism, match=r"pair \(1, 1\) violates"):
        anm.verify_action(act)


def test_verify_rejects_a_diagonal_gate_that_squares_to_z():
    # conjugation by diag(1, i) fixes every diagonal unit, but twice it is
    # conjugation by Z, which sends |1><0| to -|1><0|
    gate = QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 1, np.diag([1, 1j])),)),))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), S2, (identity_expr(S2), gate))
    with pytest.raises(NotAHomomorphism, match=r"pair \(1, 1\) violates"):
        anm.verify_action(act)


def test_a_failed_homomorphism_check_names_its_site_and_register():
    shift = QcaExpr(S2, (ShiftPrimitive(0, 1),))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), S2, (identity_expr(S2), shift))
    with pytest.raises(NotAHomomorphism) as err:
        anm.verify_action(act)
    assert str(err.value) == (
        "pair (1, 1) violates the homomorphism property at site 0, register 0 (residual 2)"
    )
    # on a qubit and a qutrit register, a qutrit 3-cycle at the odd sites
    # does not square to the identity
    s23 = SiteSpec((2, 3))
    cycle = np.eye(3)[:, [1, 2, 0]]
    gen = QcaExpr(s23, (BlockLayer(2, (GateTemplate(1, 1, cycle, ((0, 1),)),)),))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), s23, (identity_expr(s23), gen))
    with pytest.raises(NotAHomomorphism, match=r"^pair \(1, 1\) .* at site 1, register 1 \("):
        anm.verify_action(act)
    act = anm.ActionSpec(FiniteGroup.cyclic(2), s23, (gen, identity_expr(s23)))
    with pytest.raises(
        NotAHomomorphism, match=r"^identity element acts nontrivially at site 1, register 1 \("
    ):
        anm.verify_action(act)


def test_verify_runs_register_units_only(monkeypatch):
    # a (2, 2, 2) site is probed with 2 + 2 + 2 register units, not 8
    sizes, run = [], anm._run_batch

    def counting_run(expr, slots, mats):
        sizes.append(len(mats))
        return run(expr, slots, mats)

    monkeypatch.setattr(anm, "_run_batch", counting_run)
    anm.verify_action(type_iii_action())
    assert sizes and set(sizes) == {6}


def _z2_action(*layers: BlockLayer) -> anm.ActionSpec:
    """Z/2 whose generator is the given layers, in order, on qubits."""
    gen = QcaExpr(S2, layers)
    return anm.ActionSpec(FiniteGroup.cyclic(2), S2, (identity_expr(S2), gen))


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize(
    "make",
    [
        # X at sites 0 mod 10 and diag(1, i) at 5 mod 10: squared, it is
        # conjugation by Z on the sites 5 mod 10 only
        lambda: _z2_action(
            BlockLayer(10, (GateTemplate(0, 1, PAULI_X), GateTemplate(5, 1, np.diag([1, 1j]))))
        ),
        # X everywhere, then a Hadamard on the sites >= 3 only
        lambda: _z2_action(
            BlockLayer(1, (GateTemplate(0, 1, PAULI_X),)),
            BlockLayer(1, (GateTemplate(0, 1, HADAMARD),), min_site=3),
        ),
    ],
    ids=["period-10", "min-site-3"],
)
def test_verify_probes_a_full_period_and_every_bound(make):
    # neither defect lies on the sites -2 .. 1 of the radius-1 window
    with pytest.raises(NotAHomomorphism, match=r"pair \(1, 1\) violates"):
        anm.verify_action(make())


def _swap_then_shift(k: int) -> anm.ActionSpec:
    """Z/2 on two qubit registers by _swap_and_shift(0, 1, k), a
    homomorphism of radius k."""
    s22 = SiteSpec((2, 2))
    gen = QcaExpr(s22, tuple(_swap_and_shift(0, 1, k)))
    return anm.ActionSpec(FiniteGroup.cyclic(2), s22, (identity_expr(s22), gen))


@pytest.mark.parametrize(
    "make, sites",
    [
        # an X layer cut to -200 .. 200: the zone within reach 1 and a
        # period of its bounds runs from -202 to 202
        (
            lambda: _z2_action(
                BlockLayer(1, (GateTemplate(0, 1, PAULI_X),), min_site=-200, max_site=200)
            ),
            405,
        ),
        # X layers of coprime periods 97 and 89 repeat only every 8633 sites
        (
            lambda: _z2_action(
                BlockLayer(97, (GateTemplate(0, 1, PAULI_X),)),
                BlockLayer(89, (GateTemplate(0, 1, PAULI_X),)),
            ),
            8633,
        ),
    ],
    ids=["bounded-400", "periods-97-89"],
)
def test_verify_refuses_too_many_probe_sites(make, sites):
    act = make()
    start = time.perf_counter()
    with pytest.raises(WindowCapExceeded, match=rf"^{sites} probe sites exceed cap 256$"):
        anm.verify_action(act)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [100, 1000])
def test_verify_decides_a_long_shift_on_one_site(k):
    # the layers have period 1, so one probe site decides the chain
    act = _swap_then_shift(k)
    start = time.perf_counter()
    assert anm.verify_action(act) <= 1e-9
    assert time.perf_counter() - start < 0.1


def test_swap_then_shift_by_100_classifies_fast():
    # the balanced shift is one swap circuit of span 101, not 200 unit layers
    start = time.perf_counter()
    assert anm.anomaly_class(_swap_then_shift(100)).coords.residues == (0,)
    assert time.perf_counter() - start < 1.0


def test_swap_then_shift_by_1000_classifies_fast():
    # each gate lookup finds the translates of the span-1001 swap gate from
    # the batch's slots, not by walking the 1001 translates that could reach
    start = time.perf_counter()
    assert anm.anomaly_class(_swap_then_shift(1000)).coords.residues == (0,)
    assert time.perf_counter() - start < 2.0


def _random_onsite_layer(rng, sites: SiteSpec, involution: bool) -> BlockLayer:
    """One one-site gate of period 1 to 4 at a random anchor: a random
    unitary, or a random involution V diag(+-1) V^+."""
    u = random_unitary(sites.dim, rng)
    if involution:
        u = (u * rng.choice([1.0, -1.0], size=sites.dim)) @ u.conj().T
    period = int(rng.integers(1, 5))
    return BlockLayer(period, (GateTemplate(int(rng.integers(0, period)), 1, u),))


@given(
    seed=st.integers(0, 10 ** 6),
    registers=st.sampled_from([(2,), (2, 2), (2, 3)]),
    involution=st.booleans(),
    shifts=st.booleans(),
)
def test_verify_on_one_period_agrees_with_a_wide_brute_force(seed, registers, involution, shifts):
    # the brute force checks every element pair on sites -3P - 2r .. 3P + 2r,
    # with the column units of the whole site, the other generating set
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    steps = [_random_onsite_layer(rng, sites, involution) for _ in range(int(rng.integers(1, 4)))]
    if shifts:
        for sign in (1, -1):
            reg = int(rng.integers(0, len(registers)))
            steps.insert(int(rng.integers(0, len(steps) + 1)), ShiftPrimitive(reg, sign))
    G = FiniteGroup.cyclic(2)
    act = anm.ActionSpec(G, sites, (identity_expr(sites), QcaExpr(sites, tuple(steps))))
    P = math.lcm(*(s.period for s in steps if isinstance(s, BlockLayer)))
    r = qca.radius(act.expr(1))
    units = column_units(sites.dim)
    pairs = [(identity_expr(sites), act.expr(0))] + [
        (compose(act.expr(g), act.expr(h)), act.expr(G.mul(g, h)))
        for g, h in itertools.product(G.elements(), repeat=2)
    ]
    brute = 0.0
    for j in range(-3 * P - 2 * r, 3 * P + 2 * r + 1):
        brute = max(brute, *(helpers_probe.action_distance(a, b, range(j, j + 1), units)
                             for a, b in pairs))
        if brute > 1e-9:
            break
    if brute > 1e-9:
        with pytest.raises(NotAHomomorphism):
            anm.verify_action(act)
    else:
        assert anm.verify_action(act) == pytest.approx(brute, abs=1e-12)


# -- shift content and restriction -----------------------------------------------------

def _power_action(group: FiniteGroup, sites: SiteSpec, steps) -> anm.ActionSpec:
    """Element k acts by `steps` repeated k times."""
    return anm.ActionSpec(
        group, sites, tuple(QcaExpr(sites, tuple(steps) * k) for k in group.elements())
    )


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize(
    "registers, shifts",
    [((2,), ((0, 1),)), ((3,), ((0, 1),)), ((2, 3), ((0, 1), (1, -1)))],
    ids=["qubit", "qutrit", "opposite_2_3"],
)
def test_anomaly_class_refuses_nonzero_index(order, registers, shifts):
    # the shift index is a homomorphism into the torsion-free positive
    # rationals, so a finite group cannot act with a nonzero index: some
    # product of k-fold shifts breaks the group law
    sites = SiteSpec(registers)
    act = _power_action(FiniteGroup.cyclic(order), sites, [ShiftPrimitive(r, n) for r, n in shifts])
    assert qca.gnvw_symbolic(act.expr(1)) != 1
    with pytest.raises(NotAHomomorphism, match=r"pair \(\d+, \d+\) violates"):
        anm.anomaly_class(act)


SWAP2 = tz.factor_swap_matrix((2, 2), 0, 1)


def _swap_and_shift(a: int, b: int, k: int = 1) -> list:
    """Swap registers a and b on every site, then shift a by +k and b by -k."""
    swap = BlockLayer(1, (GateTemplate(0, 1, SWAP2, registers=((0, a), (0, b))),))
    return [swap, ShiftPrimitive(a, k), ShiftPrimitive(b, -k)]


def _levin_gu_on_register_0() -> list:
    """The Levin-Gu generator's layers acting on register 0 alone."""
    cz = ((0, 0), (1, 0))
    return [
        BlockLayer(1, (GateTemplate(0, 1, PAULI_X, registers=((0, 0),)),)),
        BlockLayer(2, (GateTemplate(0, 2, anm.CZ_GATE, registers=cz),)),
        BlockLayer(2, (GateTemplate(1, 2, anm.CZ_GATE, registers=cz),)),
    ]


@pytest.mark.parametrize(
    "registers, steps, residues",
    [
        # the generator maps qubit (j, 0) to (j - 1, 1) and (j, 1) to (j + 1, 0):
        # it permutes equal-dimension factors in pairs, so grouping each pair
        # into one site makes it on-site, and its class is 0
        ((2, 2), _swap_and_shift(0, 1), (0,)),
        # Levin-Gu on register 0 and the swap-and-shift on registers 1 and 2
        # act on disjoint registers, so their classes add: 1 + 0 = 1
        ((2, 2, 2), _levin_gu_on_register_0() + _swap_and_shift(1, 2), (1,)),
    ],
    ids=["swap_shift", "levin_gu_and_swap_shift"],
)
def test_anomaly_class_balances_zero_index_shifts(registers, steps, residues):
    sites = SiteSpec(registers)
    gen = QcaExpr(sites, tuple(steps))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), sites, (identity_expr(sites), gen))
    rep = anm.anomaly_class(act)
    assert rep.coords.residues == residues
    assert rep.as_json_dict()["stacked"] is False


def _conjugated_levin_gu(k: int) -> list:
    """Levin-Gu on register 0 of two qubit registers, conjugated by the
    shift of register 0 by +k and register 1 by -k."""
    pair = [ShiftPrimitive(0, k), ShiftPrimitive(1, -k)]
    return pair + _levin_gu_on_register_0() + [ShiftPrimitive(0, -k), ShiftPrimitive(1, k)]


@pytest.mark.parametrize("k", [1, 2])
def test_anomaly_class_of_conjugated_levin_gu(k):
    # the shifts pass the brickwork layers by conjugation; the class is
    # Levin-Gu's, as conjugation does not change it
    sites = SiteSpec((2, 2))
    gen = QcaExpr(sites, tuple(_conjugated_levin_gu(k)))
    act = anm.ActionSpec(FiniteGroup.cyclic(2), sites, (identity_expr(sites), gen))
    assert anm.anomaly_class(act).coords.residues == (1,)


def test_pure_translation_stacks_to_swap_circuit():
    # translation acting on the doubled chain as shift x inverse-shift
    trivial_rep = anm.ProjectiveRep(FiniteGroup.cyclic(1), (np.eye(2, dtype=complex),))
    circ = lsm_stacked_expr(trivial_rep, 0, 1)
    assert not circ.has_shifts
    assert qca.gnvw_symbolic(circ) == 1
    s22 = SiteSpec((2, 2))
    raw = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    units = matrix_unit_batch(4)
    for j in (-1, 0, 1):
        assert helpers_probe.action_distance(circ, raw, range(j, j + 1), units) <= 1e-9


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

def bare_table(e) -> anm.VTable:
    """A two-entry table in which the pair (a, b) = (1, 0) is the bare
    expression e: beta_1 = e, beta_0 = the identity, and the law a.b = b
    makes ab = 0."""
    return anm.VTable({0: identity_expr(e.sites), 1: e}, lambda a, b: b, ("1", "-1").__getitem__)


def test_extract_levin_gu_square_is_z0():
    beta = anm.restrict_right(anm.levin_gu_action().expr(1))
    slots, mat = bare_table(compose(beta, beta)).gate(1, 0)
    assert slots == (0,)
    assert np.allclose(mat, PAULI_Z, atol=1e-9)


def test_extract_identity():
    slots, mat = bare_table(identity_expr(S2)).gate(1, 0)
    assert slots == ()
    assert abs(mat[0, 0] - 1.0) <= 1e-12


def test_extract_random_gate_recovers_it(rng):
    # (0, 1, 2) reaches past the sites [0, 1] that the sweep probes first; a
    # diagonal gate fixes every diagonal unit; six qubits reach MAX_V_DIM
    cases = [
        ((0, 1), random_unitary(4, rng)),
        ((0, 1, 2), random_unitary(8, rng)),
        ((0, 1), np.diag(np.exp(2j * np.pi * rng.uniform(size=4)))),
        (tuple(range(6)), random_unitary(anm.MAX_V_DIM, rng)),
    ]
    for support, u in cases:
        table = bare_table(single_gate_expr(S2, support, u))
        gate = table.gate(1, 0)
        assert table.residuals[1, 0] <= 1e-9
        # same gauge normalization applied to the input reproduces it exactly
        flat = u.reshape(-1)
        idx = next(i for i in range(flat.size) if abs(flat[i]) > 0.5 / np.sqrt(len(u)))
        u_gauged = u * (flat[idx].conjugate() / abs(flat[idx]))
        union, (mat, _) = on_union(S2, gate, (support, u))
        assert union == support
        assert np.max(np.abs(mat - u_gauged)) <= 1e-9


def test_extract_rejects_non_inner():
    # the restricted Levin-Gu generator flips every site right of the cut, so
    # the sweep never ends on its own and stops at the support cap
    beta = anm.restrict_right(anm.levin_gu_action().expr(1))
    with pytest.raises(WindowCapExceeded, match=r"^V\(-1, 1\): candidate support dimension "):
        bare_table(beta).gate(1, 0)


def test_extraction_failures_name_the_pair(monkeypatch):
    monkeypatch.setattr(anm, "MAX_V_DIM", 1)
    with pytest.raises(WindowCapExceeded, match=r"^V\(-1, -1\): candidate support dimension 2 "):
        anm.omega_cocycle(anm.levin_gu_action())
    with pytest.raises(WindowCapExceeded, match=r"^V\(\(\(0,1\), 0\), \(\(0,0\), 1\)\): candidate "):
        anm.lsm_pipeline(anm.pauli_projective_rep())


def _action_probe_case(spec: anm.ActionSpec):
    G = spec.group
    beta = {g: anm.restrict_right(spec.expr(g)) for g in G.elements()}
    return anm.VTable(beta, G.mul, G.name), list(itertools.product(G.elements(), repeat=2))


def _lsm_probe_case(rep: anm.ProjectiveRep):
    G0 = rep.group
    beta = {
        (g, n): anm.restrict_right(lsm_stacked_expr(rep, g, n))
        for g in G0.elements()
        for n in range(3)
    }
    table = anm.VTable(beta, lambda a, b: (G0.mul(a[0], b[0]), a[1] + b[1]), str)
    return table, [(a, b) for a in beta for b in beta if a[1] + b[1] <= 2]


def type_iii_action() -> anm.ActionSpec:
    """The edge action of omega(a, b, c) = (-1)^(a1 b2 c3) on three qubit
    registers, element g = 4 g1 + 2 g2 + g3: X on register i - 1 for each
    g_i = 1, then, if g1 = 1, two brickwork layers of the diagonal gate
    (-1)^((g2 + a2)(a3 + b3)) on the slots a2, a3 of a site and b3 of the
    next."""
    sites = SiteSpec((2, 2, 2))
    Z2 = FiniteGroup.cyclic(2)
    G = FiniteGroup.direct_product(FiniteGroup.direct_product(Z2, Z2), Z2)
    exprs = []
    for g in G.elements():
        bits = ((g >> 2) & 1, (g >> 1) & 1, g & 1)
        flips = tuple(GateTemplate(0, 1, PAULI_X, ((0, i),)) for i, bit in enumerate(bits) if bit)
        steps = [BlockLayer(1, flips)] if flips else []
        if bits[0]:
            phases = [
                (-1) ** (((bits[1] + a2) % 2) * ((a3 + b3) % 2))
                for a2 in (0, 1) for a3 in (0, 1) for b3 in (0, 1)
            ]
            gate = np.diag(phases).astype(complex)
            steps += [
                BlockLayer(2, (GateTemplate(anchor, 2, gate, ((0, 1), (0, 2), (1, 2))),))
                for anchor in (0, 1)
            ]
        exprs.append(QcaExpr(sites, tuple(steps)))
    return anm.ActionSpec(G, sites, tuple(exprs))


def k4_on_qubit_and_qutrit(seed: int) -> anm.ActionSpec:
    """K4 on sites of a qubit and a qutrit register: identity, the flip with
    a qutrit reflection, Levin-Gu on the qubits, and their product, all
    conjugated by a seeded real orthogonal gate on both registers of a
    site."""
    sites = SiteSpec((2, 3))
    flip_reflect = BlockLayer(1, (
        GateTemplate(0, 1, PAULI_X, ((0, 0),)),
        GateTemplate(0, 1, np.eye(3)[[0, 2, 1]], ((0, 1),)),
    ))
    cz = [BlockLayer(2, (GateTemplate(a, 2, anm.CZ_GATE, ((0, 0), (1, 0))),)) for a in (0, 1)]
    flip = BlockLayer(1, (GateTemplate(0, 1, PAULI_X, ((0, 0),)),))
    one, gamma = QcaExpr(sites, (flip_reflect,)), QcaExpr(sites, (flip, *cz))
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(6, 6)))
    w = q * np.sign(np.diag(r))
    w_layer, w_inverse = (BlockLayer(1, (GateTemplate(0, 1, m),)) for m in (w, w.T))
    exprs = [identity_expr(sites)] + [
        QcaExpr(sites, (w_inverse,) + e.steps + (w_layer,))
        for e in (one, gamma, compose(gamma, one))
    ]
    return anm.ActionSpec(K4, sites, tuple(exprs))


@functools.cache
def probe_case(name: str, seed: int = 0):
    """(one V table shared by every example, its pairs (a, b))."""
    return {
        "levin-gu": lambda: _action_probe_case(anm.levin_gu_action()),
        "k4-conj-twosite": lambda: _action_probe_case(k4_conjugated_twosite(seed)),
        "type-iii": lambda: _action_probe_case(type_iii_action()),
        "k4-qubit-qutrit": lambda: _action_probe_case(k4_on_qubit_and_qutrit(seed)),
        "lsm-pauli": lambda: _lsm_probe_case(anm.pauli_projective_rep()),
        "lsm-clock-shift3": lambda: _lsm_probe_case(clock_shift_rep(3)),
    }[name]()


SEEDED_PROBE_CASES = ("k4-conj-twosite", "k4-qubit-qutrit")


@settings(max_examples=100)
@given(
    name=st.sampled_from([
        "levin-gu", "k4-conj-twosite", "type-iii", "k4-qubit-qutrit", "lsm-pauli",
        "lsm-clock-shift3",
    ]),
    seed=st.integers(0, 3),
    pick=st.integers(0, 10**6),
)
def test_table_probe_matches_whole_expression_probe(name, seed, pick):
    # one beta run per site against the cached inverse images moves the same
    # slots as running the whole of beta_a beta_b beta_ab^-1 on each slot,
    # swept alike
    table, pairs = probe_case(name, seed if name in SEEDED_PROBE_CASES else 0)
    a, b = pairs[pick % len(pairs)]
    beta = table.beta
    expr = compose(beta[a], compose(beta[b], invert(beta[table.mul(a, b)])))
    r = max(qca.radius(expr), 1)
    assert table.active_slots(a, b, r) == helpers_probe.active_slots(expr)


@pytest.mark.parametrize("case", ["k4", "lsm-clock-shift3", "type-iii", "k4-qubit-qutrit"])
def test_moved_slots_lie_in_the_light_cone(case):
    # a right restriction of a homomorphic action moves nothing left of the
    # cut and nothing at a site >= r, so one sweep from site 0 finds every
    # moved slot
    if case == "k4":
        table, pairs = _k4_omega()[2], list(itertools.product(K4.elements(), repeat=2))
    else:
        table, pairs = probe_case(case)
    R = next(iter(table.beta.values())).sites.nregisters
    for a, b in pairs:
        expr = table.expression(a, b)
        r = max(qca.radius(expr), 1)
        moved = {s // R for s in table.active_slots(a, b, r)}
        assert moved <= set(range(r)), (a, b, r, moved)
        left = range(-(r + 1) * R, 0)
        assert not any(helpers_probe.moves(expr, slot) for slot in left), (a, b)


def test_vtable_invariant_levin_gu():
    act = anm.levin_gu_action()
    _, vt = anm.omega_cocycle(act)
    G = act.group
    beta = {g: anm.restrict_right(act.expr(g)) for g in G.elements()}
    units = matrix_unit_batch(2)
    for (g, h), gate in vt.entries.items():
        target = compose(beta[g], compose(beta[h], invert(beta[G.mul(g, h)])))
        conj = single_gate_expr(S2, *gate)
        for j in (0, 1, 2):
            assert helpers_probe.action_distance(target, conj, range(j, j + 1), units) <= 1e-9


# -- the degree-3 cocycle -------------------------------------------------------------------

def levin_gu_omega(G: FiniteGroup) -> PhaseCochain:
    """The Levin-Gu cocycle the extraction measures: a half turn at
    (-1, -1, -1) and 0 elsewhere."""
    return cochain_from_function(G, 3, lambda a, b, c: Fraction(a * b * c, 2))


def test_omega_levin_gu_values():
    # hand-composed expectation: V(-1,-1) = Z0, other V = 1, and the restricted
    # automorphism flips the sign of Z0, so the only nonzero value is
    # Z0 * 1 * 1 * (-Z0)^{-1} = -1, a half turn at (-1,-1,-1)
    act = anm.levin_gu_action()
    turns, _ = anm.omega_cocycle(act)
    assert max_turn_distance(turns, levin_gu_omega(act.group)) <= 1e-9


def test_omega_onsite_trivial():
    act = anm.onsite_flip_action()
    turns, _ = anm.omega_cocycle(act)
    assert max_turn_distance(turns, PhaseCochain.zero(act.group, 3)) <= 1e-9


def test_omega_rephasing_shifts_by_coboundary(rng):
    act = anm.levin_gu_action()
    G = act.group
    turns, vt = anm.omega_cocycle(act)
    H = cohomology(G, 3)
    for _ in range(3):
        theta = cochain_from_function(
            G, 2, lambda g, h: Fraction(int(rng.integers(0, 8)), 8)
        )
        vt2 = anm.VTable(vt.beta, G.mul, G.name)
        for (g, h), (slots, mat) in vt.entries.items():
            phase = np.exp(2j * np.pi * float(theta.at(g, h)))
            vt2.entries[(g, h)] = (slots, phase * mat)
        turns2 = anm.omega_from_vtable(G, vt2)
        diff = [b - a for a, b in zip(turns, turns2)]
        # with the alternating-sum orientation the shift is d(-theta)
        assert max_turn_distance(diff, coboundary(cochain_neg(theta))) <= 1e-9
        assert bockstein_class(turns2, H)[0] == bockstein_class(turns, H)[0]


def test_omega_beta_independence_exact(rng):
    # replacing the restriction by its composition with a local conjugation,
    # with the obstruction unitaries transported accordingly, reproduces the
    # cocycle value for value
    act = anm.levin_gu_action()
    G = act.group
    _, vt0 = anm.omega_cocycle(act)
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
        vt_t = anm.VTable(beta_t, G.mul, G.name)
        for g1 in G.elements():
            for g2 in G.elements():
                g12 = G.mul(g1, g2)
                left = image(beta[g1], U[g1])
                u12_dag = (U[g12][0], U[g12][1].conj().T)
                right = image(beta[g12], slot_product(S2, U[g2], u12_dag))
                vt_t.entries[(g1, g2)] = slot_product(S2, left, vt0.gate(g1, g2), right)
        turns_t = anm.omega_from_vtable(G, vt_t)
        assert max_turn_distance(turns_t, levin_gu_omega(G)) <= 1e-9


def test_non_scalar_associator_names_the_tuple():
    # V(-1,-1) = Z0 times X0: beta_(-1) maps it to a product that leaves
    # Z1 behind, so omega(-1,-1,-1) is not a multiple of the identity
    act = anm.levin_gu_action()
    G = act.group
    _, vt = anm.omega_cocycle(act)
    vt.entries[(1, 1)] = slot_product(S2, ((0,), PAULI_X), vt.entries[(1, 1)])
    with pytest.raises(NotScalar, match=r"omega\(-1, -1, -1\): product is not"):
        anm.omega_from_vtable(G, vt)


def test_omega_pentagon_exact():
    act = anm.levin_gu_action()
    turns, _ = anm.omega_cocycle(act)
    om = levin_gu_omega(act.group)
    assert max_turn_distance(turns, om) <= 1e-9
    assert is_cocycle(om)
    assert is_zero(coboundary(om))


# -- full pipeline --------------------------------------------------------------------------

def test_anomaly_class_levin_gu():
    rep = anm.anomaly_class(anm.levin_gu_action())
    assert rep.verdict == "Anomalous"
    assert rep.cohomology.invariant_factors == (2,)
    assert rep.coords.residues == (1,)
    assert rep.as_json_dict()["stacked"] is False
    assert rep.as_json_dict()["gnvw"] == {"1": {}, "-1": {}}


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
    # every row is a phase of the class representative, with no error beside it
    assert all(set(r) == {"args", "phase"} for r in d["omega"])
    assert rep.omega == rep.cohomology.representative(rep.coords)
    assert set(d["diagnostics"]) == {
        "max_scalar_residual",
        "max_v_residual",
        "max_rounding_error",
        "homomorphism_residual",
        "v_windows",
    }


def _lift_levin_gu_with_trivial_factor() -> anm.ActionSpec:
    # the same action on the first register of a doubled chain, identity on
    # the second: stacking with a trivially acting factor
    s22 = SiteSpec((2, 2))
    gamma2 = QcaExpr(s22, tuple(_levin_gu_on_register_0()))
    return anm.ActionSpec(FiniteGroup.cyclic(2), s22, (identity_expr(s22), gamma2))


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
    # labels: (a, b) -> a*2 + b; X^a1 Z^b1 X^a2 Z^b2 = (-1)^(b1 a2) X^(a1+a2)
    # Z^(b1+b2) pins every phase
    closed = cochain_from_function(G, 2, lambda g, h: Fraction((g % 2) * (h // 2), 2))
    assert max_turn_distance(rho, closed) <= 1e-9
    xa, zb = 2, 1  # (1,0) and (0,1)
    assert closed.at(xa, zb) == 0
    assert closed.at(zb, xa) == Fraction(1, 2)
    assert is_cocycle(closed)


def test_linear_rep_trivial_multiplier():
    rep = anm.linear_flip_rep()
    rho = anm.projective_cocycle(rep)
    assert max_turn_distance(rho, PhaseCochain.zero(rep.group, 2)) <= 1e-9


def test_pauli_multiplier_class_nonzero():
    rep = anm.pauli_projective_rep()
    H = cohomology(rep.group, 2)
    assert H.invariant_factors == (2,)
    assert bockstein_class(anm.projective_cocycle(rep), H)[0].residues == (1,)


def test_not_projective_detected():
    G = FiniteGroup.cyclic(2)
    mats = (np.eye(2, dtype=complex), np.diag([1.0, 1j]))  # order 4, not 2
    rep = anm.ProjectiveRep(G, mats)
    with pytest.raises(NotProjective, match=r"matrices at \(1, 1\) are not projective"):
        anm.projective_cocycle(rep)


def non_projective_rep() -> anm.ProjectiveRep:
    """Z2 x Z2 by I, X, Z, H: X Z and H differ by more than a phase."""
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return anm.ProjectiveRep(G, (np.eye(2), PAULI_X, PAULI_Z, hadamard))


def test_lsm_refuses_a_non_projective_rep_by_name():
    # refused before any V is extracted, not by the extraction cap
    with pytest.raises(NotProjective, match=r"^matrices at \(\(0,1\), \(1,0\)\) are not projective"):
        anm.lsm_pipeline(non_projective_rep())


# -- the mixed anomaly --------------------------------------------------------------------------

def test_lsm_pauli_slant_equals_multiplier_class():
    out = anm.lsm_pipeline(anm.pauli_projective_rep())
    assert out.classes_equal
    assert not out.slant_class.is_trivial
    assert out.verdict == "Anomalous"


def test_lsm_report_prints_the_class_representatives():
    # the slant and the multiplier are measured as float turns and only their
    # classes are kept: every printed row is a phase of a class
    # representative, with no error beside it, and the one rounding error is
    # that of the slant's Bockstein
    out = anm.lsm_pipeline(anm.pauli_projective_rep())
    H = out.cohomology
    assert out.slant == out.projective == H.representative(out.slant_class)
    assert class_of_by_fractions(out.slant, H) == out.slant_class
    d = out.as_json_dict()
    assert all(set(r) == {"args", "phase"} for r in d["slant"] + d["projective"])
    assert set(d["diagnostics"]) == {
        "max_scalar_residual",
        "max_v_residual",
        "max_rounding_error",
        "v_count",
    }
    assert 0.0 <= d["diagnostics"]["max_rounding_error"] <= 1e-9
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
            beta[(g, n)] = anm.restrict_right(lsm_stacked_expr(rep, g, n))
    g = 2  # the (1,0) element, matrix X
    a, b = (g, 0), (0, 1)
    gate = anm.VTable(beta, lambda a, b: (G0.mul(a[0], b[0]), a[1] + b[1]), str).gate(a, b)
    assert qca._site_span(SiteSpec((2, 2)), gate[0]) == "[0,0]"
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
            assert expr_to_data(lsm_stacked_expr(rep, g, n)) == expr_to_data(whole)


@pytest.mark.parametrize(
    "make_rep",
    [anm.pauli_projective_rep, lambda: clock_shift_rep(3)],
    ids=["pauli", "clock_shift3"],
)
def test_lsm_stacked_exprs_are_valid(monkeypatch, make_rep):
    # lsm_pipeline composes and restricts its circuits without validating
    # them; validating them here must pass, and each equals the reference
    rep = make_rep()
    beta = lsm_pipeline_beta(monkeypatch, rep)
    assert sorted(beta) == [(g, n) for g in rep.group.elements() for n in (0, 1)]
    for (g, n), out in beta.items():
        QcaExpr(out.sites, out.steps)
        assert expr_to_data(out) == expr_to_data(anm.restrict_right(lsm_stacked_expr(rep, g, n)))
    for g in rep.group.elements():
        for n in (0, 1, 2):
            stacked = lsm_stacked_expr(rep, g, n)
            for out in (stacked, anm.restrict_right(stacked)):
                QcaExpr(out.sites, out.steps)


def test_lsm_translations_share_each_onsite_layer(monkeypatch):
    # (g, 0) and (g, 1) hold the one gate template built for rep(g)
    rep = clock_shift_rep(3)
    beta = lsm_pipeline_beta(monkeypatch, rep)
    for g in rep.group.elements()[1:]:
        (t0,), (t1,) = (beta[g, n].steps[0].templates for n in (0, 1))
        assert t0 is t1
        assert np.array_equal(t0.unitary, rep.matrices[g])


def test_lsm_balances_each_translation_once(monkeypatch):
    calls = []

    def counting(expr, *args, **kw):
        calls.append(expr)
        return qca.balance_shifts(expr, *args, **kw)

    monkeypatch.setattr(anm, "balance_shifts", counting)
    out = anm.lsm_pipeline(clock_shift_rep(3))
    assert out.classes_equal
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make_rep",
    [anm.pauli_projective_rep, lambda: clock_shift_rep(3)],
    ids=["pauli", "clock_shift3"],
)
def test_lsm_report_same_with_swaps_conjugated_as_matrices(monkeypatch, make_rep):
    # the swap circuits of balance_shifts relabel slots; forced through the
    # matrix path instead, every swap is conjugated and the report is equal
    swaps = []
    real = qca._conj_gate_batch

    def recording(sites, slots, mats, gslots, gate):
        dims = qca._slot_dims(sites, gslots)
        if any(
            dims[i] == dims[j] and np.array_equal(gate.unitary, tz.factor_swap_matrix(dims, i, j))
            for i, j in itertools.combinations(range(len(dims)), 2)
        ):
            swaps.append(gslots)
        return real(sites, slots, mats, gslots, gate)

    monkeypatch.setattr(qca, "_conj_gate_batch", recording)
    fast = anm.lsm_pipeline(make_rep()).as_json_dict()
    assert swaps == []
    monkeypatch.setattr(GateTemplate, "factor_swap", lambda self, sites: None)
    slow = anm.lsm_pipeline(make_rep()).as_json_dict()
    assert swaps
    assert fast == slow


@pytest.mark.slow
def test_lsm_clock_shift_order_three():
    out = anm.lsm_pipeline(clock_shift_rep(3))
    assert out.classes_equal
    assert out.cohomology.invariant_factors == (3,)
    assert not out.slant_class.is_trivial
    triple = coords_add(coords_add(out.slant_class, out.slant_class), out.slant_class)
    assert triple.is_trivial


def _spin_rep(twice_s: int) -> anm.ProjectiveRep:
    """Spin S = twice_s / 2 as the Z2 x Z2 rep (1, e^{i pi Sz}, e^{i pi Sx},
    e^{i pi Sx} e^{i pi Sz})."""
    m = twice_s / 2 - np.arange(twice_s + 1)  # Sz eigenvalues, S down to -S
    s_plus = np.diag(np.sqrt(twice_s / 2 * (twice_s / 2 + 1) - m[1:] * (m[1:] + 1)), 1)
    rz = np.diag(np.exp(1j * np.pi * m))
    rx = scipy.linalg.expm(1j * np.pi * (s_plus + s_plus.T) / 2)
    return anm.ProjectiveRep(K4, (np.eye(twice_s + 1), rz, rx, rx @ rz))


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
def test_lsm_spin_s_reads_2s_mod_2(twice_s):
    # the Lieb-Schultz-Mattis closed form for SO(3): a chain of spin S has the
    # mixed anomaly 2S mod 2, read on the pi rotations about z and x
    out = anm.lsm_pipeline(_spin_rep(twice_s))
    assert out.slant_class.residues == out.projective_class.residues == (twice_s % 2,)
    assert out.classes_equal


def _su3_clock_shift(irrep: str) -> anm.ProjectiveRep:
    """The SU(3) irrep restricted to the clock-shift Z3 x Z3, element (a, b)
    acting as S^a C^b: the fundamental, its symmetric square, or the adjoint
    on the traceless matrices, in an orthonormal basis of each."""
    w = np.exp(2j * np.pi / 3)
    C, S = np.diag([1, w, w * w]), np.roll(np.eye(3), 1, axis=0)
    power = np.linalg.matrix_power
    fund = [power(S, a) @ power(C, b) for a in range(3) for b in range(3)]
    if irrep == "fundamental":
        mats = fund
    elif irrep == "sym2":
        basis = []
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            v = np.zeros((3, 3))
            v[i, j] = v[j, i] = 1.0
            basis.append(v.reshape(-1) / np.linalg.norm(v))
        B = np.array(basis).T
        mats = [B.T @ np.kron(M, M) @ B for M in fund]
    else:
        # the traceless matrices with Hilbert-Schmidt orthonormal basis E
        E = [np.outer(np.eye(3)[i], np.eye(3)[j]) for i in range(3) for j in range(3) if i != j]
        E += [np.diag([1, -1, 0]) / math.sqrt(2), np.diag([1, 1, -2]) / math.sqrt(6)]
        mats = [[[np.trace(x.conj().T @ M @ y @ M.conj().T) for y in E] for x in E] for M in fund]
    G = FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3))
    return anm.ProjectiveRep(G, tuple(np.array(m) for m in mats))


def test_lsm_su3_clock_shift_counts_boxes_mod_3():
    # the class of an SU(3) irrep on the clock-shift Z3 x Z3 is its number
    # of boxes mod 3, whatever the basis: Sym^2 reads twice the
    # fundamental's class and the adjoint reads 0
    fund, sym2, adjoint = (
        anm.lsm_pipeline(_su3_clock_shift(irrep)) for irrep in ("fundamental", "sym2", "adjoint")
    )
    assert all(out.classes_equal for out in (fund, sym2, adjoint))
    assert not fund.slant_class.is_trivial
    assert sym2.slant_class == coords_add(fund.slant_class, fund.slant_class)
    assert adjoint.slant_class.is_trivial


def test_conjugated_action_same_class(rng):
    # conjugating the whole action by a local unitary near the cut leaves the
    # class, and so the printed cocycle, unchanged
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
    assert is_zero(rep.omega)
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
        return cochain_from_function(
            Z2, 3, lambda a, b, c: rep.omega.at(stride * a, stride * b, stride * c)
        )

    assert class_of_by_fractions(restriction(2), H3).residues == (1,)  # flip-entangle subgroup
    assert class_of_by_fractions(restriction(1), H3).residues == (0,)  # bare flip subgroup
    assert class_of_by_fractions(restriction(3), H3).residues == (0,)  # pure entangler subgroup


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
    assert is_zero(rep.omega)


# -- gauge-invariant classification ----------------------------------------------------------

K4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


def _layer(period: int, mat: np.ndarray, anchor: int = 0) -> dict:
    """A config layer of one gate template, its matrix as [re, im] pairs."""
    span = int(round(np.log2(len(mat))))
    pairs = [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]
    template = {"anchor": anchor, "span": span, "unitary": pairs}
    return {"kind": "layer", "period": period, "templates": [template]}


@pytest.mark.parametrize("seed", [0, 3, 4, 9])
def test_k4_conjugated_by_ginibre_unitary_keeps_its_class(tmp_path, seed):
    # K4 acting by flip, flip-entangle and entangle, conjugated on-site by a
    # Haar-random unitary: its gauge-fixed phases are irrational for seeds
    # 3, 4 and 9, which a per-phase snap used to refuse
    u = random_unitary(2, np.random.default_rng(seed))
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    flip, entangle = [_layer(1, PAULI_X)], [_layer(2, cz), _layer(2, cz, anchor=1)]
    steps = [[]] + [
        [_layer(1, u.conj().T)] + s + [_layer(1, u)] for s in (flip, flip + entangle, entangle)
    ]
    config = {
        "mode": "anomaly",
        "group": {"kind": "product", "factors": [2, 2]},
        "action": {
            "site": {"registers": [2]},
            "map": [{"element": g, "steps": s} for g, s in enumerate(steps)],
        },
        "output": {"json": "report.json"},
    }
    path = tmp_path / "k4.yaml"
    path.write_text(yaml.safe_dump(config))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["class"] == [0, 1, 0]
    assert report["verdict"] == "Anomalous"
    # the printed rows are an exact cocycle of the printed class
    rows = PhaseCochain(K4, 3, tuple(Fraction(r["phase"]) for r in report["omega"]))
    assert class_of_by_fractions(rows, cohomology(K4, 3)).residues == (0, 1, 0)


def _rephased(rep: anm.ProjectiveRep, phases) -> anm.ProjectiveRep:
    """Every matrix but the identity's times e^{2 pi i t}, t in turns."""
    mats = (rep.matrices[0],) + tuple(
        np.exp(2j * np.pi * t) * m for t, m in zip(phases, rep.matrices[1:])
    )
    return anm.ProjectiveRep(rep.group, mats)


def test_rephased_pauli_rep_slant_equals_multiplier_class():
    # X, Z and XZ times e^{0.3i}, e^{1.1i} and e^{2.0i}: no multiplier phase
    # is rational any more
    rep = _rephased(anm.pauli_projective_rep(), np.array([0.3, 1.1, 2.0]) / (2 * np.pi))
    out = anm.lsm_pipeline(rep)
    assert out.slant_class.residues == (1,)
    assert out.projective_class.residues == (1,)
    assert out.classes_equal
    # the printed rows are those of the unrephased representation
    assert out.projective == anm.lsm_pipeline(anm.pauli_projective_rep()).projective


@functools.lru_cache(maxsize=1)
def _k4_omega():
    """K4 acting by identity, flip, flip-entangle and the bare entangler: its
    restrictions, the class of its cocycle and its V table."""
    gamma = anm.levin_gu_action().expr(1)
    flip = anm.onsite_flip_action().expr(1)
    act = anm.ActionSpec(K4, S2, (identity_expr(S2), flip, gamma, compose(gamma, flip)))
    turns, vt = anm.omega_cocycle(act)
    return vt.beta, bockstein_class(turns, cohomology(K4, 3))[0], vt


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
def test_real_phases_on_v_leave_the_class(seed):
    # V(g,h) -> e^{2 pi i mu(g,h)} V(g,h) with real mu changes omega by a real
    # coboundary; the oracle is the class of the unrotated V table
    beta, base, vt = _k4_omega()
    rng = np.random.default_rng(seed)
    vt2 = anm.VTable(beta, K4.mul, K4.name)
    for key, (slots, mat) in vt.entries.items():
        vt2.entries[key] = (slots, np.exp(2j * np.pi * rng.uniform()) * mat)
    coords, _ = bockstein_class(anm.omega_from_vtable(K4, vt2), cohomology(K4, 3))
    assert coords == base
    assert coords.residues == (0, 1, 0)


@pytest.mark.parametrize("make_rep", [anm.pauli_projective_rep, lambda: clock_shift_rep(3)])
@given(seed=st.integers(0, 10 ** 6))
def test_real_phases_on_rep_matrices_leave_the_class(make_rep, seed):
    # the multiplier moves by a real coboundary; the oracle is the class of
    # the unrotated representation
    rep = make_rep()
    H = cohomology(rep.group, 2)
    base, _ = bockstein_class(anm.projective_cocycle(rep), H)
    phases = np.random.default_rng(seed).uniform(size=rep.group.order - 1)
    moved, _ = bockstein_class(anm.projective_cocycle(_rephased(rep, phases)), H)
    assert moved == base
    assert not moved.is_trivial


# -- fewer gate conjugations in V extraction --------------------------------------------------

@pytest.mark.parametrize(
    "make", [anm.levin_gu_action, lambda: k4_conjugated_twosite(11)], ids=["levin-gu", "k4-conj-twosite"]
)
def test_pairs_with_the_identity_run_no_batch(monkeypatch, make):
    # beta_e beta_g beta_g^-1 and beta_g beta_e beta_g^-1 cancel to no step
    spec = make()
    G = spec.group
    table = anm.VTable({g: anm.restrict_right(spec.expr(g)) for g in G.elements()}, G.mul, G.name)
    runs = []
    real = anm._run_batch

    def recording(*args):
        runs.append(args[1])
        return real(*args)

    monkeypatch.setattr(anm, "_run_batch", recording)
    for g in G.elements():
        for pair in ((0, g), (g, 0)):
            slots, mat = table.gate(*pair)
            assert slots == () and np.array_equal(mat, np.ones((1, 1)))
            assert table.residuals[pair] == 0.0
    assert runs == []


@pytest.mark.parametrize(
    "make, window",
    [
        (lambda: k4_conjugated(5, 1), "[0,0]"),
        (lambda: k4_conjugated(11, 2), "[0,1]"),
        (lambda: k4_conjugated(4, 2), "[0,1]"),
    ],
    ids=["onsite-5", "twosite-11", "twosite-4"],
)
def test_conjugated_k4_keeps_the_unconjugated_report(make, window):
    base = anm.anomaly_class(k4_action()).as_json_dict()
    got = anm.anomaly_class(make()).as_json_dict()
    assert got["class"] == base["class"] == [0, 1, 0]
    assert got["omega"] == base["omega"]
    # V is extracted on the same pairs; a two-site W widens it by one site
    want = {
        pair: "[]" if span == "[]" else window
        for pair, span in base["diagnostics"]["v_windows"].items()
    }
    assert got["diagnostics"]["v_windows"] == want


def test_conjugated_k4_conjugation_count(monkeypatch):
    # a deterministic work count: the W W^-1 junctions of every
    # beta_a beta_b beta_ab^-1 cancel, 10 of the 16 composites are empty and
    # the sweep stops at the light cone. Without cancellation the extraction
    # conjugates 2160 gates; with cancellation and the r + 1 site guard after
    # every composite, 1246; with the sweep stopped at the light cone and
    # the registers of a site probed together, 974
    calls = []
    real = qca._conj_gate_batch

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(qca, "_conj_gate_batch", counting)
    assert anm.anomaly_class(k4_conjugated_twosite(11)).coords.residues == (0, 1, 0)
    assert len(calls) <= 1000


def _count_sweeps_and_runs(monkeypatch) -> dict:
    counts = {"sweeps": 0, "runs": 0}
    sweep, run = anm.VTable.active_slots, anm._run_batch

    def counting_sweep(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    def counting_run(*args):
        counts["runs"] += 1
        return run(*args)

    monkeypatch.setattr(anm.VTable, "active_slots", counting_sweep)
    monkeypatch.setattr(anm, "_run_batch", counting_run)
    return counts


def test_clock_shift_lsm_work_count(monkeypatch):
    # rho(g) rho(h) rho(gh)^-1 and T T^-1 drop as scalar runs, the sweep
    # stops at the light cone and a site's two registers share one run:
    # 72 sweeps and 493 runs of the slot engine in this module, against 196
    # and 1651 with only exact inverse pairs cancelled and the r + 1 site
    # guard after every composite
    counts = _count_sweeps_and_runs(monkeypatch)
    out = anm.lsm_pipeline(clock_shift_rep(3))
    assert out.classes_equal and not out.slant_class.is_trivial
    assert counts["sweeps"] <= 80
    assert counts["runs"] <= 600


def test_onsite_pauli_k4_runs_no_sweep(monkeypatch):
    # every composite of an on-site projective action is a scalar run
    pauli = anm.pauli_projective_rep().matrices
    exprs = tuple(
        QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 1, m),)),) if g else ())
        for g, m in enumerate(pauli)
    )
    counts = _count_sweeps_and_runs(monkeypatch)
    report = anm.anomaly_class(anm.ActionSpec(K4, S2, exprs))
    assert report.coords.is_trivial
    assert counts["sweeps"] == 0
    assert set(report.diagnostics["v_windows"].values()) == {"[]"}


# -- edge actions of known cocycles ---------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_edge_action_of_type_i_cocycle_round_trips(n, k, sign):
    # omega(a, b, c) = k a (b + c - [b + c]_n) / n^2 on Z_n: the edge action
    # built from it has the class of omega itself
    G = FiniteGroup.cyclic(n)
    omega = cochain_from_function(
        G, 3, lambda a, b, c: Fraction(sign * k * a * (b + c - (b + c) % n), n * n)
    )
    report = anm.anomaly_class(edge_action(G, omega))
    assert report.coords == class_of_by_fractions(omega, cohomology(G, 3))


@pytest.mark.parametrize("i", range(3))
def test_edge_action_of_k4_generator_round_trips(i):
    H = cohomology(K4, 3)
    report = anm.anomaly_class(edge_action(K4, H.generators[i]))
    assert report.coords.residues == tuple(int(j == i) for j in range(3))
