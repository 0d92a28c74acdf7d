import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainomaly import _tensors as tz
from chainomaly import cli, qca
from chainomaly.anomaly import levin_gu_action, restrict_right
from chainomaly.errors import (
    InvariantViolation,
    NonZeroIndex,
    UnpairableShifts,
    ValidationError,
    WindowCapExceeded,
)
from chainomaly.opwin import PAULI_X, PAULI_Z, TOL_ALGEBRA, SiteSpec
from chainomaly.qca import (
    BlockLayer,
    GateTemplate,
    QcaExpr,
    ShiftPrimitive,
    balance_shifts,
    compose,
    gnvw_numeric,
    gnvw_symbolic,
    identity_expr,
    index_text,
    invert,
    matrix_unit_batch,
    prime_exponents,
    radius,
)

from conftest import image, random_unitary, single_gate_expr, slot_distance, slot_product
from helpers_layer_gates import layer_gates_by_translates
from helpers_probe import action_distance
from helpers_serialize import expr_to_data
from helpers_support_algebra import support_algebra_dim, support_dims, unit_images
from helpers_trim import conj_identity, embed_factors, trim_batch

S2 = SiteSpec((2,))
SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def shift_expr(sites, reg, k):
    return QcaExpr(sites, (ShiftPrimitive(reg, k),))


def random_two_site_layer(rng, d=2, anchor=0):
    u = random_unitary(d * d, rng)
    return BlockLayer(2, (GateTemplate(anchor, 2, u),))


def random_probe(rng, sites, window):
    """A random operator on all slots of the sites in `window`, as (slots, matrix)."""
    n = sites.dim ** len(window)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return qca._slots_of_window(sites, window), m


def norm(op) -> float:
    return tz.operator_norm(op[1])


# -- structure validation ------------------------------------------------------

def test_layer_overlap_rejected():
    with pytest.raises(ValidationError):
        QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 2, SWAP4),)),))


def test_template_registers_must_be_integers():
    # numpy integers are integers; a float is refused, not cast to slot 0
    t = GateTemplate(0, 1, PAULI_X, registers=((np.int64(0), np.int32(0)),))
    assert t.registers == ((0, 0),)
    with pytest.raises(ValidationError, match="pairs"):
        GateTemplate(0, 1, PAULI_X, registers=((0.5, 0),))


def test_layer_without_templates_rejected():
    with pytest.raises(ValidationError, match="at least one gate template"):
        BlockLayer(1, ())


def test_nonunitary_gate_rejected():
    bad = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValidationError):
        QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 1, bad),)),))


def test_zero_shift_rejected():
    with pytest.raises(ValidationError):
        ShiftPrimitive(0, 0)


def test_radius():
    e = QcaExpr(
        S2,
        (
            BlockLayer(2, (GateTemplate(0, 2, SWAP4),)),
            ShiftPrimitive(0, -2),
        ),
    )
    assert radius(e) == 3
    # a run of shifts moves each register rigidly by its net displacement
    s22 = SiteSpec((2, 2))
    opposed = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    assert radius(opposed) == 1
    assert radius(QcaExpr(S2, (ShiftPrimitive(0, 1), ShiftPrimitive(0, -1)))) == 0
    # a layer between two runs still mixes them: 1 + 0 + 1
    swap = BlockLayer(1, (GateTemplate(0, 1, SWAP4),))
    split = QcaExpr(s22, (ShiftPrimitive(0, 1), swap, ShiftPrimitive(1, 1)))
    assert radius(split) == 2


# -- the slot engine -----------------------------------------------------------------

def test_shift_moves_operators():
    e = shift_expr(S2, 0, 1)
    slots, mat = image(e, ((0,), PAULI_X))
    assert slots == (1,)
    assert np.allclose(mat, PAULI_X)


def test_levin_gu_generator_action():
    gamma = levin_gu_action().expr(1)
    z0 = ((0,), PAULI_Z)
    assert slot_distance(S2, image(gamma, z0), ((0,), -PAULI_Z)) <= 1e-12
    zxz = ((-1, 0, 1), np.kron(np.kron(PAULI_Z, PAULI_X), PAULI_Z))
    assert slot_distance(S2, image(gamma, ((0,), PAULI_X)), zxz) <= 1e-12


def test_apply_scalar_passthrough():
    e = shift_expr(S2, 0, 1)
    slots, mat = image(e, ((), np.array([[3j]])))
    assert slots == () and mat[0, 0] == 3j


@given(seed=st.integers(0, 10 ** 6))
def test_apply_is_isometric(seed):
    rng = np.random.default_rng(seed)
    e = QcaExpr(
        S2,
        (
            random_two_site_layer(rng, anchor=int(rng.integers(0, 2))),
            ShiftPrimitive(0, int(rng.choice([-1, 1]))),
        ),
    )
    a = random_probe(rng, S2, range(0, 2))
    out = image(e, a)
    assert abs(norm(out) - norm(a)) <= 1e-9 * max(1.0, norm(a))


def test_apply_window_growth_bounded():
    rng = np.random.default_rng(5)
    e = QcaExpr(S2, (random_two_site_layer(rng),) * 2)
    a = random_probe(rng, S2, range(0, 1))
    slots, _ = image(e, a)
    assert all(-radius(e) <= s <= radius(e) for s in slots)


def test_apply_cap(monkeypatch):
    rng = np.random.default_rng(6)
    layers = tuple(random_two_site_layer(rng, anchor=k % 2) for k in range(12))
    e = QcaExpr(S2, layers)
    a = random_probe(rng, S2, range(0, 2))
    monkeypatch.setattr(qca, "DEFAULT_DIM_CAP", 64)
    with pytest.raises(WindowCapExceeded):
        image(e, a)


# -- trimming identity slots -----------------------------------------------------------

@given(seed=st.integers(0, 10 ** 6), registers=st.sampled_from([(2,), (3,), (2, 3)]))
def test_trim_matches_partial_trace_oracle(seed, registers):
    # each slot carries the identity, a random factor, or a random diagonal
    # factor, whose off-diagonal blocks vanish but whose diagonal blocks differ
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    n = int(rng.integers(1, 4))
    slots = tuple(sorted(int(s) for s in rng.choice(6, size=n, replace=False)))
    dims = qca._slot_dims(sites, slots)
    kinds = rng.choice(["identity", "random", "diagonal"], size=n)
    random_on = [i for i in range(n) if kinds[i] == "random"]
    dk = int(np.prod([dims[i] for i in random_on]))
    B = int(rng.integers(1, 5))
    small = rng.normal(size=(B, dk, dk)) + 1j * rng.normal(size=(B, dk, dk))
    mats = tz.embed_factors_batch(small, dims, random_on)
    for i in range(n):
        if kinds[i] == "diagonal":
            diag = np.diag(rng.normal(size=dims[i]) + 1j * rng.normal(size=dims[i]))
            mats = mats @ embed_factors(diag, dims, [i])
    candidates = [s for s in slots + (6,) if rng.random() < 0.7]
    # a gate slot outside the batch enters through the union, which
    # test_engine_matches_dense_conjugation covers; here only in-batch slots
    gslots = tuple(s for s in candidates if s != 6)
    got_slots, got = conj_identity(sites, slots, mats, gslots)
    want_slots, want = trim_batch(sites, slots, mats, gslots)
    assert got_slots == want_slots
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("block", ["off-diagonal", "diagonal"])
@pytest.mark.parametrize("factor, trimmed", [(0.5, True), (2.0, False)])
def test_trim_threshold(block, factor, trimmed):
    # Z on slot 0 times a perturbed identity on slot 1; the perturbation
    # moves one entry of each affected block by factor * tol
    eps = factor * TOL_ALGEBRA
    pert = np.array([[0, eps], [0, 0]]) if block == "off-diagonal" else np.diag([eps, -eps])
    mats = np.kron(PAULI_Z, np.eye(2) + pert)[None].astype(complex)
    slots, out = conj_identity(S2, (0, 1), mats, (1,))
    assert slots == trim_batch(S2, (0, 1), mats, (1,))[0]
    if trimmed:
        assert slots == (0,) and np.max(np.abs(out[0] - PAULI_Z)) <= 1e-15
    else:
        assert slots == (0, 1) and np.array_equal(out, mats)


# -- compose and invert ------------------------------------------------------------

def test_compose_invert_gives_identity(rng):
    e = QcaExpr(
        S2,
        (
            random_two_site_layer(rng),
            ShiftPrimitive(0, 1),
            random_two_site_layer(rng, anchor=1),
        ),
    )
    ei = compose(e, invert(e))
    units = matrix_unit_batch(2)
    for j in (-1, 0, 2):
        assert (
            action_distance(ei, identity_expr(S2), range(j, j + 1), units)
            <= 1e-9
        )


def test_compose_rejects_mixed_sitespecs():
    e2 = QcaExpr(SiteSpec((2, 2)), (ShiftPrimitive(1, 1),))
    for e1, e2 in ((shift_expr(S2, 0, 1), e2), (e2, shift_expr(S2, 0, 1))):
        with pytest.raises(ValidationError, match="different SiteSpecs"):
            compose(e1, e2)


def test_compose_equals_validated_expression(rng):
    e1 = QcaExpr(S2, (random_two_site_layer(rng), ShiftPrimitive(0, 1)))
    e2 = QcaExpr(S2, (ShiftPrimitive(0, -1), random_two_site_layer(rng, anchor=1)))
    composed = compose(e1, e2)
    built = QcaExpr(S2, e2.steps + e1.steps)
    assert type(composed) is QcaExpr
    assert composed.sites == built.sites
    assert len(composed.steps) == len(built.steps) == 4
    assert all(a is b for a, b in zip(composed.steps, built.steps))
    assert expr_to_data(composed) == expr_to_data(built)


def test_invert_shift():
    e = invert(shift_expr(S2, 0, 1))
    assert e.steps == (ShiftPrimitive(0, -1),)


def test_levin_gu_is_involution():
    gamma = levin_gu_action().expr(1)
    gg = compose(gamma, gamma)
    units = matrix_unit_batch(2)
    for j in (-2, -1, 0, 1, 2):
        assert (
            action_distance(gg, identity_expr(S2), range(j, j + 1), units)
            <= 1e-9
        )


def test_compose_order_convention(rng):
    # compose(e1, e2) maps A to e1(e2(A))
    e1 = QcaExpr(S2, (random_two_site_layer(rng),))
    e2 = shift_expr(S2, 0, 1)
    a = random_probe(rng, S2, range(0, 1))
    lhs = image(compose(e1, e2), a)
    rhs = image(e1, image(e2, a))
    assert slot_distance(S2, lhs, rhs) <= 1e-12 * max(1.0, norm(a))


# -- symbolic index ------------------------------------------------------------------

def test_gnvw_symbolic_shift():
    assert gnvw_symbolic(shift_expr(S2, 0, 1)) == 2
    s6 = SiteSpec((6,))
    assert gnvw_symbolic(shift_expr(s6, 0, -1)) == Fraction(1, 6)


def test_gnvw_symbolic_layers_zero(rng):
    e = QcaExpr(S2, (random_two_site_layer(rng),))
    assert gnvw_symbolic(e) == 1


def test_gnvw_symbolic_opposite_shifts_cancel():
    s22 = SiteSpec((2, 2))
    e = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    assert gnvw_symbolic(e) == 1


@given(seed=st.integers(0, 10 ** 6))
def test_gnvw_symbolic_homomorphism(seed):
    rng = np.random.default_rng(seed)
    s23 = SiteSpec((2, 3))

    def rand_expr():
        steps = []
        for _ in range(int(rng.integers(1, 4))):
            steps.append(
                ShiftPrimitive(int(rng.integers(0, 2)), int(rng.choice([-2, -1, 1, 2])))
            )
        return QcaExpr(s23, tuple(steps))

    e1, e2 = rand_expr(), rand_expr()
    assert gnvw_symbolic(compose(e1, e2)) == gnvw_symbolic(e1) * gnvw_symbolic(e2)
    assert gnvw_symbolic(invert(e1)) == 1 / gnvw_symbolic(e1)


def test_index_prime_exponents_and_text():
    assert prime_exponents(Fraction(12)) == [(2, 2), (3, 1)]  # 2^2 * 3
    assert prime_exponents(Fraction(1)) == []
    assert index_text(Fraction(1)) == "0"
    assert index_text(Fraction(2, 3)) == "1*log2 + -1*log3"


# -- support algebras ------------------------------------------------------------------

def test_support_algebra_zz():
    zz = (range(0, 2), np.kron(PAULI_Z, PAULI_Z))
    assert support_algebra_dim(S2, [zz], range(0, 1)) == 2


def test_support_algebra_swap_moves_full_matrix_algebra():
    swap_layer = QcaExpr(S2, (BlockLayer(2, (GateTemplate(-1, 2, SWAP4),)),))
    images = unit_images(swap_layer, range(-1, 0))
    assert support_algebra_dim(S2, images, range(0, 1)) == 4


def test_support_algebra_identity():
    iden = (range(0, 1), np.eye(2, dtype=complex))
    assert support_algebra_dim(S2, [iden], range(3, 6)) == 1


# -- numeric index ----------------------------------------------------------------------

def test_gnvw_numeric_shift_dimensions():
    e = shift_expr(S2, 0, 1)
    assert support_dims(e) == (4, 1)
    assert gnvw_numeric(e) == 2


def test_gnvw_numeric_swap_layer_zero():
    swap_layer = QcaExpr(S2, (BlockLayer(2, (GateTemplate(-1, 2, SWAP4),)),))
    assert gnvw_numeric(swap_layer) == 1


def test_gnvw_numeric_levin_gu_zero():
    assert gnvw_numeric(levin_gu_action().expr(1)) == 1


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
def test_gnvw_numeric_matches_symbolic_random(seed):
    rng = np.random.default_rng(seed)
    steps = [random_two_site_layer(rng, anchor=int(rng.integers(0, 2)))]
    if rng.integers(0, 2):
        steps.append(ShiftPrimitive(0, int(rng.choice([-1, 1]))))
    rng.shuffle(steps)
    e = QcaExpr(S2, tuple(steps))
    assert gnvw_numeric(e) == gnvw_symbolic(e)


def overlaps(e):
    """(eta_lr, eta_rl) on the windows gnvw_numeric uses."""
    r = max(radius(e), 1)
    return (
        qca._overlap(e, range(-r, 0), range(0, 2 * r)),
        qca._overlap(e, range(0, r), range(-2 * r, 0)),
    )


@pytest.mark.parametrize(
    "expr, etas, index",
    [
        (shift_expr(S2, 0, 1), (4, 1), 2),
        (levin_gu_action().expr(1), (1, 1), 1),
        (shift_expr(SiteSpec((3,)), 0, -1), (1, 9), Fraction(1, 3)),
    ],
    ids=["qubit_right_shift", "levin_gu", "qutrit_left_shift"],
)
def test_gnvw_overlaps_pinned(expr, etas, index):
    assert overlaps(expr) == pytest.approx(etas, abs=1e-12)
    assert gnvw_numeric(expr) == index


def test_overlap_ratio_of_opposed_shifts():
    # qubit right, qutrit left: the index 2/3 has no integer overlap ratio
    e = QcaExpr(SiteSpec((2, 3)), (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    lr = qca._overlap(e, range(-1, 0), range(0, 2))
    rl = qca._overlap(e, range(0, 1), range(-2, 0))
    assert (lr, rl) == pytest.approx((4, 9), abs=1e-12)
    # radius 1, so the d = 6 unit batch has 36 units, within the cap
    assert gnvw_numeric(e) == Fraction(2, 3)


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
def test_overlap_ratio_matches_support_algebra_oracle(seed):
    # radius <= 2 on qubits: one layer and an optional shift, or two layers
    rng = np.random.default_rng(seed)
    steps = [random_two_site_layer(rng, anchor=int(rng.integers(0, 2)))]
    if rng.integers(0, 2):
        steps.append(ShiftPrimitive(0, int(rng.choice([-1, 1]))))
    else:
        steps.append(random_two_site_layer(rng, anchor=int(rng.integers(0, 2))))
    rng.shuffle(steps)
    e = QcaExpr(S2, tuple(steps))
    lr, rl = overlaps(e)
    dim_r, dim_l = support_dims(e)
    assert lr / rl == pytest.approx(dim_r / dim_l, abs=1e-9)


# -- shift neutralization ------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_balance_shift_pair_becomes_two_swap_layers(k):
    s22 = SiteSpec((2, 2))
    e = QcaExpr(s22, (ShiftPrimitive(0, k), ShiftPrimitive(1, -k)))
    out = balance_shifts(e)
    assert all(isinstance(s, BlockLayer) for s in out.steps)
    # the on-site register swap, then one swap of span k + 1
    assert [s.templates[0].span for s in out.steps] == [1, k + 1]
    units = matrix_unit_batch(4)
    for j in range(-2 * k, 2 * k + 1):
        assert action_distance(e, out, range(j, j + 1), units) <= 1e-9


def test_balance_one_circuit_per_register_pair():
    # net (+2, -1, -1) pairs register 0 once with 1 and once with 2
    s222 = SiteSpec((2, 2, 2))
    e = QcaExpr(s222, (ShiftPrimitive(0, 2), ShiftPrimitive(1, -1), ShiftPrimitive(2, -1)))
    out = balance_shifts(e)
    assert [s.templates[0].span for s in out.steps] == [1, 2, 1, 2]
    units = qca.column_units(8)
    for j in range(-4, 5):
        assert action_distance(e, out, range(j, j + 1), units) <= 1e-9


def test_unit_pair_swap_steps_are_the_staggered_swap():
    # the on-site register swap, then (j, 1) swapped with (j + 1, 0), bit for bit
    onsite, staggered = qca._pair_swap_steps(SiteSpec((2, 2)), 0, 1, 1)
    for layer, anchor, span, regs in ((onsite, 0, 1, None), (staggered, 0, 2, ((0, 1), (1, 0)))):
        assert (layer.period, layer.min_site, layer.max_site) == (1, None, None)
        (t,) = layer.templates
        assert (t.anchor, t.span, t.registers) == (anchor, span, regs)
        assert t.unitary.dtype == complex and np.array_equal(t.unitary, SWAP4)


def test_balance_layer_only_unchanged(rng):
    e = QcaExpr(S2, (random_two_site_layer(rng),))
    assert balance_shifts(e) is e


def test_balance_lone_shift_rejected():
    with pytest.raises(NonZeroIndex, match=r"^nonzero index 1\*log2: not a circuit$"):
        balance_shifts(shift_expr(S2, 0, 1))


def test_balance_unpairable_mixed_dimensions():
    s = SiteSpec((6, 2, 3))
    e = QcaExpr(
        s,
        (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1), ShiftPrimitive(2, -1)),
    )
    assert gnvw_symbolic(e) == 1
    with pytest.raises(UnpairableShifts):
        balance_shifts(e)


def test_balance_commutes_past_uniform_onsite_layer():
    # a uniform single-register layer commutes with the shift of that register
    s22 = SiteSpec((2, 2))
    tmpl = GateTemplate(0, 1, PAULI_X, registers=((0, 0),))
    e = QcaExpr(
        s22,
        (ShiftPrimitive(0, 1), BlockLayer(1, (tmpl,)), ShiftPrimitive(1, -1)),
    )
    out = balance_shifts(e)
    assert not out.has_shifts
    units = matrix_unit_batch(4)
    for j in (-2, 0, 2):
        assert action_distance(e, out, range(j, j + 1), units) <= 1e-9


def test_balance_conjugates_a_noncommuting_layer(rng):
    # a generic entangling layer after a pending shift is conjugated by it
    s22 = SiteSpec((2, 2))
    layer = BlockLayer(2, (GateTemplate(0, 2, random_unitary(16, rng)),))
    e = QcaExpr(
        s22,
        (ShiftPrimitive(0, 1), layer, ShiftPrimitive(1, -1)),
    )
    out = balance_shifts(e)
    assert not out.has_shifts
    units = matrix_unit_batch(4)
    for j in range(-3, 4):
        assert action_distance(e, out, range(j, j + 1), units) <= 1e-9


def test_balance_refuses_a_truncated_layer_on_a_shifted_register(rng):
    s22 = SiteSpec((2, 2))
    layer = BlockLayer(2, (GateTemplate(0, 2, random_unitary(16, rng)),), min_site=0)
    e = QcaExpr(s22, (ShiftPrimitive(0, 1), layer, ShiftPrimitive(1, -1)))
    with pytest.raises(UnpairableShifts):
        balance_shifts(e)


def _random_layer(rng, sites: SiteSpec) -> BlockLayer:
    """One template of span 1 or 2 on one or two random slots, repeated
    with a period at least its span."""
    R = sites.nregisters
    span = int(rng.integers(1, 3))
    slots = [(off, r) for off in range(span) for r in range(R)]
    n = int(rng.integers(1, 3))
    regs = tuple(sorted(slots[i] for i in rng.choice(len(slots), n, replace=False)))
    dim = math.prod(sites.registers[r] for _, r in regs)
    tmpl = GateTemplate(int(rng.integers(0, 2)), span, random_unitary(dim, rng), regs)
    return BlockLayer(span + int(rng.integers(0, 2)), (tmpl,))


def _random_shift_pair_circuit(rng, sites: SiteSpec) -> QcaExpr:
    """One to three `_random_layer`s and one opposite pair of unit shifts,
    each placed anywhere among the layers."""
    R = sites.nregisters
    steps = [_random_layer(rng, sites) for _ in range(int(rng.integers(1, 4)))]
    for reg, sign in ((int(rng.integers(0, R)), 1), (int(rng.integers(0, R)), -1)):
        steps.insert(int(rng.integers(0, len(steps) + 1)), ShiftPrimitive(reg, sign))
    return QcaExpr(sites, tuple(steps))


@given(seed=st.integers(0, 10 ** 6), registers=st.sampled_from([(2, 2), (2, 2, 2)]))
def test_balance_shift_pair_among_random_layers(seed, registers):
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    e = _random_shift_pair_circuit(rng, sites)
    out = balance_shifts(e)
    assert not out.has_shifts
    units = qca.column_units(sites.dim)
    for j in range(-3, 4):
        assert action_distance(e, out, range(j, j + 1), units) <= 1e-9


@given(seed=st.integers(0, 10 ** 6), registers=st.sampled_from([(2, 2), (2, 2, 2)]))
def test_derived_circuits_are_valid(seed, registers):
    # truncation, inversion and shift conjugation build their circuits
    # without validating them again; validating them here must pass
    e = _random_shift_pair_circuit(np.random.default_rng(seed), SiteSpec(registers))
    balanced = balance_shifts(e)
    for out in (invert(e), balanced, invert(balanced), restrict_right(balanced)):
        QcaExpr(out.sites, out.steps)


@settings(max_examples=15)
@given(seed=st.integers(0, 10 ** 6), registers=st.sampled_from([(2, 2), (2, 2, 2)]))
def test_batches_come_on_their_minimal_support(seed, registers):
    # the slot engine trims only a conjugated gate's slots, so every batch
    # the program builds must carry no identity slot, and neither may its
    # images; under a circuit followed by its inverse only the gates' trims
    # undo the spread
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    e = _random_shift_pair_circuit(rng, sites)
    R = sites.nregisters
    chosen = rng.choice(2 * R, size=int(rng.integers(1, 3)), replace=False)
    active = tuple(sorted(int(s) for s in chosen))
    window = qca._slots_of_window(sites, range(0, 1))
    batches = [qca.site_probe(sites, j) for j in range(-2, 3)] + [
        (active, qca.column_units(math.prod(qca._slot_dims(sites, active)))),
        (window, math.sqrt(sites.dim) * matrix_unit_batch(sites.dim)),
    ]
    for slots, mats in batches:
        images = [qca._run_batch(x, slots, mats) for x in (e, compose(invert(e), e))]
        for batch in [(slots, mats)] + images:
            got_slots, got = trim_batch(sites, *batch, batch[0])
            assert got_slots == tuple(batch[0])
            assert np.array_equal(got, batch[1])


# -- serialization -----------------------------------------------------------------------

def test_expr_serialization_roundtrip(rng):
    tmpl = GateTemplate(0, 2, random_unitary(16, rng))
    reg_tmpl = GateTemplate(0, 2, SWAP4, registers=((0, 1), (1, 0)))
    e = QcaExpr(
        SiteSpec((2, 2)),
        (
            BlockLayer(2, (tmpl,), min_site=0),
            ShiftPrimitive(1, -1),
            BlockLayer(1, (reg_tmpl,)),
        ),
    )
    data = expr_to_data(e)
    text = {"mode": "gnvw", "action": {"site": {"registers": [2, 2]}, "steps": data}}
    back = cli.parse_config(yaml.safe_dump(text)).gnvw_expr
    assert expr_to_data(back) == data
    units = matrix_unit_batch(4)
    assert action_distance(e, back, range(0, 1), units) <= 1e-12


def test_single_gate_expr(rng):
    u = random_unitary(4, rng)
    gate = ((2, 3), u)
    e = single_gate_expr(S2, *gate)
    probe = random_probe(rng, S2, range(2, 4))
    expected = slot_product(S2, gate, probe, ((2, 3), u.conj().T))
    assert slot_distance(S2, image(e, probe), expected) <= 1e-9 * max(1.0, norm(probe))
    far = random_probe(rng, S2, range(5, 6))
    assert slot_distance(S2, image(e, far), far) <= 1e-12 * max(1.0, norm(far))


def test_gnvw_numeric_input_cap():
    # four-dimensional sites at radius 2 would need a 256-element unit batch
    s22 = SiteSpec((2, 2))
    e = QcaExpr(
        s22,
        (
            BlockLayer(2, (GateTemplate(0, 2, np.eye(16, dtype=complex)),)),
            ShiftPrimitive(0, 1),
            ShiftPrimitive(1, -1),
        ),
    )
    with pytest.raises(WindowCapExceeded):
        gnvw_numeric(e)


def test_gnvw_numeric_guard_errors(monkeypatch):
    # white-box: force inconsistent overlaps through both guards
    from chainomaly.errors import IndexMismatch, NonSquareRatio

    e = shift_expr(S2, 0, 1)

    def fake_overlaps(values):
        it = iter(values)
        return lambda expr, inputs, outputs, dim_cap=None: next(it)

    for values in ([8, 1], [4.3, 1]):  # a non-square and a non-rational ratio
        monkeypatch.setattr(qca, "_overlap", fake_overlaps(values))
        with pytest.raises(NonSquareRatio):
            gnvw_numeric(e)
    monkeypatch.setattr(qca, "_overlap", fake_overlaps([16, 1]))
    with pytest.raises(IndexMismatch):
        gnvw_numeric(e)


def test_balance_same_register_cancellation():
    # opposite unit shifts of one register compose to the identity
    e = QcaExpr(S2, (ShiftPrimitive(0, 1), ShiftPrimitive(0, -1)))
    out = balance_shifts(e)
    assert not out.has_shifts
    units = matrix_unit_batch(2)
    for j in (-1, 0, 1):
        assert (
            action_distance(out, identity_expr(S2), range(j, j + 1), units)
            <= 1e-9
        )


def test_probe_sites_widen_to_a_period_and_past_every_bound():
    x = GateTemplate(0, 1, PAULI_X)
    flip = QcaExpr(S2, (BlockLayer(1, (x,)), BlockLayer(2, (x,))))
    assert qca._probe_sites([flip]) == range(0, 2)
    ten = QcaExpr(S2, (BlockLayer(10, (x,)),))
    assert qca._probe_sites([flip, ten]) == range(0, 10)
    # radius 0: reach 1 and a period of 2 past each bound
    bounded = QcaExpr(S2, (BlockLayer(2, (x,), min_site=-5, max_site=4),))
    assert qca._probe_sites([bounded]) == range(-8, 8)
    # the shift by 3 makes the radius 3 and the reach 7
    shifted = QcaExpr(S2, bounded.steps + (ShiftPrimitive(0, 3),))
    assert qca._probe_sites([shifted]) == range(-14, 14)


def test_same_action_check_sees_a_long_period():
    # the two layers differ on the sites 5 mod 10 only, outside -2 .. 2
    def layer(at_5):
        gates = (GateTemplate(0, 1, PAULI_X), GateTemplate(5, 1, at_5))
        return QcaExpr(S2, (BlockLayer(10, gates),))

    qca._verify_same_action(layer(PAULI_Z), layer(PAULI_Z))
    with pytest.raises(InvariantViolation, match="at site 5"):
        qca._verify_same_action(layer(PAULI_Z), layer(np.eye(2)))


def test_register_distances_are_read_per_register():
    # a site of a qubit and a qutrit is probed with 2 + 3 units, not 6; a
    # shift of the qutrit moves its units only, each to a distance of at
    # most sqrt(2 * 6), the norm of u x 1 - 1 x u for tr u = 0
    sites = SiteSpec((2, 3))
    probe = qca.site_probe(sites, 4)
    assert probe[0] == (8, 9) and probe[1].shape == (5, 6, 6)
    moved = qca._run_batch(QcaExpr(sites, (ShiftPrimitive(1, 1),)), *probe)
    dist = qca.register_distances(sites, probe, moved)
    assert dist.tolist() == [0.0, pytest.approx(math.sqrt(12))]


def _conj_on_factors(mat, buf, dims, pos, u):
    """mat <- u mat u^+ in place, for u acting on the consecutive factors
    `pos` of `dims`, contracted on those factors only; `buf` is scratch of
    mat's shape, so no window-sized array is allocated."""
    assert list(pos) == list(range(pos[0], pos[-1] + 1))
    D, g = len(mat), len(u)
    a, c = math.prod(dims[: pos[0]]), math.prod(dims[pos[-1] + 1:])
    np.matmul(u, mat.reshape(a, g, c * D), out=buf.reshape(a, g, c * D))
    np.matmul(u.conj(), buf.reshape(D * a, g, c), out=mat.reshape(D * a, g, c))


def _dense_layer_apply(expr, op, margin):
    """Independent oracle: embed into one big window and conjugate by every
    layer gate inside it, gate by gate (layer-only expressions)."""
    R = expr.sites.nregisters
    big = range(min(op[0]) // R - margin, max(op[0]) // R + margin + 1)
    full = qca._slots_of_window(expr.sites, big)
    dims = [expr.sites.registers[s % R] for s in full]
    # an owned contiguous copy: it is updated in place through reshaped views
    mat = np.array(embed_factors(op[1], dims, [full.index(s) for s in op[0]]), dtype=complex)
    buf = np.empty_like(mat)
    for step in expr.steps:
        assert isinstance(step, BlockLayer)
        for tmpl in step.templates:
            k = (big.start - tmpl.anchor) // step.period - 1
            while True:
                base = tmpl.anchor + k * step.period
                lo, hi = tmpl.window_at(base)
                k += 1
                if hi >= big.stop:
                    break
                if lo < big.start:
                    continue
                if step.min_site is not None and lo < step.min_site:
                    continue
                if step.max_site is not None and hi > step.max_site:
                    continue
                pos = [s - big.start * R for s in tmpl.slots_at(base, R)]
                _conj_on_factors(mat, buf, dims, pos, tmpl.unitary)
    return full, mat


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
@example(seed=59)  # three two-site layers and a two-site probe: a 12-site window
def test_engine_matches_dense_conjugation(seed):
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.integers(0, 2):
            steps.append(random_two_site_layer(rng, anchor=int(rng.integers(0, 2))))
        else:
            u = random_unitary(2, rng)
            steps.append(BlockLayer(1, (GateTemplate(0, 1, u),)))
    e = QcaExpr(S2, tuple(steps))
    a = random_probe(rng, S2, range(0, int(rng.integers(0, 2)) + 1))
    fast = image(e, a)
    slow = _dense_layer_apply(e, a, radius(e) + 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qca, "DEFAULT_DIM_CAP", 1 << 16)
        assert slot_distance(S2, fast, slow) <= 1e-9 * max(1.0, norm(a))


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
def test_engine_matches_dense_with_truncated_layers(seed):
    rng = np.random.default_rng(seed)
    layer = random_two_site_layer(rng, anchor=int(rng.integers(-1, 2)))
    e = QcaExpr(S2, (replace(layer, min_site=0),))
    a = random_probe(rng, S2, range(-1, 2))
    fast = image(e, a)
    slow = _dense_layer_apply(e, a, radius(e) + 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qca, "DEFAULT_DIM_CAP", 1 << 16)
        assert slot_distance(S2, fast, slow) <= 1e-9 * max(1.0, norm(a))


# -- swap gates relabel slots ---------------------------------------------------------------

def _count_conj(monkeypatch):
    """Count the gates the slot engine conjugates by matrix products."""
    calls = []
    real = qca._conj_gate_batch

    def counting(sites, slots, mats, gslots, gate):
        calls.append(gslots)
        return real(sites, slots, mats, gslots, gate)

    monkeypatch.setattr(qca, "_conj_gate_batch", counting)
    return calls


@given(
    seed=st.integers(0, 10 ** 6),
    registers=st.sampled_from([(2,), (3,), (2, 2), (3, 3), (2, 3, 3)]),
    held=st.sampled_from(["x", "y", "both"]),
)
def test_swap_relabel_matches_permutation_oracle(seed, registers, held):
    # one swap of equal-dimension slots x < y among three sites, on a batch
    # holding x, y or both, plus up to two other slots; the oracle is the
    # dense conjugation by the permutation, which is exact
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    slots = range(3 * sites.nregisters)
    dims = qca._slot_dims(sites, slots)
    pairs = [(a, b) for a in slots for b in slots if a < b and dims[a] == dims[b]]
    x, y = pairs[rng.integers(len(pairs))]
    others = [s for s in slots if s not in (x, y)]
    extra = rng.choice(others, size=int(rng.integers(0, min(2, len(others)) + 1)), replace=False)
    held_slots = {"x": [x], "y": [y], "both": [x, y]}[held]
    support = tuple(sorted(held_slots + [int(s) for s in extra]))
    n = math.prod(qca._slot_dims(sites, support))
    B = int(rng.integers(1, 4))
    mats = rng.uniform(-1, 1, (B, n, n)) + 1j * rng.uniform(-1, 1, (B, n, n))
    swap = tz.factor_swap_matrix([dims[x], dims[x]], 0, 1)
    expr = single_gate_expr(sites, (x, y), swap)

    union = tuple(sorted(set(support) | {x, y}))
    udims = qca._slot_dims(sites, union)

    def on_swap_union(op_slots, op):
        return tz.embed_factors_batch(op, udims, [union.index(s) for s in op_slots])

    P = tz.factor_swap_matrix(udims, union.index(x), union.index(y))
    want = P @ on_swap_union(support, mats) @ P.T

    with pytest.MonkeyPatch.context() as mp:
        calls = _count_conj(mp)
        got_slots, got = qca._run_batch(expr, support, mats)
    assert calls == []
    assert got_slots == tuple(sorted({x: y, y: x}.get(s, s) for s in support))
    assert np.array_equal(on_swap_union(got_slots, got), want)

    # the matrix path agrees up to its trim, which averages d equal blocks
    gate = expr.steps[0].templates[0]
    old_slots, old = qca._conj_gate_batch(sites, support, mats, (x, y), gate)
    assert old_slots == got_slots
    assert np.max(np.abs(old - got)) <= 1e-15


SWAP_NOT_EXACT = SWAP4.copy()
SWAP_NOT_EXACT[0, 0] = np.nextafter(1, 0)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@pytest.mark.parametrize(
    "registers, gate",
    [
        ((2, 2), np.exp(0.3j) * SWAP4),
        ((2, 2), SWAP_NOT_EXACT),
        ((2, 2), CNOT),
        ((2, 2), np.kron(PAULI_X, PAULI_X)),
        ((2, 3), np.eye(6, dtype=complex)[[1, 2, 3, 4, 5, 0]]),
    ],
    ids=["rephased_swap", "swap_one_ulp_off", "cnot", "xx", "perm6_on_2x3"],
)
def test_non_swap_gates_take_the_matrix_path(monkeypatch, registers, gate):
    sites = SiteSpec(registers)
    rng = np.random.default_rng(7)
    e = single_gate_expr(sites, (0, 1), gate)
    assert e.steps[0].templates[0].factor_swap(sites) is None
    calls = _count_conj(monkeypatch)
    a = random_probe(rng, sites, range(0, 1))
    image(e, a)
    assert calls == [(0, 1)]


def test_swap_of_outer_factors_relabels(monkeypatch):
    # a three-factor template that swaps its outer factors and is identity
    # on the middle one; factor_swap names the positions in slot order
    sites = SiteSpec((2, 3, 2))
    t = GateTemplate(0, 1, tz.factor_swap_matrix([2, 3, 2], 0, 2))
    assert t.factor_swap(sites) == (0, 2)
    assert GateTemplate(0, 1, np.eye(12)).factor_swap(sites) is None
    calls = _count_conj(monkeypatch)
    slots, mat = image(QcaExpr(sites, (BlockLayer(1, (t,)),)), ((3,), PAULI_Z))
    assert calls == [] and slots == (5,) and np.array_equal(mat, PAULI_Z)


@pytest.mark.parametrize(
    "registers, balanced",
    [((2, 3), False), ((2, 2), True)],
    ids=["qubit_right_qutrit_left", "balanced_qubit_pair"],
)
def test_gnvw_numeric_same_with_swaps_conjugated_as_matrices(monkeypatch, registers, balanced):
    expr = QcaExpr(SiteSpec(registers), (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    if balanced:
        expr = balance_shifts(expr)
    calls = _count_conj(monkeypatch)
    fast = overlaps(expr), gnvw_numeric(expr)
    assert calls == []
    monkeypatch.setattr(GateTemplate, "factor_swap", lambda self, sites: None)
    assert (overlaps(expr), gnvw_numeric(expr)) == fast


# -- scalar layer runs are dropped ------------------------------------------------------------

def _inverse_layer(layer: BlockLayer) -> BlockLayer:
    return invert(QcaExpr(S2, (layer,))).steps[0]


def test_a_layer_then_its_inverse_cancels(rng):
    a, layer, b = (random_two_site_layer(rng, anchor=k % 2) for k in range(3))
    e = QcaExpr(S2, (a, layer, _inverse_layer(layer), b))
    assert qca.cancel_scalar_runs(e).steps == (a, b)
    # the inverse first and the layer second is a pair too
    e = QcaExpr(S2, (_inverse_layer(layer), layer))
    assert qca.cancel_scalar_runs(e).steps == ()


def test_nested_inverse_pairs_cancel(rng):
    outer, inner, last = (random_two_site_layer(rng) for _ in range(3))
    steps = (outer, inner, _inverse_layer(inner), _inverse_layer(outer))
    assert qca.cancel_scalar_runs(QcaExpr(S2, steps)).steps == ()
    assert qca.cancel_scalar_runs(QcaExpr(S2, steps + (last,))).steps == (last,)


def _one_ulp_off(layer: BlockLayer) -> BlockLayer:
    t = layer.templates[0]
    u = t.unitary.copy()
    u[0, 0] = np.nextafter(u[0, 0].real, 2.0) + 1j * u[0, 0].imag
    return replace(layer, templates=(replace(t, unitary=u),))


def _phase_off(layer: BlockLayer) -> BlockLayer:
    # still exactly unitary: the first column turned by the phase 1e-9
    t = layer.templates[0]
    u = t.unitary.copy()
    u[:, 0] *= np.exp(1e-9j)
    return replace(layer, templates=(replace(t, unitary=u),))


def test_an_inverse_off_by_one_ulp_is_dropped(rng):
    # one ulp keeps the product within TOL_ALGEBRA of the identity
    layer = random_two_site_layer(rng)
    e = QcaExpr(S2, (layer, _one_ulp_off(_inverse_layer(layer))))
    assert qca.cancel_scalar_runs(e).steps == ()


@pytest.mark.parametrize(
    "change",
    [
        _phase_off,
        lambda layer: replace(layer, min_site=0),
        lambda layer: replace(layer, max_site=9),
        lambda layer: replace(layer, templates=(replace(layer.templates[0], anchor=1),)),
    ],
    ids=["phase-1e-9", "min-site", "max-site", "anchor"],
)
def test_a_near_inverse_is_kept(rng, change):
    layer = random_two_site_layer(rng)
    e = QcaExpr(S2, (layer, change(_inverse_layer(layer))))
    assert qca.cancel_scalar_runs(e) is e


def test_shifts_are_never_cancelled(rng):
    sites = SiteSpec((2, 2))
    layer = BlockLayer(1, (GateTemplate(0, 1, random_unitary(4, rng)),))
    inverse = invert(QcaExpr(sites, (layer,))).steps[0]
    for steps in [
        (ShiftPrimitive(0, 1), ShiftPrimitive(0, -1)),
        (layer, ShiftPrimitive(1, 2), ShiftPrimitive(1, -2), inverse),
    ]:
        e = QcaExpr(sites, steps)
        assert qca.cancel_scalar_runs(e) is e


def test_a_lone_scalar_layer_is_kept():
    # runs start at two layers: no pushed layer is tested on its own
    e = QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 1, 1j * np.eye(2)),)),))
    assert qca.cancel_scalar_runs(e) is e


def _bounded_random_layer(rng, sites: SiteSpec) -> BlockLayer:
    out = _random_layer(rng, sites)
    bounds = rng.integers(-3, 4, size=2)
    keep = rng.integers(0, 2, size=2)
    return replace(
        out,
        min_site=int(bounds[0]) if keep[0] else None,
        max_site=int(bounds[0] + abs(bounds[1]) + 2) if keep[1] else None,
    )


def _assert_same_action(e: QcaExpr, cancelled: QcaExpr):
    units = qca.column_units(e.sites.dim)
    for j in qca._probe_sites((e,)):
        assert action_distance(e, cancelled, range(j, j + 1), units) <= 1e-12


@given(
    seed=st.integers(0, 10 ** 6),
    registers=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
)
def test_cancelled_circuit_acts_like_the_uncancelled_one(seed, registers):
    # random layers, some truncated, with inverse pairs inserted at random
    # places, some nested; cancelling removes every inserted pair
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    base = [_bounded_random_layer(rng, sites) for _ in range(int(rng.integers(1, 4)))]
    steps = list(base)
    for _ in range(int(rng.integers(1, 4))):
        extra = _bounded_random_layer(rng, sites)
        at = int(rng.integers(0, len(steps) + 1))
        steps[at:at] = [extra, invert(QcaExpr(sites, (extra,))).steps[0]]
    e = QcaExpr(sites, tuple(steps))
    cancelled = qca.cancel_scalar_runs(e)
    assert cancelled.steps == tuple(base)
    _assert_same_action(e, cancelled)


@given(
    seed=st.integers(0, 10 ** 6),
    registers=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
)
def test_scalar_runs_vanish(seed, registers):
    # runs of 2 or 3 random layers on one placement, closed by e^(i phi)
    # times the inverse of their gate-wise product, inserted among random
    # layers; each run is dropped whole and the action does not move
    rng = np.random.default_rng(seed)
    sites = SiteSpec(registers)
    base = [_bounded_random_layer(rng, sites) for _ in range(int(rng.integers(1, 4)))]
    steps = list(base)
    for _ in range(int(rng.integers(1, 3))):
        first = _bounded_random_layer(rng, sites)
        t = first.templates[0]
        run = [first] + [
            replace(first, templates=(replace(t, unitary=random_unitary(len(t.unitary), rng)),))
            for _ in range(int(rng.integers(1, 3)))
        ]
        product = np.eye(len(t.unitary))
        for layer in run:
            product = layer.templates[0].unitary @ product
        closing = np.exp(2j * np.pi * rng.uniform()) * product.conj().T
        run.append(replace(first, templates=(replace(t, unitary=closing),)))
        at = int(rng.integers(0, len(steps) + 1))
        steps[at:at] = run
    e = QcaExpr(sites, tuple(steps))
    cancelled = qca.cancel_scalar_runs(e)
    assert cancelled.steps == tuple(base)
    _assert_same_action(e, cancelled)


# -- the gates of a layer that meet a batch --------------------------------------------------

@st.composite
def _layer_and_slots(draw):
    # gates of dimension at most 512, the largest np.eye drawn
    registers = draw(st.sampled_from([(2,), (2, 2), (3, 2), (2, 2, 2)]))
    sites = SiteSpec(registers)
    R = sites.nregisters
    templates = []
    for _ in range(draw(st.integers(1, 2))):
        span = draw(st.integers(1, 3))
        places = [(off, r) for off in range(span) for r in range(R)]
        chosen = draw(st.one_of(st.none(), st.sets(st.sampled_from(places), min_size=1)))
        regs = None if chosen is None else tuple(sorted(chosen))
        dim = math.prod(
            sites.registers[r] for _, r in (places if regs is None else regs)
        )
        anchor = draw(st.integers(-5, 5))
        templates.append(GateTemplate(anchor, span, np.eye(dim), regs))
    bound = st.one_of(st.none(), st.integers(-8, 8))
    layer = BlockLayer(draw(st.integers(1, 5)), tuple(templates), draw(bound), draw(bound))
    slots = draw(st.sets(st.integers(-10 * R, 10 * R - 1), max_size=6))
    return sites, layer, tuple(sorted(slots))


@settings(max_examples=60)
@given(case=_layer_and_slots())
def test_layer_gates_match_the_walk_over_translates(case):
    sites, layer, slots = case
    got = [(gslots, t) for gslots, t, _ in qca._layer_gates(layer, sites, slots)]
    assert got == layer_gates_by_translates(layer, sites, slots)
