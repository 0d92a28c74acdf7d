import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainomaly import _tensors as tz
from chainomaly import qca
from chainomaly.anomaly import levin_gu_action
from chainomaly.errors import (
    NonZeroIndex,
    UnpairableShifts,
    ValidationError,
    WindowCapExceeded,
)
from chainomaly.opwin import PAULI_X, PAULI_Z, SiteSpec, Window
from chainomaly.qca import (
    BlockLayer,
    GateTemplate,
    PrimeLog,
    QcaExpr,
    ShiftPrimitive,
    action_distance_on_units,
    balance_shifts,
    compose,
    expr_from_data,
    expr_to_data,
    gnvw_numeric,
    gnvw_symbolic,
    identity_expr,
    invert,
    matrix_unit_batch,
    radius,
)

from conftest import image, random_unitary, single_gate_expr, slot_distance, slot_product
from helpers_support_algebra import support_algebra_dim, support_dims, unit_images

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
    """A random operator on all slots of `window`, as (slots, matrix)."""
    n = sites.dim ** window.length
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return qca._slots_of_window(sites, window), m


def norm(op) -> float:
    return tz.operator_norm(op[1])


# -- structure validation ------------------------------------------------------

def test_layer_overlap_rejected():
    with pytest.raises(ValidationError):
        QcaExpr(S2, (BlockLayer(1, (GateTemplate(0, 2, SWAP4),)),))


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
    a = random_probe(rng, S2, Window(0, 1))
    out = image(e, a)
    assert abs(norm(out) - norm(a)) <= 1e-9 * max(1.0, norm(a))


def test_apply_window_growth_bounded():
    rng = np.random.default_rng(5)
    e = QcaExpr(S2, (random_two_site_layer(rng),) * 2)
    a = random_probe(rng, S2, Window(0, 0))
    slots, _ = image(e, a)
    assert all(-radius(e) <= s <= radius(e) for s in slots)


def test_apply_cap():
    rng = np.random.default_rng(6)
    layers = tuple(random_two_site_layer(rng, anchor=k % 2) for k in range(12))
    e = QcaExpr(S2, layers)
    a = random_probe(rng, S2, Window(0, 1))
    with pytest.raises(WindowCapExceeded):
        image(e, a, dim_cap=64)


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
            action_distance_on_units(ei, identity_expr(S2), Window.site(j), units)
            <= 1e-9
        )


def test_invert_shift():
    e = invert(shift_expr(S2, 0, 1))
    assert e.steps == (ShiftPrimitive(0, -1),)


def test_levin_gu_is_involution():
    gamma = levin_gu_action().expr(1)
    gg = compose(gamma, gamma)
    units = matrix_unit_batch(2)
    for j in (-2, -1, 0, 1, 2):
        assert (
            action_distance_on_units(gg, identity_expr(S2), Window.site(j), units)
            <= 1e-9
        )


def test_compose_order_convention(rng):
    # compose(e1, e2) maps A to e1(e2(A))
    e1 = QcaExpr(S2, (random_two_site_layer(rng),))
    e2 = shift_expr(S2, 0, 1)
    a = random_probe(rng, S2, Window(0, 0))
    lhs = image(compose(e1, e2), a)
    rhs = image(e1, image(e2, a))
    assert slot_distance(S2, lhs, rhs) <= 1e-12 * max(1.0, norm(a))


# -- symbolic index ------------------------------------------------------------------

def test_gnvw_symbolic_shift():
    assert gnvw_symbolic(shift_expr(S2, 0, 1)).as_dict() == {2: 1}
    s6 = SiteSpec((6,))
    assert gnvw_symbolic(shift_expr(s6, 0, -1)).as_dict() == {2: -1, 3: -1}


def test_gnvw_symbolic_layers_zero(rng):
    e = QcaExpr(S2, (random_two_site_layer(rng),))
    assert gnvw_symbolic(e).is_zero


def test_gnvw_symbolic_opposite_shifts_cancel():
    s22 = SiteSpec((2, 2))
    e = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    assert gnvw_symbolic(e).is_zero


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
    assert gnvw_symbolic(compose(e1, e2)) == gnvw_symbolic(e1) + gnvw_symbolic(e2)
    assert gnvw_symbolic(invert(e1)) == -gnvw_symbolic(e1)


def test_primelog_arithmetic():
    a = PrimeLog.of_dimension(12)  # 2^2 * 3
    assert a.as_dict() == {2: 2, 3: 1}
    assert (a + (-a)).is_zero
    assert str(PrimeLog.zero()) == "0"


# -- support algebras ------------------------------------------------------------------

def test_support_algebra_zz():
    zz = (Window(0, 1), np.kron(PAULI_Z, PAULI_Z))
    assert support_algebra_dim(S2, [zz], Window(0, 0)) == 2


def test_support_algebra_swap_moves_full_matrix_algebra():
    swap_layer = QcaExpr(S2, (BlockLayer(2, (GateTemplate(-1, 2, SWAP4),)),))
    images = unit_images(swap_layer, Window(-1, -1))
    assert support_algebra_dim(S2, images, Window(0, 0)) == 4


def test_support_algebra_identity():
    iden = (Window(0, 0), np.eye(2, dtype=complex))
    assert support_algebra_dim(S2, [iden], Window(3, 5)) == 1


# -- numeric index ----------------------------------------------------------------------

def test_gnvw_numeric_shift_dimensions():
    e = shift_expr(S2, 0, 1)
    assert support_dims(e) == (4, 1)
    assert gnvw_numeric(e).as_dict() == {2: 1}


def test_gnvw_numeric_swap_layer_zero():
    swap_layer = QcaExpr(S2, (BlockLayer(2, (GateTemplate(-1, 2, SWAP4),)),))
    assert gnvw_numeric(swap_layer).is_zero


def test_gnvw_numeric_levin_gu_zero():
    assert gnvw_numeric(levin_gu_action().expr(1)).is_zero


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
        qca._overlap(e, Window(-r, -1), Window(0, 2 * r - 1)),
        qca._overlap(e, Window(0, r - 1), Window(-2 * r, -1)),
    )


@pytest.mark.parametrize(
    "expr, etas, index",
    [
        (shift_expr(S2, 0, 1), (4, 1), {2: 1}),
        (levin_gu_action().expr(1), (1, 1), {}),
        (shift_expr(SiteSpec((3,)), 0, -1), (1, 9), {3: -1}),
    ],
    ids=["qubit_right_shift", "levin_gu", "qutrit_left_shift"],
)
def test_gnvw_overlaps_pinned(expr, etas, index):
    assert overlaps(expr) == pytest.approx(etas, abs=1e-12)
    assert gnvw_numeric(expr).as_dict() == index


def test_overlap_ratio_of_opposed_shifts():
    # qubit right, qutrit left: the index 2/3 has no integer overlap ratio
    e = QcaExpr(SiteSpec((2, 3)), (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    lr = qca._overlap(e, Window(-1, -1), Window(0, 1))
    rl = qca._overlap(e, Window(0, 0), Window(-2, -1))
    assert (lr, rl) == pytest.approx((4, 9), abs=1e-12)
    # radius 1, so the d = 6 unit batch has 36 units, within the cap
    assert gnvw_numeric(e).as_dict() == {2: 1, 3: -1}


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

def test_balance_shift_pair_becomes_two_swap_layers():
    s22 = SiteSpec((2, 2))
    e = QcaExpr(s22, (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1)))
    out = balance_shifts(e)
    assert not out.has_shifts
    assert len(out.steps) == 2
    assert all(isinstance(s, BlockLayer) for s in out.steps)
    spans = [s.templates[0].span for s in out.steps]
    assert spans == [1, 2]  # on-site register swap, then the staggered swap
    units = matrix_unit_batch(4)
    for j in (-2, -1, 0, 1, 2):
        assert action_distance_on_units(e, out, Window.site(j), units) <= 1e-9


def test_balance_layer_only_unchanged(rng):
    e = QcaExpr(S2, (random_two_site_layer(rng),))
    assert balance_shifts(e) is e


def test_balance_lone_shift_rejected():
    with pytest.raises(NonZeroIndex):
        balance_shifts(shift_expr(S2, 0, 1))


def test_balance_unpairable_mixed_dimensions():
    s = SiteSpec((6, 2, 3))
    e = QcaExpr(
        s,
        (ShiftPrimitive(0, 1), ShiftPrimitive(1, -1), ShiftPrimitive(2, -1)),
    )
    assert gnvw_symbolic(e).is_zero
    with pytest.raises(UnpairableShifts):
        balance_shifts(e)


def test_balance_multi_displacement():
    s22 = SiteSpec((2, 2))
    e = QcaExpr(s22, (ShiftPrimitive(0, 2), ShiftPrimitive(1, -2)))
    out = balance_shifts(e)
    assert not out.has_shifts
    units = matrix_unit_batch(4)
    for j in (-3, 0, 3):
        assert action_distance_on_units(e, out, Window.site(j), units) <= 1e-9


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
        assert action_distance_on_units(e, out, Window.site(j), units) <= 1e-9


def test_balance_blocked_by_noncommuting_layer(rng):
    # a generic entangling layer does not commute past a pending shift
    s22 = SiteSpec((2, 2))
    layer = BlockLayer(2, (GateTemplate(0, 2, random_unitary(16, rng)),))
    e = QcaExpr(
        s22,
        (ShiftPrimitive(0, 1), layer, ShiftPrimitive(1, -1)),
    )
    with pytest.raises(UnpairableShifts):
        balance_shifts(e)


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
    back = expr_from_data(e.sites, data)
    assert expr_to_data(back) == data
    units = matrix_unit_batch(4)
    assert action_distance_on_units(e, back, Window(0, 0), units) <= 1e-12


def test_single_gate_expr(rng):
    u = random_unitary(4, rng)
    gate = ((2, 3), u)
    e = single_gate_expr(S2, *gate)
    probe = random_probe(rng, S2, Window(2, 3))
    expected = slot_product(S2, gate, probe, ((2, 3), u.conj().T))
    assert slot_distance(S2, image(e, probe), expected) <= 1e-9 * max(1.0, norm(probe))
    far = random_probe(rng, S2, Window(5, 5))
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
            action_distance_on_units(out, identity_expr(S2), Window.site(j), units)
            <= 1e-9
        )


def _dense_layer_apply(expr, op, margin):
    """Independent oracle: embed into one big window and conjugate by the
    product of all layer gates inside it (layer-only expressions)."""
    R = expr.sites.nregisters
    big = Window(min(op[0]) // R - margin, max(op[0]) // R + margin)
    full = qca._slots_of_window(expr.sites, big)
    dims = [expr.sites.registers[s % R] for s in full]
    mat = tz.embed_factors(op[1], dims, [full.index(s) for s in op[0]])
    for step in expr.steps:
        assert isinstance(step, BlockLayer)
        total = np.eye(len(mat), dtype=complex)
        for tmpl in step.templates:
            k = (big.lo - tmpl.anchor) // step.period - 1
            while True:
                base = tmpl.anchor + k * step.period
                lo, hi = tmpl.window_at(base)
                k += 1
                if hi > big.hi:
                    break
                if lo < big.lo:
                    continue
                if step.min_site is not None and lo < step.min_site:
                    continue
                if step.max_site is not None and hi > step.max_site:
                    continue
                pos = [s - big.lo * R for s in tmpl.slots_at(base, R)]
                total = tz.embed_factors(tmpl.unitary, dims, pos) @ total
        mat = total @ mat @ total.conj().T
    return full, mat


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
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
    a = random_probe(rng, S2, Window(0, int(rng.integers(0, 2))))
    fast = image(e, a)
    slow = _dense_layer_apply(e, a, radius(e) + 2)
    assert slot_distance(S2, fast, slow, dim_cap=1 << 16) <= 1e-9 * max(1.0, norm(a))


@settings(max_examples=10)
@given(seed=st.integers(0, 10 ** 6))
def test_engine_matches_dense_with_truncated_layers(seed):
    rng = np.random.default_rng(seed)
    layer = random_two_site_layer(rng, anchor=int(rng.integers(-1, 2)))
    from dataclasses import replace

    e = QcaExpr(S2, (replace(layer, min_site=0),))
    a = random_probe(rng, S2, Window(-1, 1))
    fast = image(e, a)
    slow = _dense_layer_apply(e, a, radius(e) + 2)
    assert slot_distance(S2, fast, slow, dim_cap=1 << 16) <= 1e-9 * max(1.0, norm(a))
