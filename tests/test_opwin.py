import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainomaly import _tensors as tz
from chainomaly import qca
from chainomaly.cli import _matrix
from chainomaly.errors import ValidationError, WindowCapExceeded
from chainomaly.opwin import PAULI_X, PAULI_Z, SiteSpec

from conftest import on_union, random_unitary, slot_distance, slot_product
from helpers_serialize import matrix_to_pairs
from helpers_trim import conj_identity, embed_factors

S2 = SiteSpec((2,))
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def rand_mat(rng, n, d=2):
    D = d ** n
    return rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))


def expect(mat, dims, keep):
    """Normalized partial trace onto the factors `keep`."""
    return tz.partial_trace_keep_batch(mat[None], dims, keep)[0]


def test_sitespec_validation():
    assert SiteSpec((2, 3)).dim == 6
    with pytest.raises(ValidationError):
        SiteSpec((1,))
    with pytest.raises(ValidationError):
        SiteSpec(())


def test_sitespec_rejects_a_float_dimension():
    # numpy integers are integers; a float is refused, not cast to a qubit
    assert SiteSpec((np.int64(2), 3)).registers == (2, 3)
    with pytest.raises(ValidationError, match="must be integers"):
        SiteSpec((2.7,))


# -- embedding -----------------------------------------------------------------

def test_embed_z_tensors_identity():
    e = embed_factors(PAULI_Z, [2, 2], [0])
    assert np.allclose(e, np.diag([1, 1, -1, -1]))


def test_embed_identity_any_window():
    e = embed_factors(np.eye(2), [2] * 5, [2])
    assert np.allclose(e, np.eye(2 ** 5))


def test_embed_nested_matches_direct(rng):
    # two-step embedding equals the one-step embedding, entry for entry:
    # a on factor 1 of [0, 1], then [0, 1] on factors 1, 2 of four
    a = rand_mat(rng, 1)
    two_step = embed_factors(embed_factors(a, [2, 2], [0]), [2] * 4, [1, 2])
    one_step = embed_factors(a, [2] * 4, [1])
    assert np.allclose(two_step, one_step, atol=1e-12)


def test_embed_scalar():
    e = embed_factors(np.array([[2.5]]), [2, 2], [])
    assert np.allclose(e, 2.5 * np.eye(4))


def test_embed_cap(monkeypatch):
    # the union of three one-slot operators has dimension 8
    ops = [((j,), PAULI_Z) for j in range(3)]
    monkeypatch.setattr(qca, "DEFAULT_DIM_CAP", 8)
    assert on_union(S2, *ops)[0] == (0, 1, 2)
    monkeypatch.setattr(qca, "DEFAULT_DIM_CAP", 4)
    with pytest.raises(WindowCapExceeded):
        on_union(S2, *ops)


@given(seed=st.integers(0, 10 ** 6))
def test_embed_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    a = rand_mat(rng, n)
    big = embed_factors(a, [2] * 4, list(range(1, 1 + n)))
    norm_a = tz.operator_norm(a)
    assert abs(tz.operator_norm(big) - norm_a) <= 1e-12 * max(1.0, norm_a)


# -- products on the union of slots ----------------------------------------------

def test_product_pauli_same_site():
    union, xz = slot_product(S2, ((0,), PAULI_X), ((0,), PAULI_Z))
    assert union == (0,)
    assert np.allclose(xz, -1j * PAULI_Y)


def test_product_disjoint_supports():
    z, x = ((0,), PAULI_Z), ((1,), PAULI_X)
    union, zx = slot_product(S2, z, x)
    assert union == (0, 1)
    assert np.allclose(zx, np.kron(PAULI_Z, PAULI_X))
    assert np.allclose(slot_product(S2, x, z)[1], zx)  # disjoint supports commute


@given(seed=st.integers(0, 10 ** 6))
def test_product_with_inverse(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(4, rng)
    _, p = slot_product(S2, ((0, 1), u), ((0, 1), np.linalg.inv(u)))
    assert np.allclose(p, np.eye(4), atol=1e-12)


@given(seed=st.integers(0, 10 ** 6))
def test_product_associative(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(3):
        slots = tuple(range(int(rng.integers(-1, 1)), 1))
        ops.append((slots, rand_mat(rng, len(slots))))
    a, b, c = ops
    left = slot_product(S2, slot_product(S2, a, b), c)
    right = slot_product(S2, a, slot_product(S2, b, c))
    assert left[0] == right[0]
    assert slot_distance(S2, left, right) <= 1e-12 * max(1.0, tz.operator_norm(left[1]))


# -- normalized partial trace (conditional expectation) ------------------------

def test_expectation_traceless_to_scalar_zero():
    out = expect(PAULI_Z, [2], [])
    assert out.shape == (1, 1)
    assert abs(out[0, 0]) == 0


def test_expectation_partner_traceless():
    out = expect(np.kron(PAULI_Z, PAULI_Z), [2, 2], [0])
    assert np.allclose(out, 0)


def test_expectation_identity_factor():
    out = expect(embed_factors(PAULI_Z, [2, 2], [0]), [2, 2], [0])
    assert np.allclose(out, PAULI_Z)


@given(seed=st.integers(0, 10 ** 6))
def test_expectation_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))  # window length <= 4
    k = int(rng.integers(1, n + 1))
    dims, keep = [2] * n, list(range(k))
    a = rand_mat(rng, n)
    norm_a = tz.operator_norm(a)
    ea = expect(a, dims, keep)
    # idempotent and contractive
    again = expect(embed_factors(ea, dims, keep), dims, keep)
    assert tz.operator_norm(again - ea) <= 1e-12 * norm_a
    assert tz.operator_norm(ea) <= norm_a + 1e-12
    # unital
    assert tz.operator_norm(expect(np.eye(2 ** n), dims, keep) - np.eye(2 ** k)) <= 1e-12
    # bimodule law for operators supported inside keep
    b = rand_mat(rng, k)
    lhs = expect(embed_factors(b, dims, keep) @ a, dims, keep)
    assert tz.operator_norm(lhs - b @ ea) <= 1e-12 * max(1.0, tz.operator_norm(b) * norm_a)


# -- distance on the union of slots ------------------------------------------------

def test_distance_examples():
    x, z = ((0,), PAULI_X), ((0,), PAULI_Z)
    assert slot_distance(S2, x, x) == 0
    assert abs(slot_distance(S2, z, ((0,), -PAULI_Z)) - 2 * math.sqrt(2)) <= 1e-12
    # Frobenius norm of X - Z: four unit entries
    assert abs(slot_distance(S2, x, z) - 2.0) <= 1e-12


def test_distance_across_windows():
    d = slot_distance(S2, ((0,), PAULI_X), ((1,), PAULI_X))
    assert d > 1.0  # genuinely different operators


# -- misc -------------------------------------------------------------------------

def test_trim_drops_identity_sites():
    z = embed_factors(PAULI_Z, [2, 2, 2], [1])
    slots, t = conj_identity(S2, (0, 1, 2), z[None], (0, 1, 2))
    assert slots == (1,)
    assert np.allclose(t[0], PAULI_Z)
    slots, tc = conj_identity(S2, (0, 1), 3.0 * np.eye(4)[None], (0, 1))
    assert slots == () and tc[0, 0, 0] == 3.0


def test_matrix_unit():
    e01 = qca.matrix_unit_batch(2)[1]
    assert e01[0, 1] == 1 and np.count_nonzero(e01) == 1


def test_matrix_literal_roundtrip():
    pairs = matrix_to_pairs(PAULI_Y)
    back = _matrix(pairs, "m")
    assert np.allclose(back, PAULI_Y)
    with pytest.raises(ValidationError):
        _matrix([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]], "m")
    with pytest.raises(ValidationError):
        _matrix([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "m")  # not square
