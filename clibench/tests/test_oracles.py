"""The benchmark's oracles against hand values and independent computations.

    python3 -m pytest clibench/tests
"""

import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracles as orc  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def is_group(table) -> bool:
    n = len(table)
    identity = all(table[0][a] == a == table[a][0] for a in range(n))
    inverses = all(0 in row for row in table)
    assoc = all(
        table[table[a][b]][c] == table[a][table[b][c]] for a, b, c in product(range(n), repeat=3)
    )
    return identity and inverses and assoc


@pytest.mark.parametrize(
    "orders, degree, want",
    [
        ([2], 3, [2]),
        ([5], 3, [5]),
        ([7], 2, []),
        ([2, 2], 2, [2]),
        ([2, 2], 3, [2, 2, 2]),
        ([2, 4], 2, [2]),
        ([2, 4], 3, [2, 4, 2]),
        ([3, 3], 2, [3]),
        ([2, 3], 2, [1]),
        ([2, 3], 3, [2, 3, 1]),
        ([2, 2, 2], 2, [2, 2, 2]),
        ([2, 2, 2], 3, [2] * 7),
    ],
)
def test_kunneth_table(orders, degree, want):
    assert orc.same_abelian_group(orc.kunneth(orders, degree), want)


def test_abelian_group_comparison():
    assert orc.same_abelian_group([6], [2, 3])
    assert orc.same_abelian_group([2, 3, 1], [6])
    assert not orc.same_abelian_group([4], [2, 2])
    assert orc.primary_parts([12, 1, 8]) == [3, 4, 8]


@pytest.mark.parametrize(
    "table, orders",
    [
        (orc.s3_table(), [1, 2, 2, 2, 3, 3]),
        (orc.d8_table(), [1, 2, 2, 2, 2, 2, 4, 4]),
        (orc.q8_table(), [1, 2, 4, 4, 4, 4, 4, 4]),
        (orc.product_table(2, 4), [1, 2, 2, 2, 4, 4, 4, 4]),
    ],
)
def test_group_tables(table, orders):
    assert is_group(table)
    assert sorted(orc.element_order(table, g) for g in range(len(table))) == orders


def test_product_table_labels_like_nested_direct_products():
    t = orc.product_table(2, 3)
    # (a, b) has index 3a + b; (1, 2) + (1, 2) = (0, 1)
    assert t[5][5] == 1
    assert orc.element_order(t, 5) == 6


def type_one(n: int):
    """Generator of H^3(Z_n, U(1)): w(a, b, c) = a (b + c - [b + c]) / n^2."""
    return {
        (a, b, c): Fraction(a * (b + c - (b + c) % n), n * n) % 1
        for a, b, c in product(range(n), repeat=3)
    }


def coboundary_of(table, beta):
    n = len(table)
    return {
        (a, b, c): (beta[(b, c)] - beta[(table[a][b], c)] + beta[(a, table[b][c])] - beta[(a, b)]) % 1
        for a, b, c in product(range(n), repeat=3)
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyclic_invariant_is_gauge_invariant(n):
    table = orc.product_table(n)
    rng = np.random.default_rng(n)
    beta = {k: Fraction(int(rng.integers(0, 12)), 12) for k in product(range(n), repeat=2)}
    for k in (0, 1, n - 1):
        omega = {t: (k * v) % 1 for t, v in type_one(n).items()}
        gauged = {t: (omega[t] + d) % 1 for t, d in coboundary_of(table, beta).items()}
        for w in (omega, gauged):
            assert orc.cocycle_defects(table, w, 3) == []
            assert orc.cyclic_invariant(table, w, 1) == k % n


def test_levin_gu_and_broken_cochain():
    z2 = orc.product_table(2)
    lg = {t: Fraction(1, 2) if t == (1, 1, 1) else Fraction(0) for t in product(range(2), repeat=3)}
    assert orc.cocycle_defects(z2, lg, 3) == []
    assert orc.cyclic_invariant(z2, lg, 1) == 1
    broken = dict(lg)
    broken[(1, 1, 0)] = Fraction(1, 2)
    assert orc.cocycle_defects(z2, broken, 3)


def test_two_cocycle_identity():
    k4 = orc.product_table(2, 2)
    # the Pauli multiplier: (a, b) . (c, d) picks up (-1)^(b c)
    rho = {(g, h): Fraction((g % 2) * (h // 2), 2) for g, h in product(range(4), repeat=2)}
    assert orc.cocycle_defects(k4, rho, 2) == []
    rho[(1, 1)] = Fraction(1, 3)
    assert orc.cocycle_defects(k4, rho, 2)


def test_commutator_phases():
    x, z = wl.PAULI_X, wl.PAULI_Z
    assert orc.commutator_phase(x, z) == pytest.approx(-1)
    clock = wl.clock_shift_matrices(3)
    w = orc.commutator_phase(clock[3], clock[1])
    assert abs(w - 1) > 0.5 and w**3 == pytest.approx(1)
    with pytest.raises(ValueError):
        orc.commutator_phase(x, np.diag([1.0, 2.0]))


def test_shift_index():
    shift = {"kind": "shift", "register": 0, "displacement": 1}
    assert orc.shift_index([2], [shift]) == {2: 1}
    assert orc.shift_index([6], [shift]) == {2: 1, 3: 1}
    assert orc.shift_index([4, 3], [dict(shift, displacement=-1), dict(shift, register=1)]) == {2: -2, 3: 1}
    assert orc.shift_index([2], wl.LEVIN_GU) == {}
    assert orc.shift_index([2], [shift, dict(shift, displacement=-1)]) == {}


def spin_chain_levels(
    n: int, field: float = 1.0, cluster: float = 0.0, ising: float = 0.0, nlow: int = 6
) -> list[float]:
    """The free-fermion Hamiltonian by dense diagonalization in the spin
    basis."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])

    def string(ops: dict[int, np.ndarray]) -> np.ndarray:
        out = np.eye(1)
        for j in range(n):
            out = np.kron(out, ops.get(j, np.eye(2)))
        return out

    h = np.zeros((2**n, 2**n))
    for j in range(n):
        jm, jp = (j - 1) % n, (j + 1) % n
        h -= field * string({j: x})
        h -= cluster * string({jm: z, j: x, jp: z})
        h -= ising * string({j: z, jp: z})
    return list(np.linalg.eigvalsh(h)[:nlow])


def test_free_fermion_n8_hand_values():
    # h0 + h1: epsilon(k) = 4 |sin k|; E0 = -8 (sin pi/8 + cos pi/8)
    lv = orc.free_fermion_levels(8, cluster=1.0, nlow=6)
    assert lv[0] == pytest.approx(-8 * (math.sin(math.pi / 8) + math.cos(math.pi / 8)), abs=1e-12)
    assert lv[1] == pytest.approx(lv[2], abs=1e-12)
    assert lv[1] == pytest.approx(-4 * (1 + math.sqrt(2)), abs=1e-12)
    # paramagnet: -N, then the N-fold one-flip level
    assert orc.free_fermion_levels(8, nlow=9) == pytest.approx([-8.0] + [-6.0] * 8, abs=1e-12)


@pytest.mark.parametrize(
    "n, kw",
    [
        (6, {"cluster": 1.0}),
        (8, {"cluster": 1.0}),
        (8, {}),
        (8, {"cluster": 1.0, "ising": 4.0}),
        (6, {"field": 0.3, "ising": 1.0}),
    ],
)
def test_free_fermions_match_spin_chain(n, kw):
    ff = orc.free_fermion_levels(n, nlow=8, **kw)
    ed = spin_chain_levels(n, nlow=8, **kw)
    assert max(abs(a - b) for a, b in zip(ff, ed)) < 1e-9


def test_workload_inputs_follow_the_seed():
    for make in wl.WORKLOADS.values():
        a, b = make(7), make(7)
        assert [op.config for op in a] == [op.config for op in b]
        assert len({op.name for op in a}) == len(a)

    def conj(seed):
        return {op.name: op.config for op in wl.classify(seed)}["k4_conj_onsite"]

    assert conj(7) != conj(8)
    # operations that fail because of a known fault do not depend on the seed
    for make in wl.WORKLOADS.values():
        fixed = [op.config for op in make(1) if op.known_fault]
        assert fixed == [op.config for op in make(2) if op.known_fault]


def test_spectra_check_accepts_oracle_levels_and_flags_errors():
    grid = [{"N": 8, "terms": ["h0"]}, {"N": 8, "terms": ["h0", "h1"]}]
    rows = []
    for spec in grid:
        lv = orc.free_fermion_levels(8, cluster=1.0 if "h1" in spec["terms"] else 0.0)
        rows.append({"energies": lv, "gap": lv[1] - lv[0], "charge": [1.0, 0.0]})
    report = {"rows": rows, "trends": {}}
    check = wl.check_spectra(grid, {})
    assert check(report) == []
    rows[1]["energies"] = [e + 1e-6 for e in rows[1]["energies"]]
    rows[1]["charge"] = [0.5, 0.0]
    assert len(check(report)) == 2


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    inner = rec.wrap("m.inner", lambda: sum(range(20000)))
    outer = rec.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = rec.layer_totals()
    assert totals["m.inner"][1] == 3 and totals["m.outer"][1] == 1
    name, start, end, parent = rec.spans[0]
    assert name == "m.outer" and parent == -1
    total_self = totals["m.inner"][0] + totals["m.outer"][0]
    assert total_self == pytest.approx(end - start, rel=1e-9)
