import functools
import importlib.util
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainomaly import anomaly as anm
from chainomaly import cli, grpcoh
from chainomaly.errors import (
    InvariantViolation,
    MatrixCap,
    NotACocycle,
    ValidationError,
)
from chainomaly.grpcoh import (
    ClassCoords,
    CohomologyGroup,
    FiniteGroup,
    PhaseCochain,
    _coboundary_matrix,
    _cohomology_cached,
    _face_sums,
    _local_smith,
    _normalize,
    _tuple_index,
    bockstein_class,
    cohomology,
    slant_z,
)

from helpers_cochain import (
    DegreeCap,
    class_of_by_fractions,
    coboundary,
    cochain_from_function,
    coords_add,
    coords_neg,
    full_coboundary_matrix,
    full_complex,
    is_cocycle,
    is_zero,
    local_smith_reference,
    relabeled,
)

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
Z4 = FiniteGroup.cyclic(4)
Z2Z2 = FiniteGroup.direct_product(Z2, Z2)

GROUPS = [Z2, Z3, Z4, Z2Z2]


def group_from(elements, mul):
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup(tuple(tuple(index[mul(a, b)] for b in elements) for a in elements))


def compose(a, b):
    return tuple(a[i] for i in b)


def quaternion(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


Z6 = FiniteGroup.cyclic(6)
Z2Z3 = FiniteGroup.direct_product(Z2, Z3)
Z2_CUBED = FiniteGroup.direct_product(Z2Z2, Z2)
S3 = group_from(list(itertools.permutations(range(3))), compose)
D8 = group_from(  # symmetries of the square, as permutations of its corners
    [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
     (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3), (3, 2, 1, 0)],
    compose,
)
Q8 = group_from(
    [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)],
    quaternion,
)


def abelian_group(factors):
    """Sorted prime-power decomposition of a product of cyclic groups."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def basis(H):
    n = len(H.invariant_factors)
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def random_cochain(group, degree, rng, den=8):
    vals = tuple(
        Fraction(int(rng.integers(0, den)), den)
        for _ in range(group.order ** degree)
    )
    return PhaseCochain(group, degree, vals)


# -- group construction ------------------------------------------------------

def test_group_laws_checked():
    with pytest.raises(Exception):
        FiniteGroup(((0, 1), (1, 1)))  # 1 has no inverse
    assert Z2Z2.order == 4
    assert Z2Z2.mul(1, 2) == 3  # (0,1)*(1,0) = (1,1)
    assert all(Z2Z2.mul(g, g) == 0 for g in Z2Z2.elements())  # each is its own inverse


def test_group_table_entries_must_be_integers():
    # numpy integers are integers; a float entry is refused, not truncated
    assert FiniteGroup(np.array([[0, 1], [1, 0]])).table == ((0, 1), (1, 0))
    with pytest.raises(ValidationError, match="must be integers"):
        FiniteGroup(((0, 1), (1, 0.5)))


# -- coboundaries -------------------------------------------------------------

def test_coboundary_of_zero():
    f = PhaseCochain.zero(Z2, 2)
    assert is_zero(coboundary(f))


def test_coboundary_degree_one_formula():
    # psi(0) = 0, psi(1) = 1/4: (d psi)(g, h) = psi(h) + psi(g) - psi(gh)
    psi = PhaseCochain(Z2, 1, (Fraction(0), Fraction(1, 4)))
    d = coboundary(psi)
    assert d.at(1, 1) == Fraction(1, 2)
    assert d.at(0, 1) == 0 and d.at(1, 0) == 0 and d.at(0, 0) == 0


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("degree", [1, 2])
@given(seed=st.integers(0, 10 ** 6))
def test_d_squared_zero(group, degree, seed):
    rng = np.random.default_rng(seed)
    f = random_cochain(group, degree, rng)
    assert is_zero(coboundary(coboundary(f)))


def faces(group, t):
    """Faces d_0..d_m of an m-tuple, inhomogeneous bar convention."""
    m = len(t)
    out = [t[1:]]
    for i in range(1, m):
        out.append(t[: i - 1] + (group.mul(t[i - 1], t[i]),) + t[i + 1:])
    out.append(t[:-1])
    return out


def identity_free(group, m):
    """The m-tuples with no identity entry, in table order."""
    return list(itertools.product(range(1, group.order), repeat=m))


@pytest.mark.parametrize("group", [Z3, Z2Z2, S3])
@pytest.mark.parametrize("degree", [1, 2])
@given(seed=st.integers(0, 10 ** 6))
def test_coboundary_matrix_matches_face_sums(group, degree, seed):
    # the matrices of d_k, full and normalized, and the vectorised face sums,
    # on integers, floats and exact fractions, against face sums written out
    # tuple by tuple; the normalized matrix acts on a cochain that vanishes
    # on every tuple with an identity entry, and gives its identity-free rows
    rng = np.random.default_rng(seed)
    f = random_cochain(group, degree, rng)
    want = [
        sum((-1) ** i * f.at(*face) for i, face in enumerate(faces(group, t)))
        for t in itertools.product(range(group.order), repeat=degree + 1)
    ]
    nums = np.array([int(v * 8) for v in f.values])
    assert (full_coboundary_matrix(group, degree) @ nums).tolist() == [int(s * 8) for s in want]
    assert _face_sums(group, degree, nums).tolist() == [int(s * 8) for s in want]
    g = cochain_from_function(group, degree, lambda *t: 0 if 0 in t else f.at(*t))
    want_normalized = [
        int(8 * sum((-1) ** i * g.at(*face) for i, face in enumerate(faces(group, t))))
        for t in identity_free(group, degree + 1)
    ]
    free = np.array([int(8 * g.at(*t)) for t in identity_free(group, degree)])
    assert (_coboundary_matrix(group, degree) @ free).tolist() == want_normalized
    exact = _face_sums(group, degree, np.array(f.values, dtype=object))
    assert list(exact) == want
    floats = _face_sums(group, degree, np.array([float(v) for v in f.values]))
    assert np.allclose(floats, [float(s) for s in want], rtol=0, atol=1e-12)


def test_degree_cap():
    f = PhaseCochain.zero(Z2, 4)
    with pytest.raises(DegreeCap):
        coboundary(f)


# -- cocycle recognition --------------------------------------------------------

def omega_z2():
    # additive labels {0, 1}: omega(g, h, k) = g*h*k / 2
    return cochain_from_function(
        Z2, 3, lambda g, h, k: Fraction(g * h * k, 2)
    )


def test_is_cocycle_brute_force_pentagon():
    om = omega_z2()
    # independent oracle: the degree-3 identity written out over all quadruples
    for g1, g2, g3, g4 in itertools.product(range(2), repeat=4):
        acc = (
            om.at(g2, g3, g4)
            - om.at(Z2.mul(g1, g2), g3, g4)
            + om.at(g1, Z2.mul(g2, g3), g4)
            - om.at(g1, g2, Z2.mul(g3, g4))
            + om.at(g1, g2, g3)
        )
        assert acc.denominator == 1 or acc % 1 == 0
    assert is_cocycle(om)


def test_not_a_cocycle():
    bad = cochain_from_function(
        Z2, 3, lambda g, h, k: Fraction(1, 4) if (g, h, k) == (1, 1, 1) else Fraction(0)
    )
    assert not is_cocycle(bad)


@given(seed=st.integers(0, 10 ** 6))
def test_coboundaries_are_cocycles(seed):
    rng = np.random.default_rng(seed)
    psi = random_cochain(Z2Z2, 2, rng)
    assert is_cocycle(coboundary(psi))


# -- cohomology groups -------------------------------------------------------------

@pytest.mark.parametrize(
    "group,degree,factors",
    [
        (Z2, 1, (2,)),
        (Z2, 2, ()),
        (Z2, 3, (2,)),
        (Z3, 3, (3,)),
        (Z4, 2, ()),
        (Z2Z2, 2, (2,)),
        (Z2Z2, 3, (2, 2, 2)),
        # degree 3 beyond order 4: de Wild Propitius, hep-th/9511195
        (Z6, 3, (6,)),
        (Z2Z3, 3, (6,)),
        (Z2_CUBED, 3, (2,) * 7),
        (D8, 3, (2, 2, 4)),
        (Q8, 3, (8,)),
    ],
)
def test_cohomology_factors(group, degree, factors):
    H = cohomology(group, degree)
    assert abelian_group(H.invariant_factors) == abelian_group(factors)
    assert H.invariant_factors == factors


def test_cohomology_pretty():
    assert cohomology(Z2, 3).pretty() == "ℤ/2"
    assert cohomology(Z2, 2).pretty() == "trivial"


def test_generators_hit_the_standard_basis():
    H = cohomology(Z2Z2, 3)
    for i, gen in enumerate(H.generators):
        coords = class_of_by_fractions(gen, H)
        want = tuple(1 if j == i else 0 for j in range(len(H.invariant_factors)))
        assert coords.residues == want


@pytest.mark.parametrize(
    "group,degree",
    [(Z4, 1), (FiniteGroup.cyclic(9), 1), (Z4, 3), (S3, 3), (Z6, 3)],
)
def test_generators_hit_the_standard_basis_across_primes(group, degree):
    # factors above p (an exact mod p^v coordinate) and factors that combine
    # several primes by CRT
    H = cohomology(group, degree)
    assert len(H.generators) == len(H.invariant_factors)
    for gen, want in zip(H.generators, basis(H)):
        assert class_of_by_fractions(gen, H).residues == want


@pytest.mark.parametrize("group", [Z4, Z2Z2, Z6])
@given(seed=st.integers(0, 10 ** 6))
def test_generator_classes_ignore_coboundaries(group, seed):
    rng = np.random.default_rng(seed)
    H = cohomology(group, 3)
    psi = random_cochain(group, 2, rng, den=12)
    for gen, want in zip(H.generators, basis(H)):
        assert class_of_by_fractions(gen + coboundary(psi), H).residues == want


def test_matrix_cap():
    with pytest.raises(MatrixCap):
        cohomology(FiniteGroup.cyclic(20), 3)


def test_the_largest_admitted_degree_reads_a_class():
    # the trivial group passes MATRIX_CAP at every degree; at DEGREE_CAP
    # bockstein_class still builds its face index, of the most dimensions
    # numpy holds, and one degree more is refused by name
    trivial, k = FiniteGroup.cyclic(1), grpcoh.DEGREE_CAP
    H = cohomology(trivial, k)
    assert H.is_trivial
    assert bockstein_class([0.0], H)[0].residues == ()
    with pytest.raises(MatrixCap, match=f"degree {k + 1} exceeds cap {k}: "):
        cohomology(trivial, k + 1)


def test_relabeling_invariance():
    for group, perm in [(Z4, (0, 3, 2, 1)), (Z2Z2, (0, 2, 3, 1))]:
        h1 = cohomology(group, 2).invariant_factors
        h2 = cohomology(relabeled(group, perm), 2).invariant_factors
        assert h1 == h2
        h1 = cohomology(group, 3).invariant_factors
        h2 = cohomology(relabeled(group, perm), 3).invariant_factors
        assert h1 == h2


# -- the local Smith elimination and its deferred replay ---------------------------------

def _benchmark_oracles():
    """clibench's oracles, whose multiplication tables label the groups as
    the benchmark's configs do."""
    path = Path(__file__).resolve().parent.parent / "clibench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("clibench_oracles", path)
    orc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(orc)
    return orc


_ORC = _benchmark_oracles()
S3_BENCH, D8_BENCH, Q8_BENCH = (
    FiniteGroup(tuple(map(tuple, table()))) for table in (_ORC.s3_table, _ORC.d8_table, _ORC.q8_table)
)
Z3Z3 = FiniteGroup.direct_product(Z3, Z3)

# every (group, degree) of the benchmark's cohomology workload, then the
# degree-2 groups the anomaly workloads add to them
ELIMINATED = [
    (Z2, 3), (Z3, 3), (Z4, 3), (FiniteGroup.cyclic(5), 3), (Z2Z2, 3),
    (Z3Z3, 2), (Z2_CUBED, 2), (FiniteGroup.direct_product(Z2, Z4), 2), (Z2Z3, 2),
    (FiniteGroup.cyclic(8), 2), (S3_BENCH, 3), (S3_BENCH, 2), (D8_BENCH, 2), (Q8_BENCH, 2),
    (Z2, 2), (Z2Z2, 2),
]


def assert_same_elimination(group, degree):
    """Each prime's elimination of the normalized d_degree records the
    reference's steps, every field equal; the class rows and generators
    replayed from them equal those replayed from the reference's steps,
    vanish on every tuple with an identity entry, kill every normalized
    coboundary and hit the standard basis."""
    H = _cohomology_cached.__wrapped__(group, degree)  # not shared with other tests
    d = _coboundary_matrix(group, degree)
    reference = []
    for p, e, steps in H._eliminations:
        want = local_smith_reference(d, p, 2 * e)
        assert len(steps) == len(want)
        for got, step in zip(steps, want):
            assert all(np.array_equal(x, y) for x, y in zip(got, step))
        reference.append((p, e, want))
    R = CohomologyGroup(group, degree, H.invariant_factors, tuple(reference))
    assert np.array_equal(H._class_rows, R._class_rows)
    assert H.generators == R.generators
    n = group.order
    free = [_tuple_index(t, n) for t in identity_free(group, degree + 1)]
    factors = np.array(H.invariant_factors, dtype=np.int64).reshape(-1, 1)
    assert not (H._class_rows[:, free] @ d % factors).any()
    assert not np.delete(H._class_rows, free, axis=1).any()
    for gen, want in zip(H.generators, basis(H)):
        assert all(gen.at(*t) == 0 for t in itertools.product(range(n), repeat=degree) if 0 in t)
        assert class_of_by_fractions(gen, H).residues == want


@pytest.mark.parametrize("group,degree", ELIMINATED)
def test_elimination_matches_the_reference(group, degree):
    assert_same_elimination(group, degree)
    # the normalized complex has the full bar complex's cohomology
    assert cohomology(group, degree).invariant_factors == full_complex(group, degree).invariant_factors


@pytest.mark.parametrize("group", [Z6, S3, D8, Q8], ids=["Z6", "S3", "D8", "Q8"])
@pytest.mark.parametrize("degree", [2, 3])
@settings(max_examples=3)
@given(data=st.data())
def test_elimination_matches_the_reference_under_relabelling(group, degree, data):
    perm = (0, *data.draw(st.permutations(range(1, group.order))))
    assert_same_elimination(relabeled(group, perm), degree)


def test_elimination_checks_the_rank():
    # the normalized d_3 of Z2 x Z2 has rank 3^3 - 3^2 + 3 = 21 over Z/2^4:
    # told one less, the elimination stops with entries left over; told one
    # more, it runs out of pivots
    d = _coboundary_matrix(Z2Z2, 3)
    assert d.shape == (81, 27)
    assert len(_local_smith(d, 2, 2, 21)) == 21
    with pytest.raises(InvariantViolation, match=r"rank-20 coboundary found 20 pivots .* and entries left over"):
        _local_smith(d, 2, 2, 20)
    with pytest.raises(InvariantViolation, match=r"rank-22 coboundary found 21 pivots of valuations \[0, 1\], not 22"):
        _local_smith(d, 2, 2, 22)


def test_elimination_refuses_a_pivot_above_the_valuation_bound():
    # modulo 2^4 the entry 8 has valuation 3, above e = 2: it is never taken
    # as a pivot and is left over
    with pytest.raises(InvariantViolation, match=r"found 0 pivots .* left over, not 1 of valuation <= 2"):
        _local_smith(np.array([[8]]), 2, 2, 1)


def test_elimination_is_narrow():
    # an int8 coboundary and an int32 working matrix reduced in place, under
    # 8 bytes per entry of the normalized d_3 of Z2^3 (2401 x 343 entries)
    d = _coboundary_matrix(Z2_CUBED, 3)
    assert d.dtype == np.int8 and d.shape == (7 ** 4, 7 ** 3)
    steps = _local_smith(d, 2, 1, 7 ** 3 - 7 ** 2 + 7)
    assert all(s[5].dtype == s[7].dtype == np.int32 for s in steps)
    tracemalloc.start()
    try:
        _cohomology_cached.__wrapped__(Z2_CUBED, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d.size


def test_every_admitted_coboundary_fits_the_narrow_dtypes():
    # every order n >= 2 and degree k >= 1 that MATRIX_CAP admits: entries
    # of d_k count at most k + 2 faces, within int8, and the elimination
    # modulo q = p^(2e), p^e exactly dividing n, forms products below
    # q^2 = p^(4e), within int32
    n = 2
    while n ** 3 <= grpcoh.MATRIX_CAP:
        k = 1
        while n ** (k + 2) <= grpcoh.MATRIX_CAP:
            assert k + 2 <= 127
            k += 1
        assert all(p ** (4 * e) < 2 ** 31 for p, e in grpcoh._factorize(n).items())
        n += 1
    # the trivial group's full d_k is the alternating sum of k + 2 ones, and
    # its normalized d_k is empty at every degree that DEGREE_CAP admits
    trivial = FiniteGroup.cyclic(1)
    for k in range(1, 60):
        assert full_coboundary_matrix(trivial, k).tolist() == [[k % 2]]
    for k in range(1, grpcoh.DEGREE_CAP + 1):
        assert _coboundary_matrix(trivial, k).shape == (0, 0)


def _count_replays(monkeypatch) -> list:
    """The primes of every replay of elimination steps, as they run."""
    real = grpcoh._torsion_transforms
    calls = []

    def spy(shape, p, e, steps):
        calls.append(p)
        return real(shape, p, e, steps)

    monkeypatch.setattr(grpcoh, "_torsion_transforms", spy)
    return calls


def test_cohomology_mode_never_replays(tmp_path, monkeypatch):
    _cohomology_cached.cache_clear()
    calls = _count_replays(monkeypatch)
    table = "[" + ", ".join(str(list(row)) for row in S3_BENCH.table) + "]"
    cfg = tmp_path / "h3_s3.yaml"
    cfg.write_text(f"mode: cohomology\ngroup: {{kind: table, table: {table}}}\ndegree: 3\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    H = cohomology(S3_BENCH, 3)
    assert H.invariant_factors == (6,)
    assert calls == []
    assert "_classes" not in vars(H) and "generators" not in vars(H)


def test_anomaly_class_replays_once_per_group(monkeypatch):
    _cohomology_cached.cache_clear()
    calls = _count_replays(monkeypatch)
    for _ in range(2):
        assert anm.anomaly_class(anm.levin_gu_action()).coords.residues == (1,)
    assert calls == [2]


def test_generators_are_built_by_the_first_representative():
    H = _cohomology_cached.__wrapped__(Z2Z2, 3)
    om = cochain_from_function(Z2Z2, 3, lambda g, h, k: Fraction((g % 2) * (h // 2) * (k // 2), 2))
    coords = class_of_by_fractions(om, H)
    assert "_classes" in vars(H) and "generators" not in vars(H)
    assert class_of_by_fractions(H.representative(coords), H) == coords
    assert "generators" in vars(H)


# -- class projection ---------------------------------------------------------------

def test_class_of_zero_and_nontrivial():
    H = cohomology(Z2, 3)
    assert class_of_by_fractions(PhaseCochain.zero(Z2, 3), H).is_trivial
    coords = class_of_by_fractions(omega_z2(), H)
    assert coords.residues == (1,)


@given(seed=st.integers(0, 10 ** 6))
def test_class_of_kills_coboundaries(seed):
    rng = np.random.default_rng(seed)
    H = cohomology(Z2, 3)
    psi = random_cochain(Z2, 2, rng)
    assert class_of_by_fractions(coboundary(psi), H).is_trivial
    shifted = omega_z2() + coboundary(psi)
    assert class_of_by_fractions(shifted, H).residues == (1,)


@given(seed=st.integers(0, 10 ** 6))
def test_class_of_additive(seed):
    rng = np.random.default_rng(seed)
    H = cohomology(Z2Z2, 2)
    f = coboundary(random_cochain(Z2Z2, 1, rng))
    g = cochain_from_function(
        Z2Z2, 2, lambda a, b: Fraction(((a // 2) * (b % 2)) % 2, 2)
    )
    assert is_cocycle(g)
    total = class_of_by_fractions(f + g, H)
    parts = coords_add(class_of_by_fractions(f, H), class_of_by_fractions(g, H))
    assert total.residues == parts.residues


Z5 = FiniteGroup.cyclic(5)


@functools.cache
def _class_data(group, degree):
    """The invariant factors, class rows and generator numerators of
    H^degree, without keeping the eliminations in the shared cache."""
    H = _cohomology_cached.__wrapped__(group, degree)
    return H.invariant_factors, *H._classes


@pytest.mark.parametrize("group", [Z2, Z3, Z4, Z5, Z2Z2, S3], ids=["Z2", "Z3", "Z4", "Z5", "K4", "S3"])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
@settings(max_examples=5)
@given(seed=st.integers(0, 10 ** 6))
def test_normalize_keeps_the_class(group, degree, seed):
    # a random integer (degree + 1)-cocycle: the Bockstein of a class
    # representative plus the coboundary of a random integer cochain. Its
    # normalization vanishes on every tuple with an identity entry, is still
    # a cocycle, and the class rows read the representative's coordinates
    factors, rows, nums = _class_data(group, degree)
    rng = np.random.default_rng(seed)
    n, m = group.order, degree + 1
    coords = [int(rng.integers(0, f)) for f in factors]
    c = _face_sums(group, degree, rng.integers(-3, 4, size=n ** degree))
    for r, s, num in zip(coords, factors, nums):
        c += r * (_face_sums(group, degree, num) // s)
    got = _normalize(group, m, c.copy())
    assert not _face_sums(group, m, got).any()
    t = np.indices((n,) * m).reshape(m, -1)
    assert not got[(t == 0).any(axis=0)].any()
    assert [int(x) % s for x, s in zip(rows @ got, factors)] == coords


@functools.cache
def _full(group, degree):
    return full_complex(group, degree)


# every (group, degree) whose class a bundled config, a benchmark operation
# or a pinned test prints: Z2 and K4 in degree 3, K4 and Z3 x Z3 in degree 2,
# Z2^3 in degree 3, and the Z3, Z4 and Z5 edge actions
PRINTED = [
    (Z2, 3), (Z2Z2, 3), (Z2Z2, 2), (Z3Z3, 2), (Z2_CUBED, 3), (Z3, 3), (Z4, 3), (Z5, 3),
]


@pytest.mark.parametrize("group,degree", PRINTED)
@settings(max_examples=5)
@given(seed=st.integers(0, 10 ** 6))
def test_class_coordinates_match_the_full_complex(group, degree, seed):
    # the normalized complex reads every class as the full bar complex does:
    # on its own generators, on the full complex's and on a random cocycle
    H, F = cohomology(group, degree), _full(group, degree)
    assert H.invariant_factors == F.invariant_factors
    for gen, want in zip(H.generators, basis(H)):
        assert class_of_by_fractions(gen, H).residues == F.class_of(gen).residues == want
    for num, s, want in zip(F.nums, F.invariant_factors, basis(H)):
        gen = PhaseCochain(group, degree, tuple(Fraction(int(x), s) for x in num))
        assert class_of_by_fractions(gen, H).residues == F.class_of(gen).residues == want
    rng = np.random.default_rng(seed)
    coords = ClassCoords(tuple(int(rng.integers(0, f)) for f in H.invariant_factors), H.invariant_factors)
    f = H.representative(coords) + coboundary(random_cochain(group, degree - 1, rng, den=12))
    assert class_of_by_fractions(f, H) == F.class_of(f) == coords


def test_class_coords_arithmetic():
    c = ClassCoords((1,), (2,))
    assert coords_add(c, c).is_trivial
    assert coords_neg(c).residues == (1,)


# -- the rounded Bockstein of float phases ----------------------------------------------

@pytest.mark.parametrize("group,degree", [(Z2Z2, 2), (Z2Z2, 3), (Z4, 3), (S3, 3)])
@given(seed=st.integers(0, 10 ** 6))
def test_bockstein_class_ignores_real_coboundaries(group, degree, seed):
    # the exact class of a representative is the oracle; adding d of a real
    # (irrational) cochain and reading the phases as floats keeps it
    rng = np.random.default_rng(seed)
    H = cohomology(group, degree)
    coords = ClassCoords(
        tuple(int(rng.integers(0, f)) for f in H.invariant_factors), H.invariant_factors
    )
    rep = H.representative(coords)
    assert class_of_by_fractions(rep, H) == coords
    mu = rng.uniform(-3.0, 3.0, size=group.order ** (degree - 1))
    turns = np.array([float(v) for v in rep.values]) + full_coboundary_matrix(group, degree - 1) @ mu
    assert bockstein_class(turns, H)[0] == coords


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotACocycle:
        return "not a cocycle"


# primes just below 2^31 and 2^37: denominators whose lcm is above 2^63
BIG_PRIMES = (2 ** 31 - 1, 2 ** 37 - 25)


def _turns(f: PhaseCochain) -> list[float]:
    """The phases of f as float turns, each reduced mod 1 while exact."""
    return [float(v % 1) for v in f.values]


@pytest.mark.parametrize("group,degree", [(Z2, 3), (Z2Z2, 2), (Z2Z2, 3), (Z6, 2), (S3, 3)])
@given(
    seed=st.integers(0, 10 ** 6),
    den=st.sampled_from([2, 12, 2 ** 61 - 1, BIG_PRIMES]),
    cocycle=st.booleans(),
)
def test_bockstein_class_matches_the_fraction_sums(group, degree, seed, den, cocycle):
    # cocycles: a random class representative plus the coboundary of a
    # cochain whose values have denominator `den` (or, for a pair, one of the
    # two, so that the lcm is their product); otherwise a random cochain of
    # denominator 2 or 12, whose Bockstein, where it is not an integer, is
    # at least 1/12 from one
    rng = np.random.default_rng(seed)
    H = cohomology(group, degree)
    n = group.order
    if cocycle:
        dens = den if isinstance(den, tuple) else (den,)
        coords = ClassCoords(
            tuple(int(rng.integers(0, f)) for f in H.invariant_factors), H.invariant_factors
        )
        psi = PhaseCochain(group, degree - 1, tuple(
            Fraction(int(rng.integers(0, 2 ** 62)), int(rng.choice(dens)))
            for _ in range(n ** (degree - 1))
        ))
        f = H.representative(coords) + coboundary(psi)
    else:
        small = den if den in (2, 12) else 12
        f = PhaseCochain(group, degree, tuple(
            Fraction(int(rng.integers(0, 2 ** 62)), small) for _ in range(n ** degree)
        ))
    want = _outcome(class_of_by_fractions, f, H)
    got = _outcome(lambda t, H: bockstein_class(t, H)[0], _turns(f), H)
    assert got == want
    if cocycle:
        assert got == coords


def test_bockstein_class_reads_phases_past_int64():
    # values of denominators 2^31 - 1 and 2^37 - 25 put the common
    # denominator above 2^63 - 1; the coboundary of such a cochain still
    # has class zero, read off its float turns within 1e-9
    H = cohomology(Z2Z2, 2)
    psi = PhaseCochain(Z2Z2, 1, (0, Fraction(5, BIG_PRIMES[0]), Fraction(7, BIG_PRIMES[1]), 0))
    f = coboundary(psi)
    assert math.lcm(*(v.denominator for v in f.values)) > 2 ** 63
    assert class_of_by_fractions(f, H).is_trivial
    coords, rounding_error = bockstein_class(_turns(f), H)
    assert coords.is_trivial
    assert rounding_error <= 1e-9


def test_bockstein_residual_names_the_worst_tuple():
    # perturbing omega(1,1,1) by 1e-3 and omega(0,1,1) by 4e-3: the written-out
    # pentagon residual of every quadruple is the oracle for the named tuple
    om = omega_z2()
    turns = {t: float(om.at(*t)) for t in itertools.product(range(2), repeat=3)}
    turns[(1, 1, 1)] += 1e-3
    turns[(0, 1, 1)] += 4e-3
    resid = {}
    for t in itertools.product(range(2), repeat=4):
        b = sum((-1) ** i * (turns[face] % 1.0) for i, face in enumerate(faces(Z2, t)))
        resid[t] = abs(b - round(b))
    worst = max(resid.values())
    pattern = r"omega is not a cocycle: its Bockstein at \(([01], ){3}[01]\)"
    with pytest.raises(NotACocycle, match=pattern) as exc:
        bockstein_class([turns[t] for t in sorted(turns)], cohomology(Z2, 3), "omega")
    named = tuple(int(x) for x in str(exc.value).split("(")[1].split(")")[0].split(", "))
    assert resid[named] == pytest.approx(worst, abs=1e-12)
    assert f"is {worst:.3g} from an integer" in str(exc.value)


def test_bockstein_within_tolerance_rounds():
    # every face sum of phases moved by 1e-9 has one more + than - term
    om = omega_z2()
    turns = [float(v) + 1e-9 for v in om.values]
    coords, rounding_error = bockstein_class(turns, cohomology(Z2, 3))
    assert coords.residues == (1,)
    assert rounding_error == pytest.approx(1e-9, rel=1e-3)


def test_rounded_bockstein_must_be_a_cocycle(monkeypatch):
    # an integer Bockstein that is not a cocycle cannot come from any phases;
    # a corrupted face sum stands in for the bug that would produce one
    import chainomaly.grpcoh as grpcoh

    real = grpcoh._face_sums

    def corrupt(group, degree, values):
        out = real(group, degree, values)
        if degree == 3:
            out = out.copy()
            out[5] += 1
        return out

    monkeypatch.setattr(grpcoh, "_face_sums", corrupt)
    with pytest.raises(InvariantViolation, match="rounded Bockstein of the omega is not a cocycle"):
        bockstein_class([float(v) for v in omega_z2().values], cohomology(Z2, 3), "omega")


# -- slant product --------------------------------------------------------------------

def test_slant_of_zero():
    out = PhaseCochain(Z2, 2, tuple(slant_z(lambda a, b, c: Fraction(0), Z2)))
    assert is_zero(out)


def test_slant_of_pullback_is_cohomologically_trivial():
    # pull a degree-3 cocycle on G0 back along (g, n) -> g; its slant has
    # trivial class because every argument set contains the identity
    om = omega_z2()

    def ev(a, b, c):
        return om.at(a[0], b[0], c[0])

    out = PhaseCochain(Z2, 2, tuple(slant_z(ev, Z2)))
    assert is_cocycle(out)
    assert class_of_by_fractions(out, cohomology(Z2, 2)).is_trivial
