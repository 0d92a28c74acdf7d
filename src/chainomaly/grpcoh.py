"""Exact finite group cohomology with circle-group coefficients.

Exact phases are rationals in [0,1) representing exp(2*pi*i*q). Cohomology
groups are classified through the normalized integer bar complex: the
cochains that vanish on every tuple with an identity entry, which have the
same cohomology as the full complex (Brown, Cohomology of Groups, I.5 and
III.1). For k >= 1, H^k(G, U(1)) = H^(k+1)(G, Z), which is exactly the
torsion of the cokernel of the normalized integer coboundary d_k, a
(|G| - 1)^(k+1) x (|G| - 1)^k matrix. Its exponent divides |G|, so each
p-primary part is read off a local Smith form of d_k computed in numpy
int32 over an int8 coboundary, modulo a power of p. The rational complex is
exact, so rank d_k = sum_(i=1..k) (-1)^(k-i) (|G| - 1)^i is known
beforehand: the elimination stops at that many pivots and checks that
nothing is left.
A measured phase k-cocycle, in float turns that need not be rational, is
lifted to [0, 1); the coboundary of the lift (the Bockstein), rounded to
integers, is a degree-(k+1) integer cocycle. It is normalized by explicit
coboundary shifts, and then the recorded row operations, replayed on first
use, project it onto the invariant-factor coordinates; a caller that reads
only the factors never replays them. Every alternating face sum, float or
integer, goes through one vectorised face index.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvariantViolation,
    MatrixCap,
    NotACocycle,
    ValidationError,
)
from .opwin import TOL_PHASE
from .qca import _factorize

MATRIX_CAP = 16 ** 5  # bound on |G|^(n+2)
# numpy's limit on array dimensions bounds the degree where MATRIX_CAP does
# not, for the trivial group: bockstein_class reads the faces of
# (k + 2)-tuples, whose index np.indices builds with k + 3 dimensions
_NDIM_MAX = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
DEGREE_CAP = _NDIM_MAX - 3


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication-table group; element 0 is the identity."""

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            t = tuple(tuple(operator.index(x) for x in row) for row in self.table)
        except TypeError as exc:
            raise ValidationError("multiplication table entries must be integers") from exc
        object.__setattr__(self, "table", t)
        n = len(t)
        if any(len(row) != n for row in t):
            raise ValidationError("multiplication table is not square")
        if any(not 0 <= x < n for row in t for x in row):
            raise ValidationError("table entries out of range")
        if any(t[0][a] != a or t[a][0] != a for a in range(n)):
            raise ValidationError("element 0 is not an identity")
        for a in range(n):
            if not any(t[a][b] == 0 for b in range(n)):
                raise ValidationError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                tab = t[a][b]
                for c in range(n):
                    if t[tab][c] != t[a][t[b][c]]:
                        raise ValidationError(f"associativity fails at ({a},{b},{c})")
        if self.names is not None:
            nm = tuple(str(s) for s in self.names)
            if len(nm) != n:
                raise ValidationError("names length does not match order")
            object.__setattr__(self, "names", nm)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    @classmethod
    def cyclic(cls, n: int, names: tuple[str, ...] | None = None) -> "FiniteGroup":
        if n < 1:
            raise ValidationError("cyclic group order must be >= 1")
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(table, names)

    @classmethod
    def direct_product(cls, g1: "FiniteGroup", g2: "FiniteGroup") -> "FiniteGroup":
        n1, n2 = g1.order, g2.order

        def idx(a, b):
            return a * n2 + b

        table = tuple(
            tuple(
                idx(g1.mul(a1, b1), g2.mul(a2, b2))
                for b1 in range(n1)
                for b2 in range(n2)
            )
            for a1 in range(n1)
            for a2 in range(n2)
        )
        names = tuple(
            f"({g1.name(a1)},{g2.name(a2)})" for a1 in range(n1) for a2 in range(n2)
        )
        return cls(table, names)


def _tuple_index(t: tuple[int, ...], n: int) -> int:
    i = 0
    for g in t:
        i = i * n + g
    return i


def _faces(group: FiniteGroup, t: np.ndarray):
    """The faces d_0 t .. d_m t (inhomogeneous bar convention) of the
    m-tuples in the columns of t, one (m - 1, columns) array of elements
    each."""
    table = np.array(group.table)
    m = len(t)
    yield t[1:]
    for i in range(1, m):
        yield np.concatenate([t[: i - 1], table[t[i - 1], t[i]][None], t[i + 1:]])
    yield t[:-1]


def _face_index(group: FiniteGroup, m: int) -> np.ndarray:
    """Flat index of every face of every m-tuple, as an (m + 1, n^m) array:
    row i holds d_i t, and columns and entries are indexed like
    _tuple_index."""
    n = group.order
    place = n ** np.arange(m - 2, -1, -1)  # place values of an (m-1)-tuple
    return np.stack([place @ f for f in _faces(group, np.indices((n,) * m).reshape(m, -1))])


def _identity_free(n: int, m: int) -> np.ndarray:
    """The m-tuples with no identity entry, as the columns of an
    (m, (n - 1)^m) array, in _tuple_index order."""
    return np.indices((n - 1,) * m).reshape(m, -1) + 1


def _face_sums(group: FiniteGroup, degree: int, values) -> np.ndarray:
    """Alternating face sums sum_i (-1)^i f(d_i t) over every (degree+1)-tuple
    t, for a degree-cochain f given by its flat values: float turns, integers,
    or exact numbers in an object array."""
    terms = np.asarray(values)[_face_index(group, degree + 1)]
    return terms[0::2].sum(axis=0) - terms[1::2].sum(axis=0)


@dataclass(frozen=True)
class PhaseCochain:
    """Map from G^degree to Q/Z, stored as exact fractions in [0,1)."""

    group: FiniteGroup
    degree: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.group.order
        if len(self.values) != n ** self.degree:
            raise ValidationError("cochain table has the wrong size")
        vals = tuple(Fraction(v) % 1 for v in self.values)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, group: FiniteGroup, degree: int) -> "PhaseCochain":
        return cls(group, degree, (Fraction(0),) * group.order ** degree)

    def at(self, *t: int) -> Fraction:
        return self.values[_tuple_index(t, self.group.order)]

    def __add__(self, other: "PhaseCochain") -> "PhaseCochain":
        if (self.group, self.degree) != (other.group, other.degree):
            raise ValidationError("cochain mismatch")
        return PhaseCochain(
            self.group,
            self.degree,
            tuple(a + b for a, b in zip(self.values, other.values)),
        )


# -- modular integer linear algebra ------------------------------------------

def _coboundary_matrix(group: FiniteGroup, k: int) -> np.ndarray:
    """Integer matrix of d: N^k(Z) -> N^(k+1)(Z) on normalized cochains,
    those that vanish on every tuple with an identity entry. Rows and
    columns are the identity-free tuples in _tuple_index order, so the
    matrix is (|G| - 1)^(k+1) x (|G| - 1)^k. A face that holds the identity
    is a degenerate column, where a normalized cochain is 0, and is
    dropped. Each entry is a signed count of at most k + 2 faces, so it is
    held in int8."""
    n = group.order
    d = np.zeros(((n - 1) ** (k + 1), (n - 1) ** k), dtype=np.int8)
    rows = np.arange(d.shape[0])
    place = (n - 1) ** np.arange(k - 1, -1, -1)
    for i, face in enumerate(_faces(group, _identity_free(n, k + 1))):
        keep = face.all(axis=0)
        np.add.at(d, (rows[keep], place @ (face[:, keep] - 1)), (-1) ** i)
    return d


def _local_smith(d: np.ndarray, p: int, e: int, rank: int) -> list[tuple]:
    """Smith elimination of d over Z/p^(2e), p^e annihilating the p-part of
    the torsion of coker d, taking an entry of least p-valuation as each
    pivot. Here d is the normalized coboundary of _coboundary_matrix, whose
    cokernel has the same torsion as the full bar coboundary's. Returns one
    record per pivot, in elimination order: (row, col, valuation, unit
    inverse scaling the row, rows cleared and their multipliers, cols
    cleared and their multipliers). The working matrix is int32, reduced in
    place: entries stay below q = p^(2e), so every product of a multiplier
    or unit inverse with an entry stays below q^2. MATRIX_CAP
    (|G|^(k+2) <= 16^5 with k >= 1) admits |G| <= 101, so q <= 101^2 = 10201
    and q^2 < 2^31: the int32 products are exact for every input it admits.

    Pivots have valuation at most e, so only valuations 0 .. e are scanned,
    and the scan stops at the rank-th pivot; the e digits above valuation e
    keep the generator coordinates exact. Then it checks that nothing is
    left: fewer pivots, or entries left over (as a pivot of valuation above
    e leaves), are an InvariantViolation."""
    q = p ** (2 * e)
    a = d.astype(np.int32)
    a %= q
    steps = []
    for t in range(e + 1):
        if len(steps) == rank:
            break
        pt, pt1 = p ** t, p ** (t + 1)
        # a row without an entry of valuation t never gains one at this level,
        # and the hits test skips a nonzero row that has none; nonzero()[0] on
        # 1-D arrays skips np.flatnonzero's wrappers, which took about 15% of
        # the time of these small eliminations
        for i in a.any(axis=1).nonzero()[0]:
            row = a[i]  # a view: the pivot row is scaled and cleared in place
            hits = (row % pt1).nonzero()[0]
            if not hits.size:
                continue
            col = hits[0]
            uinv = pow(int(row[col]) // pt, -1, q)
            row *= uinv
            row %= q
            mult = a[:, col] // pt
            mult[i] = 0
            rows = mult.nonzero()[0]
            mult = mult[rows]
            span = row.nonzero()[0]
            block = a[rows[:, None], span]
            block -= mult[:, None] * row[span]
            block %= q
            a[rows[:, None], span] = block
            # the column operations clearing row i change only row i
            cmult = row // pt
            cmult[col] = 0
            cols = cmult.nonzero()[0]
            row[:] = 0
            steps.append((i, col, t, uinv, rows, mult, cols, cmult[cols]))
            if len(steps) == rank:
                break
    leftover = a.any()
    if len(steps) != rank or leftover:
        raise InvariantViolation(
            f"mod {p}^{2 * e} elimination of a rank-{rank} coboundary found "
            f"{len(steps)} pivots of valuations {sorted({s[2] for s in steps})}"
            f"{' and entries left over' if leftover else ''}, "
            f"not {rank} of valuation <= {e}"
        )
    return steps


def _torsion_transforms(shape: tuple[int, int], p: int, e: int, steps: list[tuple]) -> list[tuple]:
    """p-primary part of the torsion of coker d, where p^e annihilates it,
    from the steps of d's elimination modulo p^(2e); d has `shape`.

    Returns (p^v, row of the left transform mod p^v, column of the right
    transform) per factor Z/p^v, with v ascending. The row maps an integer
    cocycle to its coordinate; the column divided by p^v is a phase cochain
    whose Bockstein has that coordinate 1 and the others 0. The e digits
    past the largest valuation keep the generator coordinates exact.
    """
    q = p ** (2 * e)
    torsion = [s for s in steps if s[2] > 0]  # valuations ascend with the steps
    left = np.zeros((len(torsion), shape[0]), dtype=np.int64)
    right = np.zeros((shape[1], len(torsion)), dtype=np.int64)
    for j, (i, col, *_) in enumerate(torsion):
        left[j, i] = 1
        right[col, j] = 1
    # replay the operations backwards onto the unit vectors of the torsion pivots
    for i, col, _, uinv, rows, mult, cols, cmult in reversed(steps):
        left[:, i] = (left[:, i] - left[:, rows] @ mult % q) * uinv % q
        right[col] = (right[col] - cmult @ right[cols]) % q
    return [
        (p ** s[2], left[j] % p ** s[2], right[:, j]) for j, s in enumerate(torsion)
    ]


def _class_transforms(shape: tuple[int, int], eliminations, factors: tuple[int, ...]) -> tuple:
    """The class rows and the generators' numerators over their factors, on
    the tuples of a coboundary matrix of `shape`, by replaying each prime's
    (p, e, steps) and assembling the primes by CRT."""
    parts = [_torsion_transforms(shape, p, e, s) for p, e, s in eliminations]
    # the j-th largest factor collects the j-th largest power of every prime
    rows, nums = [], []
    for j, s in zip(range(-len(factors), 0), factors):
        row = np.zeros(shape[0], dtype=np.int64)
        num = np.zeros(shape[1], dtype=np.int64)
        for pv, left, right in (fs[j] for fs in parts if len(fs) >= -j):
            rest = s // pv
            row += rest * pow(rest, -1, pv) * left  # CRT idempotent
            num += rest * right
        rows.append(row % s)
        nums.append(num % s)
    nfac = len(factors)
    return (
        np.array(rows, dtype=np.int64).reshape(nfac, shape[0]),
        np.array(nums, dtype=np.int64).reshape(nfac, shape[1]),
    )


@dataclass(frozen=True, eq=False)
class CohomologyGroup:
    """Invariant-factor presentation of H^degree(G, U(1)).

    The factors come from one local Smith elimination per prime of the
    normalized coboundary d_degree (_coboundary_matrix), kept as
    (p, e, steps) in `_eliminations`. The rows that project a normalized
    integer Bockstein onto class coordinates (`_class_rows`) and the
    generator cochains are replayed from those steps on first use, once per
    group, and scattered onto every tuple with zeros on the tuples that hold
    the identity; a caller that reads only the factors never pays for them.
    Class rows kill only normalized coboundaries, so `bockstein_class`
    normalizes a Bockstein before it projects it."""

    group: FiniteGroup
    degree: int
    invariant_factors: tuple[int, ...]
    _eliminations: tuple[tuple, ...] = field(repr=False)

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The class rows and the generators' numerators, one row per
        factor, on every tuple."""
        n, k = self.group.order, self.degree
        parts = _class_transforms(
            ((n - 1) ** (k + 1), (n - 1) ** k), self._eliminations, self.invariant_factors
        )
        out = []
        for m, part in zip((k + 1, k), parts):
            full = np.zeros((len(part), n ** m), dtype=np.int64)
            full[:, n ** np.arange(m - 1, -1, -1) @ _identity_free(n, m)] = part
            out.append(full)
        return tuple(out)

    @property
    def _class_rows(self) -> np.ndarray:
        return self._classes[0]

    @cached_property
    def generators(self) -> tuple[PhaseCochain, ...]:
        """One exact cocycle per invariant factor, of class coordinates 1 there
        and 0 elsewhere."""
        return tuple(
            PhaseCochain(self.group, self.degree, tuple(Fraction(int(x), s) for x in num))
            for s, num in zip(self.invariant_factors, self._classes[1])
        )

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def pretty(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " ⊕ ".join(f"ℤ/{f}" for f in self.invariant_factors)

    def representative(self, coords: "ClassCoords") -> PhaseCochain:
        """The exact cocycle sum_i r_i gen_i of the class with residues r."""
        out = PhaseCochain.zero(self.group, self.degree)
        for r, gen in zip(coords.residues, self.generators):
            out = out + PhaseCochain(gen.group, gen.degree, tuple(r * v for v in gen.values))
        return out


@dataclass(frozen=True)
class ClassCoords:
    """Residues modulo the invariant factors of a CohomologyGroup."""

    residues: tuple[int, ...]
    factors: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != len(self.factors):
            raise ValidationError("coordinate length mismatch")
        object.__setattr__(
            self,
            "residues",
            tuple(r % f for r, f in zip(self.residues, self.factors)),
        )

    @property
    def is_trivial(self) -> bool:
        return all(r == 0 for r in self.residues)


@lru_cache(maxsize=64)
def _cohomology_cached(group: FiniteGroup, degree: int) -> CohomologyGroup:
    n = group.order
    k = degree
    # H^k(G, U(1)) = H^(k+1)(G, Z) = torsion of coker d_k, one p-part per
    # prime, read off the normalized complex, which has the same cohomology
    d = _coboundary_matrix(group, k)
    # the rational complex is exact above degree 0, which fixes rank d_k
    rank = sum((-1) ** (k - i) * (n - 1) ** i for i in range(1, k + 1))
    elims, powers = [], []
    for p, e in _factorize(n).items():
        steps = _local_smith(d, p, e, rank)
        elims.append((p, e, steps))
        powers.append([p ** s[2] for s in steps if s[2] > 0])
    # the j-th largest factor collects the j-th largest power of every prime
    nfac = max(map(len, powers), default=0)
    factors = tuple(
        math.prod(pvs[j] for pvs in powers if len(pvs) >= -j) for j in range(-nfac, 0)
    )
    return CohomologyGroup(
        group=group,
        degree=degree,
        invariant_factors=factors,
        _eliminations=tuple(elims),
    )


def cohomology(group: FiniteGroup, degree: int) -> CohomologyGroup:
    """H^degree(G, U(1)) as invariant factors plus classification data."""
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if degree > DEGREE_CAP:
        raise MatrixCap(
            f"degree {degree} exceeds cap {DEGREE_CAP}: reading a class of degree k "
            f"indexes the faces of (k + 2)-tuples in a (k + 3)-dimensional array, "
            f"and numpy holds at most {_NDIM_MAX} dimensions"
        )
    if group.order ** (degree + 2) > MATRIX_CAP:
        raise MatrixCap(
            f"|G|^(degree+2) = {group.order ** (degree + 2)} exceeds cap {MATRIX_CAP}"
        )
    return _cohomology_cached(group, degree)


def _normalize(group: FiniteGroup, m: int, c: np.ndarray) -> np.ndarray:
    """The normalized integer m-cocycle in the class of the int64 cocycle
    c: for j = 0 .. m - 1, c -= (-1)^j d(s_j c), where
    (s_j c)(t_1..t_(m-1)) = c(t_1..t_j, e, t_(j+1)..t_(m-1)). The result
    vanishes on every tuple with an identity entry, where the class rows are
    0, and differs from c by a coboundary. Each step grows the largest entry
    at most (m + 2)-fold, and a class row then sums c.size products with
    entries below |G|: where that could pass int64, the steps run on Python
    ints; otherwise c is overwritten."""
    bound = (m + 2) ** m * int(np.abs(c).max(initial=0)) * c.size * group.order
    if bound >= 2 ** 63:
        c = c.astype(object)
    cube = c.reshape((group.order,) * m)  # a view: each step reads the last
    for j in range(m):
        ds = _face_sums(group, m - 1, cube.take(0, axis=j).ravel())
        c -= ds if j % 2 == 0 else -ds
    return c


def bockstein_class(turns, H: CohomologyGroup, what: str = "cochain") -> tuple[ClassCoords, float]:
    """Class of a phase cocycle given as float turns (angle over 2 pi), one per
    tuple, and the largest distance of its float Bockstein from the
    integers: the coboundary of the lift to [0, 1), rounded to the integer
    Bockstein, is blind to real coboundaries. A distance above TOL_PHASE is
    refused. `what` names the cocycle in errors."""
    G, k = H.group, H.degree
    b = _face_sums(G, k, np.asarray(turns, dtype=float) % 1.0)
    c = np.rint(b)
    err = np.abs(b - c)
    worst = int(np.argmax(err))
    if err[worst] > TOL_PHASE:
        t = np.unravel_index(worst, (G.order,) * (k + 1))
        raise NotACocycle(
            f"{what} is not a cocycle: its Bockstein at "
            f"({', '.join(G.name(int(g)) for g in t)}) is {err[worst]:.3g} from an integer"
        )
    c = c.astype(np.int64)
    if _face_sums(G, k + 1, c).any():
        raise InvariantViolation(f"the rounded Bockstein of the {what} is not a cocycle")
    c = _normalize(G, k + 1, c)
    coords = ClassCoords(tuple(int(w) for w in H._class_rows @ c), H.invariant_factors)
    return coords, float(err[worst])


def slant_z(omega_eval, group0: FiniteGroup) -> list:
    """Contract a 3-cochain on G0 x Z against the generator of the Z factor.

    `omega_eval` takes three (g, n) pairs with n in {0, 1} and returns a
    phase: an exact Fraction or float turns. In additive notation the result
    is w(e,1; g,0; g',0) + w(g,0; g',0; e,1) - w(g,0; e,1; g',0), one value
    per pair (g, g') in _tuple_index order, of the evaluator's type. The
    evaluator must be defined on every tuple asked for; an exception it
    raises propagates unchanged.
    """
    w, e = omega_eval, 0
    return [
        w((e, 1), (g, 0), (gp, 0)) + w((g, 0), (gp, 0), (e, 1)) - w((g, 0), (e, 1), (gp, 0))
        for g, gp in itertools.product(group0.elements(), repeat=2)
    ]
