"""Cochains from Python functions, the exact coboundary, the zero and cocycle tests,
cochain and class-coordinate arithmetic, group relabelling, the distance
of measured float turns from an exact cochain, the exact class of a phase
cocycle summed in Fractions, a reference local Smith elimination, and
the full (unnormalized) bar complex with its classes, for building test
inputs and checking results in `chainomaly.grpcoh`'s terms. Used only by the
tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from chainomaly.errors import NotACocycle, PipelineError
from chainomaly.grpcoh import (
    ClassCoords,
    CohomologyGroup,
    FiniteGroup,
    PhaseCochain,
    _class_transforms,
    _face_index,
    _face_sums,
    _factorize,
    _normalize,
)

MAX_DEGREE = 3


class DegreeCap(PipelineError):
    pass


def coboundary(f: PhaseCochain) -> PhaseCochain:
    """Alternating-sum coboundary, one degree up, exact."""
    if f.degree > MAX_DEGREE:
        raise DegreeCap(f"coboundary capped at degree {MAX_DEGREE}")
    sums = _face_sums(f.group, f.degree, np.array(f.values, dtype=object))
    return PhaseCochain(f.group, f.degree + 1, tuple(sums))


def bockstein_by_fractions(f: PhaseCochain) -> np.ndarray:
    """The integer Bockstein of a phase cocycle, summed as exact Fractions
    in an object array."""
    sums = _face_sums(f.group, f.degree, np.array(f.values, dtype=object))
    if any(s.denominator != 1 for s in sums):
        raise NotACocycle("input is not a cocycle")
    return np.array([s.numerator for s in sums], dtype=np.int64)


def class_of_by_fractions(f: PhaseCochain, H: CohomologyGroup) -> ClassCoords:
    """Exact class coordinates of a phase cocycle: its integer Bockstein,
    summed as exact Fractions, normalized as `grpcoh.bockstein_class`
    normalizes a rounded one and projected by H's class rows."""
    c = _normalize(f.group, f.degree + 1, bockstein_by_fractions(f))
    return ClassCoords(tuple(int(w) for w in H._class_rows @ c), H.invariant_factors)


def cochain_from_function(group: FiniteGroup, degree: int, fn) -> PhaseCochain:
    """The cochain with value fn(*t) at every degree-tuple t, in table order."""
    tuples = itertools.product(range(group.order), repeat=degree)
    return PhaseCochain(group, degree, tuple(fn(*t) for t in tuples))


def max_turn_distance(turns, f: PhaseCochain) -> float:
    """The largest circular distance of measured float turns, one per tuple
    in table order, from the exact phases of f."""
    if len(turns) != len(f.values):
        raise ValueError("turns and cochain differ in length")
    dist = [(x - float(q)) % 1.0 for x, q in zip(turns, f.values)]
    return max(min(d, 1.0 - d) for d in dist)


def is_zero(f: PhaseCochain) -> bool:
    return all(v == 0 for v in f.values)


def is_cocycle(f: PhaseCochain) -> bool:
    return is_zero(coboundary(f))


def cochain_neg(f: PhaseCochain) -> PhaseCochain:
    return PhaseCochain(f.group, f.degree, tuple(-v for v in f.values))


def cochain_sub(f: PhaseCochain, g: PhaseCochain) -> PhaseCochain:
    return f + cochain_neg(g)


def coords_add(a: ClassCoords, b: ClassCoords) -> ClassCoords:
    assert a.factors == b.factors, "coordinates of different groups"
    return ClassCoords(tuple(x + y for x, y in zip(a.residues, b.residues)), a.factors)


def coords_neg(a: ClassCoords) -> ClassCoords:
    return ClassCoords(tuple(-r for r in a.residues), a.factors)


def relabeled(group: FiniteGroup, perm: tuple[int, ...]) -> FiniteGroup:
    """The group with element i renamed perm[i]; perm must fix the identity."""
    assert perm[0] == 0, "relabelling must fix the identity"
    n = group.order
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return FiniteGroup(
        tuple(tuple(perm[group.mul(inv[a], inv[b])] for b in range(n)) for a in range(n))
    )


def local_smith_reference(d: np.ndarray, p: int, m: int) -> list[tuple]:
    """Smith elimination of d over Z/p^m, taking an entry of least p-valuation
    as each pivot. Returns one record per pivot, in elimination order:
    (row, col, valuation, unit inverse scaling the row, rows cleared and
    their multipliers, cols cleared and their multipliers). Entries stay
    below p^m, so the int64 products are exact for any matrix within the
    default MatrixCap.

    The oracle for `grpcoh._local_smith`, which stops at the known rank and
    updates in place: this one scans every row at every level."""
    q = p ** m
    a = d.astype(np.int64) % q
    steps = []
    for t in range(m):
        pt, pt1 = p ** t, p ** (t + 1)
        # a row without an entry of valuation t never gains one at this level
        for i in np.flatnonzero((a % pt1).any(axis=1)):
            hits = np.flatnonzero(a[i] % pt1)
            if not hits.size:
                continue
            col = hits[0]
            uinv = pow(int(a[i, col]) // pt, -1, q)
            a[i] = a[i] * uinv % q
            mult = a[:, col] // pt
            mult[i] = 0
            rows = np.flatnonzero(mult)
            span = np.flatnonzero(a[i])
            block = np.ix_(rows, span)
            a[block] = (a[block] - np.outer(mult[rows], a[i, span])) % q
            # the column operations clearing row i change only row i
            cmult = a[i] // pt
            cmult[col] = 0
            cols = np.flatnonzero(cmult)
            a[i] = 0
            steps.append((i, col, t, uinv, rows, mult[rows], cols, cmult[cols]))
    return steps


def full_coboundary_matrix(group: FiniteGroup, k: int) -> np.ndarray:
    """Integer matrix of the full bar coboundary d: C^k(Z) -> C^(k+1)(Z),
    rows and columns indexed like `grpcoh._tuple_index`, identity entries
    included."""
    faces = _face_index(group, k + 1)
    rows = np.arange(faces.shape[1])
    d = np.zeros((faces.shape[1], group.order ** k), dtype=np.int64)
    for i, face in enumerate(faces):
        np.add.at(d, (rows, face), (-1) ** i)
    return d


@dataclass(frozen=True)
class FullComplex:
    """H^degree(G, U(1)) read off the full bar coboundary: the invariant
    factors, and the class rows and generator numerators over every tuple.
    Its class rows kill every coboundary, so it reads a Bockstein as it is."""

    invariant_factors: tuple[int, ...]
    rows: np.ndarray
    nums: np.ndarray

    def class_of(self, f: PhaseCochain) -> ClassCoords:
        c = bockstein_by_fractions(f)
        return ClassCoords(tuple(int(w) for w in self.rows @ c), self.invariant_factors)


def full_complex(group: FiniteGroup, degree: int) -> FullComplex:
    """The full-complex oracle for `grpcoh.cohomology`: the reference
    elimination of the full d_degree per prime, with the class rows and
    generators replayed from its steps."""
    n, d = group.order, full_coboundary_matrix(group, degree)
    elims, powers = [], []
    for p, e in _factorize(n).items():
        steps = local_smith_reference(d, p, 2 * e)
        elims.append((p, e, steps))
        powers.append([p ** s[2] for s in steps if s[2] > 0])
    nfac = max(map(len, powers), default=0)
    factors = tuple(
        math.prod(pvs[j] for pvs in powers if len(pvs) >= -j) for j in range(-nfac, 0)
    )
    rows, nums = _class_transforms(d.shape, elims, factors)
    return FullComplex(factors, rows, nums)
