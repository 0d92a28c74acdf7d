"""Reference answers the benchmark checks chainomaly's reports against.

Everything here is computed apart from the program: closed forms for the
cohomology of finite abelian groups (Kunneth), tabulated values for small
nonabelian groups (de Wild Propitius, hep-th/9511195), exact cocycle
identities in fractions, commutator phases of matrices, shift indices read
off a circuit description, and free-fermion (Jordan-Wigner) spectra of the
transverse-field, cluster and Ising ring.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

# -- finite groups as multiplication tables (element 0 is the identity) --------


def product_table(*orders: int) -> list[list[int]]:
    """Z_n1 x Z_n2 x ...; element index in mixed radix, first factor most
    significant, as repeated direct products label them."""
    digits = list(itertools.product(*(range(n) for n in orders)))
    index = {d: i for i, d in enumerate(digits)}
    return [
        [index[tuple((x + y) % n for x, y, n in zip(a, b, orders))] for b in digits]
        for a in digits
    ]


def _closure_table(elements: list, mul) -> list[list[int]]:
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def _perm_mul(p, q):
    return tuple(p[i] for i in q)


def s3_table() -> list[list[int]]:
    return _closure_table(list(itertools.permutations(range(3))), _perm_mul)


def d8_table() -> list[list[int]]:
    """Symmetries of a square, as permutations of its corners."""
    gens = [(1, 2, 3, 0), (0, 3, 2, 1)]
    elements = [(0, 1, 2, 3)]
    for e in elements:  # grows while iterating: breadth-first closure
        for g in gens:
            p = _perm_mul(e, g)
            if p not in elements:
                elements.append(p)
    return _closure_table(elements, _perm_mul)


def q8_table() -> list[list[int]]:
    """Quaternion units +-1, +-i, +-j, +-k as integer 4-vectors."""

    def qmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    units = []
    for axis in range(4):
        for sign in (1, -1):
            v = [0, 0, 0, 0]
            v[axis] = sign
            units.append(tuple(v))
    return _closure_table(units, qmul)


def element_order(table: list[list[int]], g: int) -> int:
    n, x = 1, g
    while x != 0:
        x = table[x][g]
        n += 1
    return n


# -- cohomology with U(1) coefficients -----------------------------------------

# H^k(G, U(1)) for nonabelian groups, de Wild Propitius, hep-th/9511195
TABULATED = {
    ("S3", 2): [],
    ("S3", 3): [6],
    ("D8", 2): [2],
    ("Q8", 2): [],
}


def kunneth(orders: list[int], degree: int) -> list[int]:
    """H^2 and H^3 of Z_n1 x ... x Z_nr with U(1) coefficients:
    H^2 = sum over pairs of Z_gcd; H^3 = sum of Z_ni, plus Z_gcd per pair,
    plus Z_gcd per triple."""
    pairs = [math.gcd(a, b) for a, b in itertools.combinations(orders, 2)]
    if degree == 2:
        return pairs
    if degree == 3:
        triples = [math.gcd(*t) for t in itertools.combinations(orders, 3)]
        return list(orders) + pairs + triples
    raise ValueError("closed forms are given for degrees 2 and 3 only")


def primary_parts(factors) -> list[int]:
    """Canonical form of a finite abelian group: its prime-power parts."""
    out = []
    for f in factors:
        f = int(f)
        p = 2
        while f > 1:
            if f % p == 0:
                q = 1
                while f % p == 0:
                    f //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


def same_abelian_group(a, b) -> bool:
    return primary_parts(a) == primary_parts(b)


# -- cochains ------------------------------------------------------------------


def parse_phase(text: str) -> Fraction:
    return Fraction(text) % 1


def cocycle_defects(table, values: dict[tuple[int, ...], Fraction], degree: int):
    """Tuples where the coboundary of a U(1)-valued cochain (trivial action,
    additive notation mod 1) is nonzero."""
    n = len(table)
    bad = []
    for t in itertools.product(range(n), repeat=degree + 1):
        # faces: drop the first argument (+), merge t[i] t[i+1] with sign
        # (-1)^(i+1), drop the last argument with sign (-1)^(degree+1)
        acc = values[t[1:]]
        for i in range(degree):
            face = t[:i] + (table[t[i]][t[i + 1]],) + t[i + 2 :]
            acc += values[face] if i % 2 else -values[face]
        acc += values[t[:-1]] if degree % 2 else -values[t[:-1]]
        if acc % 1:
            bad.append(t)
    return bad


def cyclic_invariant(table, omega: dict[tuple[int, int, int], Fraction], g: int) -> int:
    """n * sum_k omega(g, g^k, g) mod n for g of order n: the class of the
    restriction to <g> in H^3(Z_n, U(1)) = Z_n. Coboundaries telescope
    away, so this does not depend on the gauge of omega."""
    n = element_order(table, g)
    total = Fraction(0)
    power = 0
    for _ in range(n):
        total += omega[(g, power, g)]
        power = table[power][g]
    scaled = n * total
    if scaled.denominator != 1:
        raise ValueError(f"restriction to <{g}> is not an order-{n} phase")
    return scaled.numerator % n


# -- projective representations and shift indices ------------------------------


def commutator_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> complex:
    """The scalar a b a^-1 b^-1 of two matrices that commute up to a phase."""
    c = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    lam = c[0, 0]
    if np.max(np.abs(c - lam * np.eye(len(c)))) > tol:
        raise ValueError("matrices do not commute up to a scalar")
    return complex(lam)


def shift_index(registers: list[int], steps: list[dict]) -> dict[int, int]:
    """Sum of displacement * log(dimension) over the shifts of a circuit, as
    exponents of primes; gate layers contribute nothing."""
    out: dict[int, int] = {}
    for s in steps:
        if s["kind"] != "shift":
            continue
        for q in primary_parts([registers[s["register"]]]):
            p = min(d for d in range(2, q + 1) if q % d == 0)
            out[p] = out.get(p, 0) + s["displacement"] * round(math.log(q, p))
    return {p: e for p, e in out.items() if e}


# -- free fermions ----------------------------------------------------------------


def _lowest_subset_sums(energies: list[float]):
    """Yield (sum, size) over all subsets of nonnegative energies in
    nondecreasing order of sum."""
    e = sorted(energies)
    yield 0.0, 0
    if not e:
        return
    heap = [(e[0], 0, 1)]  # (sum, largest index used, subset size)
    while heap:
        s, i, size = heapq.heappop(heap)
        yield s, size
        if i + 1 < len(e):
            heapq.heappush(heap, (s + e[i + 1], i + 1, size + 1))
            heapq.heappush(heap, (s - e[i] + e[i + 1], i + 1, size))


def free_fermion_levels(
    n: int, field: float = 1.0, cluster: float = 0.0, ising: float = 0.0, nlow: int = 6
) -> list[float]:
    """Lowest levels of -field sum X - cluster sum ZXZ - ising sum ZZ on a ring.

    Jordan-Wigner with X = 1 - 2 c^dag c. In the sector of global flip
    parity P the fermions are antiperiodic (P = +1) or periodic (P = -1);
    momenta k and -k pair into Bogoliubov blocks with
    xi(k) = 2 field - 2 ising cos k - 2 cluster cos 2k and
    delta(k) = 2 ising sin k + 2 cluster sin 2k, while a self-conjugate
    momentum is a bare mode of energy xi(k). A level is the sector's vacuum
    plus excitations, kept when its fermion parity matches P.
    """
    levels: list[float] = []
    for parity, offset in ((1, 0.5), (-1, 0.0)):
        vacuum = -field * n
        modes: list[float] = []
        vac_sign = 1
        for m in range(n):
            k = 2 * math.pi * (m + offset) / n
            xi = 2 * field - 2 * ising * math.cos(k) - 2 * cluster * math.cos(2 * k)
            if abs(math.sin(k)) < 1e-12:
                modes.append(abs(xi))
                if xi < 0:
                    vacuum += xi
                    vac_sign = -vac_sign
            elif math.sin(k) > 0:  # one block per pair (k, -k)
                delta = 2 * ising * math.sin(k) + 2 * cluster * math.sin(2 * k)
                eps = math.hypot(xi, delta)
                vacuum += xi - eps
                modes += [eps, eps]
        found = 0
        for s, size in _lowest_subset_sums(modes):
            if vac_sign * (-1) ** size == parity:
                levels.append(vacuum + s)
                found += 1
                if found == nlow:
                    break
    return sorted(levels)[:nlow]

