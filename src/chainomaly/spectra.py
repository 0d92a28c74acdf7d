"""Finite-size spectral witness on periodic chains.

A ring Hamiltonian is a table of Pauli terms c * X^x Z^z on bitmasks, one
entry per term and site: the X-part flips the bits of x, the Z-part is the
parity sign of the bits of z, and Y = iXZ. `lowest_eigs` splits the ring
into translation-momentum sectors (Sandvik, arXiv:1101.3281, sec. 4; the
QuSpin paper, SciPost Phys. 2, 003 (2017)) and diagonalises sectors
m = 0..N/2 one at a time. Every term is reflection-symmetric, so sector
N - m has the levels of sector m and its eigenvectors are the bit-reversed
ones.

Every term also commutes with the antiunitary A = PFK: the reflection
P (j -> N-1-j), the global flip F and complex conjugation K. A^2 = 1 and
A T A^-1 = T^-1, so A maps each momentum sector to itself, and every block
is real in a basis of A-fixed vectors with at most two entries per column.
(Sandvik's semi-momentum states pair q with -q through P; composing P with
F K keeps q.) So one real path solves every sector: dense `eigh` below a
measured block size, real Lanczos (ARPACK `eigsh`) from a seeded generic
start vector above it.

The ring version of the flip-and-entangle symmetry, Gamma = D F with D the
sign -1 per bond whose two bits are both one, is a real signed permutation
with Gamma^2 = 1 that commutes with T and with A on every even ring. It
exchanges the field term h0 and the cluster term h1 and fixes hj and ha, so
it commutes with H exactly when H holds h0 and h1 with equal weight, which
`lowest_eigs` reads off the term table. Then H has no matrix element
between Gamma = +1 and Gamma = -1, and each momentum sector splits exactly
into two halves of about half the size, each real in an A-fixed basis of
Gamma eigenvectors with at most four entries per column. Every level then
comes with a sharp charge, and copies of a level in opposite halves (the
symmetry-broken pair, in-sector Gamma doublets) are solved apart instead
of being resolved out of one near-degenerate Lanczos run. Other
Hamiltonians keep one whole-sector basis per momentum.

The tables are kept lean, since the 2^N-state ones set the memory of the
largest rings. The orbit tables over all states hold an int32
representative index and an int8 shift. H on the representatives is one
hop table with int32 indices, sorted once by (target, source), so each
sector's CSR block is read off it in order, its phases taken from a table
of the N values e^{iql}. Each real block R = U^+ B U is formed from B's
rows at the lead state of each Gamma column only: B U = U R, and the rows
of U at the leads are block diagonal with 1 x 1 and 2 x 2 blocks, so they
are inverted in closed form.

Only the k lowest levels are kept, so `lowest_eigs` spends ARPACK only on
halves where one of them can land. It solves the unmirrored sectors m = 0
and N/2 first, then m = 1..N/2-1. Once k levels are held, their k-th level
tau is a running cut, and a Lanczos half first gets a cheap probe: the
lowest Ritz vector x to tolerance 1e-3, its Rayleigh quotient theta and its
residual r = |A x - theta x|. Some eigenvalue lies in [theta - r,
theta + r], and theta is at least the half's lowest level, so the half is
skipped when theta - r > tau + 1e-9 max(1, |tau|). The skip is exact as
long as the probe lands on the half's lowest level, which the tests check
against dense and free-fermion oracles; a half that ties with tau to
rounding is always solved in full. Dense halves are never probed. Each
half's start vector is seeded by its own labels (m, half), so a half's
bits do not depend on which other halves were skipped.

Each returned level is labelled by its sector m, its half and whether it
is the mirrored copy, and keeps its vector in sector-m momentum
coordinates; none is lifted to the full space. Its Gamma charge is read
inside the sector: exactly sigma in a half, <v|Gamma|v> from the Gamma
partners of the representatives otherwise, and a mirrored copy shares its
partner's charge because P Gamma P = Gamma. A gap scan over a grid of sizes
and couplings records the gapless or symmetry-broken trends that a nonzero
anomaly forces on symmetric Hamiltonians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvariantViolation, NoConvergence, PipelineError, SizeCap, ValidationError

_KNOWN_TERMS = ("h0", "h1", "hj", "ha")

# Largest real block diagonalised densely. Measured with one BLAS thread on
# the Gamma halves of h0 + h1, summed over the halves of m = 0..N/2: at
# N = 10 (dimension 48-56) dense eigh takes 11 ms against 45 ms for ARPACK,
# at N = 12 (165-178) 52 ms against 59 ms, at N = 14 (576-596) 714 ms
# against 120 ms. Whole sectors (no Gamma split) are 335-352 at N = 12,
# where ARPACK wins. No block of an even ring has a size in between.
_DENSE_MAX = 200

# Largest ring a Hamiltonian is built for.
SIZE_CAP = 22


@dataclass(frozen=True)
class HamiltonianSpec:
    """Periodic chain with the selected translation-covariant terms."""

    n_sites: int
    j_coupling: float = 0.0
    a_coupling: float = 0.0
    terms: tuple[str, ...] = ("h0", "h1")

    def __post_init__(self):
        if self.n_sites < 4 or self.n_sites % 2 != 0:
            raise ValidationError("n_sites must be even and at least 4")
        terms = tuple(sorted(set(self.terms)))
        for t in terms:
            if t not in _KNOWN_TERMS:
                raise ValidationError(f"unknown term {t!r}")
        if not terms:
            raise ValidationError("at least one term is required")
        object.__setattr__(self, "terms", terms)
        # a coupling whose term is absent builds nothing; zero it so that
        # equal Hamiltonians compare (and form witness families) as equal
        if "hj" not in terms:
            object.__setattr__(self, "j_coupling", 0.0)
        if "ha" not in terms:
            object.__setattr__(self, "a_coupling", 0.0)

    @property
    def is_symmetric(self) -> bool:
        # the flip-and-entangle symmetry exchanges the field and cluster terms
        return ("h0" in self.terms) == ("h1" in self.terms)


def _parity_sign(v: np.ndarray) -> np.ndarray:
    """(-1)^popcount(v), elementwise, for nonnegative int64 arrays."""
    for s in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> s)
    return 1.0 - 2.0 * (v & 1)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Sum of coef * X^x Z^z over the (coef, x, z) entries of `terms`, on
    n_sites qubits with site 0 the most significant bit (Z acts first)."""

    n_sites: int
    terms: tuple[tuple[complex, int, int], ...]


def build_hamiltonian(spec: HamiltonianSpec) -> SparseOperator:
    """Sum of the selected terms with periodic identification j + N = j."""
    n = spec.n_sites
    if n > SIZE_CAP:
        raise SizeCap(f"{n} sites exceeds the sparse cap {SIZE_CAP}")

    def bit(j: int) -> int:
        return 1 << (n - 1 - j % n)

    terms: list[tuple[complex, int, int]] = []
    for j in range(n):
        left, mid, right = bit(j - 1), bit(j), bit(j + 1)
        if "h0" in spec.terms:  # -X_j
            terms.append((-1.0 + 0j, mid, 0))
        if "h1" in spec.terms:  # -Z_{j-1} X_j Z_{j+1}
            terms.append((-1.0 + 0j, mid, left | right))
        if "hj" in spec.terms:  # -J Z_j Z_{j+1}
            terms.append((complex(-spec.j_coupling), 0, mid | right))
        if "ha" in spec.terms:  # a (Y_j - Z_{j-1} Y_j Z_{j+1})
            terms.append((1j * spec.a_coupling, mid, mid))
            terms.append((-1j * spec.a_coupling, mid, left | mid | right))
    return SparseOperator(n_sites=n, terms=tuple(terms))


def _rotate(s: np.ndarray, n: int) -> np.ndarray:
    """T^-1 on basis states, where T moves site j to site j + 1."""
    return ((s << 1) & ((1 << n) - 1)) | (s >> (n - 1))


@dataclass(frozen=True)
class _Orbits:
    """Translation orbits of all 2^n basis states. Each state s equals
    T^shift[s] applied to the representative reps[index[s]], the least state
    of its orbit; period[i] is the orbit length of reps[i].

    The two tables over all 2^n states are the narrow ones: `index` is int32
    and `shift` int8. `of` builds them by rotating one int32 state array in
    place, and finds the periods on the representatives only."""

    n_sites: int
    reps: np.ndarray
    index: np.ndarray
    shift: np.ndarray
    period: np.ndarray

    @classmethod
    def of(cls, n: int) -> "_Orbits":
        size, mask = 1 << n, (1 << n) - 1
        rep = np.arange(size, dtype=np.int32)
        cur, carry = rep.copy(), np.empty_like(rep)
        shift = np.zeros(size, dtype=np.int8)
        lower = np.empty(size, dtype=bool)
        for r in range(1, n):
            # cur = T^-r s, rotated in place
            np.right_shift(cur, n - 1, out=carry)
            np.left_shift(cur, 1, out=cur)
            np.bitwise_and(cur, mask, out=cur)
            np.bitwise_or(cur, carry, out=cur)
            np.less(cur, rep, out=lower)
            np.copyto(rep, cur, where=lower)
            shift[lower] = r
        del carry, lower
        # a state is the least of its orbit exactly when no rotation lowers it
        reps = np.flatnonzero(shift == 0)
        cur[reps] = np.arange(len(reps), dtype=np.int32)
        index = cur[rep]
        # the orbit length divides n; the least divisor d with T^-d r = r wins
        period = np.full(len(reps), n)
        for d in range(n - 1, 0, -1):
            if n % d == 0:
                period[(((reps << d) & mask) | (reps >> (n - d))) == reps] = d
        return cls(n, reps, index, shift, period)


def _bit_reverse(s: np.ndarray, n: int) -> np.ndarray:
    """The reflection j -> N-1-j of the ring on the states s."""
    out = np.zeros_like(s)
    for j in range(n):
        out |= ((s >> j) & 1) << (n - 1 - j)
    return out


def _hops(H: SparseOperator, orb: _Orbits):
    """H on the representatives, for every sector at once: for each nonzero
    amplitude, the source and target representative, the shift l with
    target state = T^l (target representative), and h * sqrt(R_a / R_b).
    Sector q weights each entry by e^{iql}. The table is sorted once by
    (target, source), so every sector's CSR block is read off it in order;
    both indices are int32."""
    by_flip: dict[int, list[tuple[complex, int]]] = {}
    for c, x, z in H.terms:
        by_flip.setdefault(x, []).append((c, z))
    cols, rows, shifts, vals = [], [], [], []
    for x, group in by_flip.items():
        amp = sum(c * _parity_sign(orb.reps & z) for c, z in group)
        src = np.flatnonzero(amp != 0)
        tgt = orb.reps[src] ^ x
        cols.append(src)
        rows.append(orb.index[tgt])
        shifts.append(orb.shift[tgt])
        vals.append(amp[src])
    cols, rows = np.concatenate(cols).astype(np.int32), np.concatenate(rows)
    order = np.lexsort((cols, rows))
    cols, rows = cols[order], rows[order]
    vals = np.concatenate(vals)[order] * np.sqrt(orb.period[cols] / orb.period[rows])
    return cols, rows, np.concatenate(shifts)[order], vals


def _sector_phase(m: int, n: int, shifts: np.ndarray) -> np.ndarray:
    """e^{iql} for q = 2 pi m / N and every shift l. It is exactly +-1 in the
    sectors q = 0 and q = pi, whose blocks are then real without Y terms.
    The N values for l = 0..N-1 are tabulated and read at l mod N."""
    steps = np.arange(n)
    if 2 * m % n == 0:
        table = 1.0 - 2.0 * ((2 * m // n * steps) % 2)
    else:
        table = np.exp(2j * np.pi * m / n * steps)
    return table[shifts % n]


def _partners(orb: _Orbits) -> tuple[np.ndarray, np.ndarray]:
    """For each representative r, the index of r', the representative of the
    reflected and flipped state PF r, and the shift s with PF r = T^s r'.
    Then A|r, q> = e^{iqs}|r', q>, and r' has the orbit length of r."""
    image = _bit_reverse(orb.reps, orb.n_sites) ^ ((1 << orb.n_sites) - 1)
    return orb.index[image], orb.shift[image]


def _gamma_partners(orb: _Orbits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each representative r, the index of r_G, the representative of
    the flipped state F r, the shift t with F r = T^t r_G, and the bond sign
    g(r). Then Gamma|r, q> = g(r) e^{iqt}|r_G, q>."""
    image = orb.reps ^ ((1 << orb.n_sites) - 1)
    sign = _parity_sign(orb.reps & _rotate(orb.reps, orb.n_sites))
    return orb.index[image], orb.shift[image], sign


def _commutes_with_gamma(H: SparseOperator) -> bool:
    """Gamma H Gamma == H, read off the term table. Gamma = D F, with F the
    global flip and D the bond signs, maps c X^x Z^z to
    c (-1)^{|z| + b(x)} X^x Z^{z ^ w(x)}, where b(x) counts the bonds with
    both ends in x and w(x) is the parity of the neighbours of x. So it
    exchanges h0 and h1 and fixes hj and ha. The coefficients are compared
    exactly: a term table that only rounds to a symmetric one is not split."""
    n = H.n_sites
    table: dict[tuple[int, int], complex] = {}
    image: dict[tuple[int, int], complex] = {}
    for c, x, z in H.terms:
        if c == 0:
            continue
        left, right = _rotate(x, n), (x >> 1) | ((x & 1) << (n - 1))
        sign = (-1) ** (bin(z).count("1") + bin(x & left).count("1"))
        key = (x, z ^ left ^ right)
        table[x, z] = table.get((x, z), 0) + c
        image[key] = image.get(key, 0) + sign * c
    return table == image


def _sector_basis(
    partners, gamma, inside: np.ndarray, m: int, n: int, sigma
) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """(U, lead, left): the unitary U from the real coordinates of the
    Gamma = sigma half of sector m to its momentum coordinates, so that
    U^+ B U is real for every block B that commutes with A and Gamma; sigma
    None takes the whole sector. Every column is A-fixed and has at most
    four entries. lead[j] is the first state of Gamma column j, where the
    column's coefficient c_j is real, and left holds the rows of U at the
    leads, row j scaled by weight[j] = 1 / c_j^2, which is 1 for a lone
    state and 2 for a pair; `_real_block` reads the block there. For sigma
    None every state leads its own column with weight 1, so left equals U.

    The half is spanned by the Gamma columns |r> when r_G = r and g_r = sigma,
    and (|r> + sigma g_r |r_G>)/sqrt(2) for each pair r < r_G, where
    g_r = g(r) e^{iqt}; for sigma None every |r> is a column. A maps column a
    to w_a times column b = partner_a, with A^2 = 1. U takes e^{i phi/2}|a>
    when b = a with w_a = e^{i phi}, and (|a> + w_a|b>)/sqrt(2) and
    i(|a> - w_a|b>)/sqrt(2) for each pair a < b, in the order of a."""
    own = np.flatnonzero(inside)
    local = np.cumsum(inside) - 1
    d = len(own)
    states = np.arange(d)
    a_to = local[partners[0][own]]
    a_phase = _sector_phase(m, n, partners[1][own]).astype(complex)
    if sigma is None:
        g_to, g, sigma = states, np.ones(d), 1
    else:
        g_to = local[gamma[0][own]]
        g = gamma[2][own] * _sector_phase(m, n, gamma[1][own])
    h = np.sqrt(0.5)
    # the Gamma column of each state and its coefficient there (-1 and 0
    # outside the half); Gamma^2 = 1 makes g_r = +-1 when r_G = r
    lone = (g_to == states) & (np.real(g) * sigma > 0)
    pair = g_to > states
    lead = np.flatnonzero(lone | pair)
    col = np.full(d, -1)
    col[lead] = np.arange(len(lead))
    col[g_to[pair]] = col[pair]
    coef = np.zeros(d, dtype=complex)
    coef[lone] = 1.0
    coef[pair] = h
    coef[g_to[pair]] = sigma * h * g[pair]
    # A on the columns, read off at each column's leading state, whose
    # coefficient is real, then checked at every state of the half
    member = np.flatnonzero(col >= 0)
    partner = col[a_to[lead]]
    w = a_phase[lead] * coef[a_to[lead]].conj() / coef[lead].real
    c = col[member]
    off = np.abs(coef[member].conj() * a_phase[member] - w[c] * coef[a_to[member]])
    if (col[a_to[member]] != partner[c]).any() or not off.max(initial=0.0) <= 1e-12:
        raise InvariantViolation(
            f"momentum sector {m}: A does not map the Gamma = {sigma} half to itself"
        )
    # the A-fixed combinations: column a < b owns U columns u_a and u_a + 1
    cols = np.arange(len(lead))
    fixed, lower = partner == cols, partner > cols
    width = fixed + 2 * lower
    owner = np.where(partner < cols, partner, cols)
    u = (np.cumsum(width) - width)[owner]
    wo = w[owner]
    first = np.where(fixed, np.sqrt(w), np.where(lower, h, h * wo))
    second = np.where(lower, 1j * h, -1j * h * wo)
    two = ~fixed[c]
    data = np.concatenate([first[c] * coef[member], (second[c] * coef[member])[two]])
    urow = np.concatenate([member, member[two]])
    ucol = np.concatenate([u[c], u[c][two] + 1])
    U = sp.csr_matrix((data, (urow, ucol)), shape=(d, len(lead)))
    left = U[lead]  # a copy; its weights 1 and 2 scale it exactly
    left.data *= np.repeat(np.where(lone[lead], 1.0, 2.0), np.diff(left.indptr))
    return U, lead, left


def _momentum_block(orb: _Orbits, hops, m: int) -> tuple[np.ndarray, sp.csr_matrix]:
    """Sector q = 2 pi m / N: the mask of representatives it holds (those
    whose orbit length R has m R = 0 mod N) and H on their momentum states."""
    n = orb.n_sites
    cols, rows, shifts, vals = hops
    inside = (m * orb.period) % n == 0
    local = np.cumsum(inside, dtype=np.int32) - 1
    keep = inside[cols] & inside[rows]
    d = int(local[-1]) + 1
    indptr = np.zeros(d + 1, dtype=np.int32)
    np.cumsum(np.bincount(local[rows[keep]], minlength=d), out=indptr[1:])
    block = sp.csr_matrix(
        (vals[keep] * _sector_phase(m, n, shifts[keep]), local[cols[keep]], indptr),
        shape=(d, d),
    )
    block.sum_duplicates()
    return inside, block


def _real_block(block, basis, m: int) -> sp.csr_matrix:
    """R = U^+ block U as a real CSR matrix with sorted indices, read at the
    lead rows: for `basis` = (U, lead, left), R = left^+ B_L U, where left
    is weight U_L, and U_L and B_L are the rows of U and of the block at the
    lead states.
    This is exact because block U = U R, and U_L, the A-fixed combinations
    of the Gamma columns at their real lead coefficients, is block diagonal
    with 1 x 1 and 2 x 2 blocks up to the order of its rows and columns, so
    U_L^-1 = U_L^+ diag(weight). A split sector's product thus runs over
    half of its rows. Entries that cancel in exact arithmetic leave a
    rounding residue of at most 1e-14 times the block's scale; it is
    dropped, and ARPACK runs faster on sorted indices, which the product
    does not leave."""
    U, lead, left = basis
    real = left.conj().T.tocsr() @ (block[lead] @ U)
    scale = max(1.0, np.abs(block.data).max(initial=0.0))
    imag = np.abs(real.data.imag).max(initial=0.0)
    if not imag <= 1e-10 * scale:
        raise InvariantViolation(
            f"momentum sector {m}: block is not real in the A-fixed basis, "
            f"imaginary part {imag:.3g}"
        )
    data = real.data.real
    data = np.where(np.abs(data) > 1e-14 * scale, data, 0.0)
    real = sp.csr_matrix((data, real.indices, real.indptr), shape=real.shape)
    real.eliminate_zeros()
    real.sort_indices()
    return real


def _sector_lowest(block, basis, m: int, half: int, want: int, tau) -> tuple | None:
    """The `want` lowest levels of half `half` of momentum block m, solved as
    the real matrix U^+ block U, with the eigenvectors mapped back through U;
    None when a probe shows that the half's lowest level lies above tau, the
    running k-th level (None while fewer than k levels are held)."""
    U = basis[0]
    real = _real_block(block, basis, m)
    d = real.shape[0]
    if d <= _DENSE_MAX:
        vals, vecs = sla.eigh(real.toarray(), subset_by_index=[0, want - 1], driver="evr")
        return vals, U @ vecs
    v0 = np.random.default_rng([m, half]).standard_normal(d)
    try:
        if tau is not None:
            # an eigenvalue lies within r of theta, and theta >= the lowest
            x = spla.eigsh(real, k=1, which="SA", v0=v0, tol=1e-3, maxiter=2000)[1][:, 0]
            ax = real @ x
            theta = x @ ax
            if theta - np.linalg.norm(ax - theta * x) > tau + 1e-9 * max(1.0, abs(tau)):
                return None
        vals, vecs = spla.eigsh(real, k=want, which="SA", v0=v0, maxiter=2000)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], U @ vecs[:, order]


def _gamma_charges(gamma, inside: np.ndarray, m: int, n: int, v: np.ndarray) -> np.ndarray:
    """<v|Gamma|v> for every column v of a matrix in sector-m momentum
    coordinates, from Gamma|r, q> = g(r) e^{iqt}|r_G, q>."""
    own = np.flatnonzero(inside)
    to = (np.cumsum(inside) - 1)[gamma[0][own]]
    g = gamma[2][own] * _sector_phase(m, n, gamma[1][own])
    return np.sum(v[to].conj() * (g[:, None] * v), axis=0)


@dataclass(frozen=True, eq=False)
class Level:
    """One level of `lowest_eigs`: its momentum sector m, its Gamma half
    sigma (None when the sector was not split), whether it is the copy in the
    mirrored sector N - m, its Gamma charge, and its vector in sector-m
    momentum coordinates. The vector is the level's own copy, so a held
    level does not keep its sector's whole block of eigenvectors alive; the
    mirrored copy shares it, and in the full space its vector is the
    bit-reversed one. When copies of a level tie at the k-th place, the ones
    kept are those first in (m, half, mirrored) order: their labels are a
    tie-break, not physics."""

    m: int
    sigma: int | None
    mirrored: bool
    charge: complex
    vec: np.ndarray


def lowest_eigs(H: SparseOperator, k: int = 6) -> tuple[np.ndarray, list[Level]]:
    """k lowest eigenvalues and their levels, residual-checked to 1e-7.

    Diagonalises one momentum sector q = 2 pi m / N at a time, m = 0 and
    N/2 first and then m = 1..N/2-1, each split into its Gamma = +1 and -1
    halves when H commutes with Gamma, each half as a real matrix in its
    A-fixed basis, and counts the levels of 0 < m < N/2 twice, once for the
    mirrored sector N - m. Once k levels are held, a Lanczos half whose
    probed lowest level lies above the k-th is skipped. Levels tying at the
    cut are kept in the order of (energy, m, half, mirrored). A level's
    charge is sigma in a half and <v|Gamma|v> in a whole sector; the
    mirrored copy has the same charge, since P Gamma P = Gamma."""
    if k < 1 or k > 8:
        raise ValidationError("k must be between 1 and 8")
    n = H.n_sites
    orb = _Orbits.of(n)
    hops = _hops(H, orb)
    partners = _partners(orb)
    gamma = _gamma_partners(orb)
    charges = (1, -1) if _commutes_with_gamma(H) else (None,)
    held: list[tuple[tuple, Level]] = []
    for m in (0, n // 2, *range(1, n // 2)):
        inside, block = _momentum_block(orb, hops, m)
        mirrored = 0 < m < n // 2
        for half, sigma in enumerate(charges):
            basis = _sector_basis(partners, gamma, inside, m, n, sigma)
            # each level of a mirrored sector fills two of the k places
            want = min((k + 1) // 2 if mirrored else k, basis[0].shape[1])
            tau = held[-1][0][0] if len(held) == k else None
            solved = _sector_lowest(block, basis, m, half, want, tau)
            if solved is None:
                continue
            e, v = solved
            resid = np.linalg.norm(block @ v - v * e, axis=0)
            if resid.max() > 1e-7:
                i = int(np.argmax(resid))
                raise NoConvergence(
                    f"momentum sector {m}: eigenpair {i} residual {resid[i]:.3g} exceeds 1e-7"
                )
            if sigma is None:
                charge = _gamma_charges(gamma, inside, m, n, v)
            else:
                charge = np.full(len(e), complex(sigma))
            for i, energy in enumerate(e):
                vec = v[:, i].copy()
                for mirror in (False, True) if mirrored else (False,):
                    level = Level(m, sigma, mirror, complex(charge[i]), vec)
                    held.append(((float(energy), m, half, mirror), level))
            held.sort(key=lambda t: t[0])
            del held[k:]
    return np.array([t[0][0] for t in held]), [t[1] for t in held]


@dataclass(frozen=True)
class SpectrumRow:
    n_sites: int
    j_coupling: float
    a_coupling: float
    energies: tuple[float, ...]
    gap: float
    gap2: float
    charge: complex
    error: str | None = None


def spectrum_row(spec: HamiltonianSpec, k: int = 6) -> SpectrumRow:
    H = build_hamiltonian(spec)
    vals, levels = lowest_eigs(H, k=k)
    return SpectrumRow(
        n_sites=spec.n_sites,
        j_coupling=spec.j_coupling,
        a_coupling=spec.a_coupling,
        energies=tuple(float(v) for v in vals),
        gap=float(vals[1] - vals[0]),
        gap2=float(vals[2] - vals[0]) if len(vals) > 2 else float("nan"),
        charge=levels[0].charge,
    )


def gap_scan(grid, k: int = 6) -> list[SpectrumRow]:
    """One row per spec, in grid order; a PipelineError in a row (a size cap,
    no convergence) is recorded as row data, anything else propagates."""
    rows = []
    for spec in grid:
        try:
            rows.append(spectrum_row(spec, k))
        except PipelineError as exc:  # per-row refusals are data
            rows.append(
                SpectrumRow(
                    n_sites=spec.n_sites,
                    j_coupling=spec.j_coupling,
                    a_coupling=spec.a_coupling,
                    energies=(),
                    gap=float("nan"),
                    gap2=float("nan"),
                    charge=complex("nan"),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


CSV_HEADER = "N,J,a,E0,E1,E2,gap,gap2,charge_re,charge_im"


def rows_to_csv(rows) -> str:
    def fmt(x: float) -> str:
        return f"{x:.12g}"

    lines = [CSV_HEADER]
    for r in rows:
        if r.error is not None:
            continue
        e = list(r.energies) + [float("nan")] * 3
        lines.append(
            ",".join(
                [
                    str(r.n_sites),
                    fmt(r.j_coupling),
                    fmt(r.a_coupling),
                    fmt(e[0]),
                    fmt(e[1]),
                    fmt(e[2]),
                    fmt(r.gap),
                    fmt(r.gap2),
                    fmt(r.charge.real),
                    fmt(r.charge.imag),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def default_grid() -> list[HamiltonianSpec]:
    grid = [HamiltonianSpec(n, terms=("h0", "h1")) for n in (8, 10, 12, 14)]
    grid += [HamiltonianSpec(n, terms=("h0",)) for n in (8, 10, 12)]
    grid.append(HamiltonianSpec(10, j_coupling=4.0, terms=("h0", "h1", "hj")))
    return grid


def witness_trends(grid, rows) -> dict[tuple, str]:
    """Classify each symmetric (terms, J, a) family across sizes: "gapless"
    when N*gap stays within a 15 percent band, "ssb" when the gap collapses
    below 1e-2 with the second gap above 0.1, otherwise "other"."""
    families: dict[tuple, list[SpectrumRow]] = {}
    for spec, row in zip(grid, rows):
        if row.error is not None or not spec.is_symmetric:
            continue
        key = (spec.terms, spec.j_coupling, spec.a_coupling)
        families.setdefault(key, []).append(row)
    out = {}
    for key, members in families.items():
        ngaps = [m.n_sites * m.gap for m in members]
        if all(m.gap < 1e-2 and m.gap2 > 0.1 for m in members):
            out[key] = "ssb"
        elif len(members) >= 2 and max(ngaps) <= min(ngaps) * 1.15:
            out[key] = "gapless"
        else:
            out[key] = "other"
    return out
