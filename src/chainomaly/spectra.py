"""Finite-size spectral witness on periodic chains.

Builds the transverse-field, cluster, Ising, and chiral deformation terms as
sparse matrices, computes low-lying spectra (dense below 11 sites, Lanczos
via ARPACK above), and measures the symmetry charge of eigenstates under the
ring version of the flip-and-entangle symmetry. A gap scan over a grid of
sizes and couplings records the gapless or symmetry-broken trends that a
nonzero anomaly forces on symmetric Hamiltonians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoConvergence, SizeCap, ValidationError

_KNOWN_TERMS = ("h0", "h1", "hj", "ha")

_PAULI = {
    "I": sp.identity(2, format="csr", dtype=complex),
    "X": sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": sp.csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
}


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

    @property
    def is_symmetric(self) -> bool:
        # the flip-and-entangle symmetry exchanges the field and cluster terms
        return ("h0" in self.terms) == ("h1" in self.terms)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    dim: int
    matrix: sp.csr_matrix


def _string(n: int, placements: dict[int, str]) -> sp.csr_matrix:
    out = sp.identity(1, format="csr", dtype=complex)
    for j in range(n):
        out = sp.kron(out, _PAULI[placements.get(j % n, "I")], format="csr")
    return out


def build_hamiltonian(spec: HamiltonianSpec, size_cap: int = 22) -> SparseOperator:
    """Sum of the selected terms with periodic identification j + N = j."""
    n = spec.n_sites
    if n > size_cap:
        raise SizeCap(f"{n} sites exceeds the sparse cap {size_cap}")
    dim = 2 ** n
    H = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(n):
        jm, jp = (j - 1) % n, (j + 1) % n
        if "h0" in spec.terms:
            H = H - _string(n, {j: "X"})
        if "h1" in spec.terms:
            H = H - _string(n, {jm: "Z", j: "X", jp: "Z"})
        if "hj" in spec.terms:
            H = H - spec.j_coupling * _string(n, {j: "Z", jp: "Z"})
        if "ha" in spec.terms:
            H = H + spec.a_coupling * (
                _string(n, {j: "Y"}) - _string(n, {jm: "Z", j: "Y", jp: "Z"})
            )
    return SparseOperator(dim=dim, matrix=H.tocsr())


def lowest_eigs(H: SparseOperator, k: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenvalues and vectors, residual-checked to 1e-7."""
    if k < 1 or k > 8:
        raise ValidationError("k must be between 1 and 8")
    if H.dim <= 1024:
        dense = H.matrix.toarray()
        vals, vecs = np.linalg.eigh(dense)
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        v0 = np.ones(H.dim) / np.sqrt(H.dim)
        try:
            vals, vecs = spla.eigsh(
                H.matrix, k=k, which="SA", v0=v0, maxiter=2000
            )
        except spla.ArpackNoConvergence as exc:
            raise NoConvergence(f"eigensolver did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    for i in range(k):
        resid = np.linalg.norm(H.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
        if resid > 1e-7:
            raise NoConvergence(f"eigenpair {i} residual {resid:.3g} exceeds 1e-7")
    return np.real(vals), vecs


def _gamma_phases(n: int) -> np.ndarray:
    """Diagonal of the entangling part on the ring: -1 per bond whose two
    bits are both one (site 0 is the most significant bit)."""
    s = np.arange(2 ** n, dtype=np.int64)
    bits = [(s >> (n - 1 - j)) & 1 for j in range(n)]
    count = np.zeros_like(s)
    for j in range(n):
        count += bits[j] & bits[(j + 1) % n]
    return np.where(count % 2 == 0, 1.0, -1.0).astype(complex)


def symmetry_charge(state: np.ndarray, n: int, kind: str = "gamma") -> complex:
    """Expectation of the ring symmetry unitary in `state`.

    kind="gamma" is the flip-and-entangle unitary (bond phases times global
    spin flip); kind="flip" is the bare global spin flip."""
    dim = 2 ** n
    if state.shape != (dim,):
        raise ValidationError("state length does not match the site count")
    flipped = np.arange(dim)[::-1]  # XOR with all-ones reverses the index
    if kind == "gamma":
        d = _gamma_phases(n)
    elif kind == "flip":
        d = np.ones(dim, dtype=complex)
    else:
        raise ValidationError(f"unknown symmetry kind {kind!r}")
    return complex(np.vdot(state, d * state[flipped]))


def gamma_unitary(n: int) -> sp.csr_matrix:
    """The ring symmetry as a sparse matrix (for commutator checks)."""
    dim = 2 ** n
    d = _gamma_phases(n)
    rows = np.arange(dim)[::-1]
    return sp.csr_matrix((d, (rows, np.arange(dim))), shape=(dim, dim))


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
    vals, vecs = lowest_eigs(H, k=min(k, 8))
    charge = symmetry_charge(vecs[:, 0], spec.n_sites)
    return SpectrumRow(
        n_sites=spec.n_sites,
        j_coupling=spec.j_coupling,
        a_coupling=spec.a_coupling,
        energies=tuple(float(v) for v in vals),
        gap=float(vals[1] - vals[0]),
        gap2=float(vals[2] - vals[0]) if len(vals) > 2 else float("nan"),
        charge=charge,
    )


def gap_scan(grid, k: int = 6) -> list[SpectrumRow]:
    """One row per spec, in grid order; failures are recorded, not fatal."""
    rows = []
    for spec in grid:
        try:
            rows.append(spectrum_row(spec, k))
        except Exception as exc:  # per-row errors are data
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
