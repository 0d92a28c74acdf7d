"""Full-space matrices and vectors of the ring Hamiltonian and its symmetry,
built directly from the Pauli term table and the orbit tables, independent
of the in-sector charges that `chainomaly.spectra.lowest_eigs` reports.
Used only by the tests as an oracle."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from chainomaly.spectra import (
    Level,
    SparseOperator,
    _bit_reverse,
    _Orbits,
    _parity_sign,
    _rotate,
    _sector_phase,
)


def full_matrix(H: SparseOperator) -> sp.csr_matrix:
    """The sum of coef * X^x Z^z over H's terms as a sparse 2^N matrix."""
    dim = 2 ** H.n_sites
    s = np.arange(dim, dtype=np.int64)
    rows = np.concatenate([s ^ x for _, x, _ in H.terms])
    vals = np.concatenate([c * _parity_sign(s & z) for c, _, z in H.terms])
    cols = np.tile(s, len(H.terms))
    M = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    M.eliminate_zeros()
    return M


def gamma_phases(n: int) -> np.ndarray:
    """Diagonal of the entangling part on the ring: -1 per bond whose two
    bits are both one (site 0 is the most significant bit)."""
    s = np.arange(2 ** n, dtype=np.int64)
    return _parity_sign(s & _rotate(s, n)).astype(complex)


def gamma_unitary(n: int) -> sp.csr_matrix:
    """The ring symmetry as a sparse matrix (for commutator checks)."""
    dim = 2 ** n
    d = gamma_phases(n)
    rows = np.arange(dim)[::-1]
    return sp.csr_matrix((d, (rows, np.arange(dim))), shape=(dim, dim))


def symmetry_charge(state: np.ndarray, n: int, kind: str = "gamma") -> complex:
    """Expectation of the ring symmetry unitary in a full-space `state`.

    kind="gamma" is the flip-and-entangle unitary (bond phases times global
    spin flip); kind="flip" is the bare global spin flip."""
    assert state.shape == (2 ** n,), "state length does not match the site count"
    flipped = np.arange(2 ** n)[::-1]  # XOR with all-ones reverses the index
    d = gamma_phases(n) if kind == "gamma" else np.ones(2 ** n, dtype=complex)
    return complex(np.vdot(state, d * state[flipped]))


def lift(orb: _Orbits, inside: np.ndarray, m: int, vec: np.ndarray) -> np.ndarray:
    """A sector-m vector in the full basis: state T^l r gets the amplitude of
    r times e^{-iql} / sqrt(R_r)."""
    n = orb.n_sites
    local = np.cumsum(inside) - 1
    member = inside[orb.index]
    rep = orb.index[member]
    psi = np.zeros(len(orb.index), dtype=complex)
    psi[member] = (
        vec[local[rep]]
        * _sector_phase(m, n, orb.shift[member]).conj()
        / np.sqrt(orb.period[rep])
    )
    return psi


def lift_levels(n: int, levels: list[Level]) -> np.ndarray:
    """The levels of `lowest_eigs` as the columns of a (2^n, k) array; a
    mirrored level is the bit reversal of its sector-m vector."""
    orb = _Orbits.of(n)
    reverse = _bit_reverse(np.arange(2 ** n, dtype=np.int64), n)
    out = np.empty((2 ** n, len(levels)), dtype=complex)
    for col, level in enumerate(levels):
        psi = lift(orb, (level.m * orb.period) % n == 0, level.m, level.vec)
        out[:, col] = psi[reverse] if level.mirrored else psi
    return out
