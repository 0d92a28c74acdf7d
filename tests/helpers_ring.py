"""Full-space matrices of the ring Hamiltonian and its symmetry, built
directly from the Pauli term table, independent of the momentum sectors.
Used only by the tests as an oracle."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from chainomaly.spectra import SparseOperator, _gamma_phases, _parity_sign


def full_matrix(H: SparseOperator) -> sp.csr_matrix:
    """The sum of coef * X^x Z^z over H's terms as a sparse 2^N matrix."""
    s = np.arange(H.dim, dtype=np.int64)
    rows = np.concatenate([s ^ x for _, x, _ in H.terms])
    vals = np.concatenate([c * _parity_sign(s & z) for c, _, z in H.terms])
    cols = np.tile(s, len(H.terms))
    M = sp.csr_matrix((vals, (rows, cols)), shape=(H.dim, H.dim))
    M.eliminate_zeros()
    return M


def gamma_unitary(n: int) -> sp.csr_matrix:
    """The ring symmetry as a sparse matrix (for commutator checks)."""
    dim = 2 ** n
    d = _gamma_phases(n)
    rows = np.arange(dim)[::-1]
    return sp.csr_matrix((d, (rows, np.arange(dim))), shape=(dim, dim))
