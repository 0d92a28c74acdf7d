import numpy as np
import pytest
import scipy.sparse.linalg as spla

from chainomaly.errors import SizeCap, ValidationError
from chainomaly.spectra import (
    HamiltonianSpec,
    build_hamiltonian,
    default_grid,
    gamma_unitary,
    gap_scan,
    lowest_eigs,
    rows_to_csv,
    symmetry_charge,
    witness_trends,
)

from helpers_free_fermion import free_fermion_levels


def test_spec_validation():
    with pytest.raises(ValidationError):
        HamiltonianSpec(5)
    with pytest.raises(ValidationError):
        HamiltonianSpec(2)
    with pytest.raises(ValidationError):
        HamiltonianSpec(8, terms=("h0", "bogus"))
    assert HamiltonianSpec(8).is_symmetric
    assert not HamiltonianSpec(8, terms=("h0",)).is_symmetric
    assert HamiltonianSpec(8, terms=("hj",), j_coupling=1.0).is_symmetric


def test_size_cap():
    with pytest.raises(SizeCap):
        build_hamiltonian(HamiltonianSpec(24))


def test_paramagnet_exact():
    H = build_hamiltonian(HamiltonianSpec(4, terms=("h0",)))
    vals, _ = lowest_eigs(H, k=2)
    assert abs(vals[0] + 4.0) <= 1e-12
    assert abs(vals[1] - vals[0] - 2.0) <= 1e-12
    H6 = build_hamiltonian(HamiltonianSpec(6, terms=("h0",)))
    vals6, _ = lowest_eigs(H6, k=2)
    assert abs(vals6[0] + 6.0) <= 1e-12 and abs(vals6[1] + 4.0) <= 1e-12


def test_hermitian_flag():
    H = build_hamiltonian(HamiltonianSpec(6, j_coupling=0.3, a_coupling=0.2,
                                          terms=("h0", "h1", "hj", "ha")))
    assert abs(H.matrix - H.matrix.conj().T).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("j", [0.0, 1.5, 4.0])
def test_free_fermion_oracle_agrees_with_dense(n, j):
    terms = ("h0", "h1") if j == 0.0 else ("h0", "h1", "hj")
    H = build_hamiltonian(HamiltonianSpec(n, j_coupling=j, terms=terms))
    dense = np.linalg.eigvalsh(H.matrix.toarray())[:6]
    oracle = free_fermion_levels(n, j_coupling=j, nlow=6)
    assert np.max(np.abs(dense - np.array(oracle))) <= 1e-10


def test_symmetry_commutes_for_all_couplings():
    U = gamma_unitary(8)
    for j, a in [(0.0, 0.0), (2.0, 0.0), (0.0, 0.9), (1.7, -0.4)]:
        H = build_hamiltonian(
            HamiltonianSpec(8, j_coupling=j, a_coupling=a, terms=("h0", "h1", "hj", "ha"))
        )
        assert abs(H.matrix @ U - U @ H.matrix).max() <= 1e-9


def test_lanczos_matches_dense_at_n10():
    H = build_hamiltonian(HamiltonianSpec(10))
    dense = np.linalg.eigvalsh(H.matrix.toarray())[:4]
    v0 = np.ones(H.dim) / np.sqrt(H.dim)
    lanczos = np.sort(spla.eigsh(H.matrix, k=4, which="SA", v0=v0, maxiter=2000)[0])
    assert np.max(np.abs(dense - lanczos)) <= 1e-8


def test_eig_residuals():
    for spec in (HamiltonianSpec(8), HamiltonianSpec(12)):
        H = build_hamiltonian(spec)
        vals, vecs = lowest_eigs(H, k=4)
        for i in range(4):
            resid = np.linalg.norm(H.matrix @ vecs[:, i] - vals[i] * vecs[:, i])
            assert resid <= 1e-7


def test_k_capped():
    H = build_hamiltonian(HamiltonianSpec(6))
    with pytest.raises(ValidationError):
        lowest_eigs(H, k=9)


def test_strong_ising_degenerate_pair():
    # dense oracle at N = 8: near-degenerate ground pair, well-separated third
    H = build_hamiltonian(HamiltonianSpec(8, j_coupling=4.0, terms=("h0", "h1", "hj")))
    vals = np.linalg.eigvalsh(H.matrix.toarray())
    assert vals[1] - vals[0] < 1e-2
    assert vals[2] - vals[0] > 0.5


def test_symmetry_charge_bounds(rng):
    n = 6
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi /= np.linalg.norm(psi)
    assert abs(symmetry_charge(psi, n)) <= 1.0 + 1e-9


def test_symmetric_ground_state_unimodular_charge():
    H = build_hamiltonian(HamiltonianSpec(8))
    _, vecs = lowest_eigs(H, k=1)
    c = symmetry_charge(vecs[:, 0], 8)
    assert abs(abs(c) - 1.0) <= 1e-8


def test_charge_of_product_state():
    # all-plus state: flip charge is exactly 1; the entangling charge equals
    # the closed-ring bond sum 2^(1 - N/2), via the transfer matrix
    # [[1, 1], [1, -1]] with eigenvalues +-sqrt(2)
    for n in (6, 8):
        psi = np.ones(2 ** n) / np.sqrt(2 ** n)
        assert abs(symmetry_charge(psi, n, kind="flip") - 1.0) <= 1e-12
        got = symmetry_charge(psi, n, kind="gamma")
        assert abs(got - 2.0 ** (1 - n / 2)) <= 1e-12


def test_gamma_unitary_is_unitary():
    U = gamma_unitary(6).toarray()
    assert np.max(np.abs(U @ U.conj().T - np.eye(64))) <= 1e-12


def test_gap_scan_records_failures():
    rows = gap_scan([HamiltonianSpec(8, terms=("h0",)), HamiltonianSpec(24)])
    assert rows[0].error is None
    assert rows[1].error is not None and "SizeCap" in rows[1].error


def test_gap_scan_default_grid_trends():
    grid = default_grid()
    rows = gap_scan(grid, k=6)
    trends = witness_trends(grid, rows)
    assert trends[(("h0", "h1"), 0.0, 0.0)] == "gapless"
    assert trends[(("h0", "h1", "hj"), 4.0, 0.0)] == "ssb"
    # the non-symmetric control is excluded from the witness but stays gapped
    control = [r for s, r in zip(grid, rows) if s.terms == ("h0",)]
    assert all(abs(r.gap - 2.0) <= 1e-9 for r in control)
    symmetric = [r for s, r in zip(grid, rows) if s.terms == ("h0", "h1")]
    ngaps = [r.n_sites * r.gap for r in symmetric]
    assert max(ngaps) <= min(ngaps) * 1.15


def test_csv_format():
    rows = gap_scan([HamiltonianSpec(6, terms=("h0",))], k=3)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N,J,a,E0,E1,E2,gap,gap2,charge_re,charge_im"
    fields = lines[1].split(",")
    assert fields[0] == "6"
    assert float(fields[3]) == -6.0
    # deterministic across recomputation
    assert text == rows_to_csv(gap_scan([HamiltonianSpec(6, terms=("h0",))], k=3))


def test_chiral_deformation_gap_keeps_shrinking():
    # the interacting deformation stays symmetric and shows no gapped
    # symmetric trend at these sizes: the gap decreases with system size
    gaps = {}
    for n in (8, 12):
        spec = HamiltonianSpec(n, a_coupling=0.6, terms=("h0", "h1", "ha"))
        H = build_hamiltonian(spec)
        vals, vecs = lowest_eigs(H, k=2)
        gaps[n] = vals[1] - vals[0]
        assert abs(abs(symmetry_charge(vecs[:, 0], n)) - 1.0) <= 1e-6
    assert gaps[12] < gaps[8]
