import importlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from chainomaly import spectra
from chainomaly.errors import InvariantViolation, SizeCap, ValidationError
from chainomaly.spectra import (
    HamiltonianSpec,
    build_hamiltonian,
    default_grid,
    gap_scan,
    lowest_eigs,
    rows_to_csv,
    witness_trends,
)

from helpers_free_fermion import free_fermion_levels
from helpers_ring import full_matrix, gamma_unitary, lift, lift_levels, symmetry_charge


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
    M = full_matrix(H)
    assert abs(M - M.conj().T).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("j", [0.0, 1.5, 4.0])
def test_free_fermion_oracle_agrees_with_dense(n, j):
    terms = ("h0", "h1") if j == 0.0 else ("h0", "h1", "hj")
    H = build_hamiltonian(HamiltonianSpec(n, j_coupling=j, terms=terms))
    dense = np.linalg.eigvalsh(full_matrix(H).toarray())[:6]
    oracle = free_fermion_levels(n, j_coupling=j, nlow=6)
    assert np.max(np.abs(dense - np.array(oracle))) <= 1e-10


def test_symmetry_commutes_for_all_couplings():
    U = gamma_unitary(8)
    for j, a in [(0.0, 0.0), (2.0, 0.0), (0.0, 0.9), (1.7, -0.4)]:
        H = build_hamiltonian(
            HamiltonianSpec(8, j_coupling=j, a_coupling=a, terms=("h0", "h1", "hj", "ha"))
        )
        M = full_matrix(H)
        assert abs(M @ U - U @ M).max() <= 1e-9


def test_lanczos_matches_dense_at_n10():
    M = full_matrix(build_hamiltonian(HamiltonianSpec(10)))
    dense = np.linalg.eigvalsh(M.toarray())[:4]
    v0 = np.ones(M.shape[0]) / np.sqrt(M.shape[0])
    lanczos = np.sort(spla.eigsh(M, k=4, which="SA", v0=v0, maxiter=2000)[0])
    assert np.max(np.abs(dense - lanczos)) <= 1e-8


def test_eig_residuals():
    for spec in (HamiltonianSpec(8), HamiltonianSpec(12)):
        H = build_hamiltonian(spec)
        vals, levels = lowest_eigs(H, k=4)
        vecs = lift_levels(spec.n_sites, levels)
        for i in range(4):
            resid = np.linalg.norm(full_matrix(H) @ vecs[:, i] - vals[i] * vecs[:, i])
            assert resid <= 1e-7


def test_k_capped():
    H = build_hamiltonian(HamiltonianSpec(6))
    with pytest.raises(ValidationError):
        lowest_eigs(H, k=9)


def test_strong_ising_degenerate_pair():
    # dense oracle at N = 8: near-degenerate ground pair, well-separated third
    H = build_hamiltonian(HamiltonianSpec(8, j_coupling=4.0, terms=("h0", "h1", "hj")))
    vals = np.linalg.eigvalsh(full_matrix(H).toarray())
    assert vals[1] - vals[0] < 1e-2
    assert vals[2] - vals[0] > 0.5


def test_symmetry_charge_bounds(rng):
    n = 6
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi /= np.linalg.norm(psi)
    assert abs(symmetry_charge(psi, n)) <= 1.0 + 1e-9


def test_symmetric_ground_state_unimodular_charge():
    H = build_hamiltonian(HamiltonianSpec(8))
    _, levels = lowest_eigs(H, k=1)
    c = symmetry_charge(lift_levels(8, levels)[:, 0], 8)
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


@pytest.mark.parametrize("spec", [HamiltonianSpec(6, terms=("h0",)), HamiltonianSpec(24)],
                         ids=["solved", "refused"])
def test_gap_scan_rows_hold_their_spec(spec):
    row = gap_scan([spec], k=3)[0]
    assert row.spec is spec
    if row.error is not None:
        # a refused row holds no level: its gaps and both parts of its charge are NaN
        assert row.energies == ()
        assert all(np.isnan(x) for x in (row.gap, row.gap2, row.charge.real, row.charge.imag))


def test_gap_scan_propagates_bugs(monkeypatch):
    # only a PipelineError becomes row data; a programming error or a broken
    # internal guarantee fails loudly
    for bug in (TypeError("bug in a row"), InvariantViolation("bug in a row")):

        def broken_row(spec, k, bug=bug):
            raise bug

        monkeypatch.setattr(spectra, "spectrum_row", broken_row)
        with pytest.raises(type(bug), match="bug in a row"):
            gap_scan([HamiltonianSpec(8, terms=("h0",))])


def test_gap_scan_default_grid_trends():
    grid = default_grid()
    rows = gap_scan(grid, k=6)
    trends = witness_trends(rows)
    assert trends[(("h0", "h1"), 0.0, 0.0)] == "gapless"
    assert trends[(("h0", "h1", "hj"), 4.0, 0.0)] == "ssb"
    # the non-symmetric control is excluded from the witness but stays gapped
    control = [r for r in rows if r.spec.terms == ("h0",)]
    assert all(abs(r.gap - 2.0) <= 1e-9 for r in control)
    symmetric = [r for r in rows if r.spec.terms == ("h0", "h1")]
    ngaps = [r.spec.n_sites * r.gap for r in symmetric]
    assert max(ngaps) <= min(ngaps) * 1.15


def test_coupling_without_its_term_joins_the_family():
    # J without hj (and a without ha) builds the same Hamiltonian as zero,
    # so it must not split the witness family
    assert HamiltonianSpec(10, j_coupling=4.0, a_coupling=0.3) == HamiltonianSpec(10)
    grid = [HamiltonianSpec(8), HamiltonianSpec(10, j_coupling=4.0), HamiltonianSpec(12)]
    trends = witness_trends(gap_scan(grid, k=3))
    assert trends == {(("h0", "h1"), 0.0, 0.0): "gapless"}


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
        vals, levels = lowest_eigs(H, k=2)
        gaps[n] = vals[1] - vals[0]
        assert abs(abs(symmetry_charge(lift_levels(n, levels)[:, 0], n)) - 1.0) <= 1e-6
    assert gaps[12] < gaps[8]


@pytest.mark.parametrize("n", [12, 14, 16])
def test_paramagnet_first_excited_level_is_n_fold(n):
    # the N one-flip states span the first excited level, one per momentum;
    # a translation- and flip-invariant Lanczos start once dropped copies
    vals, _ = lowest_eigs(build_hamiltonian(HamiltonianSpec(n, terms=("h0",))), k=6)
    assert np.max(np.abs(vals - np.array([-n] + [-n + 2] * 5))) <= 1e-9


@pytest.mark.parametrize("n", [12, 14, 16, 18, 20])
def test_free_fermion_oracle_agrees_with_sectors(n):
    vals, _ = lowest_eigs(build_hamiltonian(HamiltonianSpec(n)), k=6)
    assert np.max(np.abs(vals - np.array(free_fermion_levels(n, nlow=6)))) <= 1e-8


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_skipped_halves_lose_no_ising_level(n):
    # Lanczos halves whose probed lowest level lies above the running k-th
    # level are skipped; the free-fermion oracle shows none of them held one
    H = build_hamiltonian(HamiltonianSpec(n, j_coupling=4.0, terms=("h0", "h1", "hj")))
    vals, _ = lowest_eigs(H, k=6)
    oracle = free_fermion_levels(n, j_coupling=4.0, nlow=6)
    assert np.max(np.abs(vals - np.array(oracle))) <= 1e-8


def _count_eigsh(monkeypatch) -> list[int]:
    """The k of every eigsh call that lowest_eigs makes from now on."""
    calls, eigsh = [], spla.eigsh

    def counted(A, k=6, **kwargs):
        calls.append(k)
        return eigsh(A, k=k, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted)
    return calls


@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize(
    "spec",
    [
        {"terms": ("h0", "h1")},
        {"j_coupling": 4.0, "terms": ("h0", "h1", "hj")},
        {"j_coupling": 0.7, "a_coupling": 0.5, "terms": ("h0", "h1", "hj", "ha")},
    ],
    ids=["h01", "ising4", "chiral"],
)
def test_every_probed_half_keeps_the_dense_levels(monkeypatch, n, spec):
    # with no dense halves, every half after the first is probed before it
    # is solved or skipped; the kept levels are the lowest of the spectrum,
    # read from all N momentum blocks solved densely (full-space eigvalsh of
    # the complex 4096 x 4096 chiral matrix is too slow for the suite)
    monkeypatch.setattr(spectra, "_DENSE_MAX", 0)
    calls = _count_eigsh(monkeypatch)
    H = build_hamiltonian(HamiltonianSpec(n, **spec))
    vals, _ = lowest_eigs(H, k=6)
    assert calls.count(1) == 2 * (n // 2 + 1) - 1
    orb = spectra._Orbits.of(n)
    hops = spectra._hops(H, orb)
    blocks = [spectra._momentum_block(orb, hops, m)[1].toarray() for m in range(n)]
    dense = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))[:6]
    assert np.max(np.abs(vals - dense)) <= 1e-10


@pytest.mark.parametrize("n", [14, 16])
def test_halves_above_the_cut_are_not_solved(monkeypatch, n):
    # of the N + 2 halves only the four at m = 0 and N/2 and the one that
    # ties with the k-th level (m = N/2 - 1, Gamma = +1) get a full solve
    calls = _count_eigsh(monkeypatch)
    lowest_eigs(build_hamiltonian(HamiltonianSpec(n)), k=6)
    assert len(calls) == 2 * (n // 2 + 1) + 4
    assert sum(k > 1 for k in calls) == 5


@pytest.mark.parametrize("n", [6, 8])
@given(j=st.floats(-3, 3), a=st.floats(-3, 3))
def test_momentum_sectors_partition_the_spectrum(n, j, a):
    orb = spectra._Orbits.of(n)
    partners, gamma = spectra._partners(orb), spectra._gamma_partners(orb)
    for terms in (("h0",), ("h0", "h1"), ("h0", "h1", "hj", "ha")):
        H = build_hamiltonian(HamiltonianSpec(n, j_coupling=j, a_coupling=a, terms=terms))
        full = np.linalg.eigvalsh(full_matrix(H).toarray())
        hops = spectra._hops(H, orb)
        # h0 alone does not commute with Gamma, so only its whole sectors hold
        sigmas = (None,) if terms == ("h0",) else (None, 1, -1)
        levels, halves = {}, {sigma: [] for sigma in sigmas}
        for m in range(n):
            inside, block = spectra._momentum_block(orb, hops, m)
            levels[m] = np.linalg.eigvalsh(block.toarray())
            for sigma in sigmas:
                # the Gamma = sigma half (the whole sector for None), real in
                # its A-fixed basis
                basis = spectra._sector_basis(partners, gamma, inside, m, n, sigma)
                U, lead, left = basis
                real = (U.conj().T @ block @ U).toarray()
                assert np.max(np.abs(real.imag)) <= 1e-12
                # the same block, read at the lead rows only, where the
                # weighted rows invert U's
                eye = np.eye(U.shape[1])
                assert np.max(np.abs((left.conj().T @ U[lead]).toarray() - eye), initial=0.0) <= 1e-12
                lean = spectra._real_block(block, basis, m).toarray()
                assert np.max(np.abs(lean - real.real), initial=0.0) <= 1e-12
                if sigma is None:
                    # every state is its own Gamma column, of weight 1
                    assert np.array_equal(lead, np.arange(block.shape[0]))
                    assert np.array_equal(left.toarray(), U.toarray())
                halves[sigma].append(np.linalg.eigvalsh(real.real))
        union = np.sort(np.concatenate(list(levels.values())))
        assert np.max(np.abs(union - full)) <= 1e-10
        assert np.max(np.abs(np.sort(np.concatenate(halves[None])) - full)) <= 1e-10
        if terms != ("h0",):
            split = np.sort(np.concatenate(halves[1] + halves[-1]))
            assert np.max(np.abs(split - full)) <= 1e-10
        for m in range(1, n):
            # reflection maps momentum q to -q and commutes with every term
            assert np.max(np.abs(levels[m] - levels[n - m])) <= 1e-10


@pytest.mark.parametrize("n", [8, 12, 14])
def test_real_sectors_have_real_blocks(n):
    # q = 0 and q = pi weigh every hop by exactly +-1, so without Y terms
    # their momentum blocks are already real, before the A-fixed basis; the
    # blocks agree with the e^{iql} weights to rounding
    H = build_hamiltonian(HamiltonianSpec(n, j_coupling=4.0, terms=("h0", "h1", "hj")))
    orb = spectra._Orbits.of(n)
    cols, rows, shifts, vals = hops = spectra._hops(H, orb)
    for m in (0, n // 2):
        inside, block = spectra._momentum_block(orb, hops, m)
        assert not block.data.imag.any()
        local = np.cumsum(inside) - 1
        keep = inside[cols] & inside[rows]
        want = np.zeros(block.shape, dtype=complex)
        np.add.at(
            want,
            (local[rows[keep]], local[cols[keep]]),
            vals[keep] * np.exp(2j * np.pi * m / n * shifts[keep]),
        )
        assert np.max(np.abs(block.toarray() - want)) <= 1e-12


@pytest.mark.parametrize("n", range(4, 13))
def test_orbit_tables_match_a_brute_force(n):
    # each state's rotations T^-r s, r = 0..n-1, listed one by one
    orb = spectra._Orbits.of(n)
    mask = (1 << n) - 1
    minima = set()
    for s in range(1 << n):
        rotations = [((s << r) | (s >> (n - r))) & mask for r in range(n)]
        rep = int(orb.reps[orb.index[s]])
        assert rep == min(rotations)
        assert rotations[orb.shift[s]] == rep  # s = T^shift[s] rep
        assert orb.period[orb.index[s]] == len(set(rotations))
        minima.add(rep)
    assert orb.reps.tolist() == sorted(minima)


def test_orbit_and_hop_tables_are_narrow():
    orb = spectra._Orbits.of(8)
    assert orb.index.dtype == np.int32
    assert orb.shift.dtype == np.int8
    cols, rows, _, _ = spectra._hops(build_hamiltonian(HamiltonianSpec(8)), orb)
    assert cols.dtype == rows.dtype == np.int32
    # built in place, the traced peak at N = 16 is 1.0 MB; int64 tables with
    # a new array per rotation took 3.8 MB
    tracemalloc.start()
    try:
        spectra._Orbits.of(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_levels_own_their_vectors():
    # a held level keeps its own column, not its sector's block of vectors;
    # dense halves at N = 8, Lanczos halves at N = 14, whole sectors for h0
    for spec in (HamiltonianSpec(8), HamiltonianSpec(14), HamiltonianSpec(8, terms=("h0",))):
        _, levels = lowest_eigs(build_hamiltonian(spec), k=8)
        assert any(level.mirrored for level in levels)
        assert all(level.vec.base is None for level in levels)


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("terms", [("h0",), ("h0", "h1", "hj", "ha")])
def test_lifted_eigenvectors_are_orthonormal_eigenvectors(n, terms):
    spec = HamiltonianSpec(n, j_coupling=0.7, a_coupling=0.3, terms=terms)
    H = build_hamiltonian(spec)
    vals, levels = lowest_eigs(H, k=8)
    vecs = lift_levels(n, levels)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) <= 1e-10
    resid = np.linalg.norm(full_matrix(H) @ vecs - vecs * vals, axis=0)
    assert resid.max() <= 1e-10
    if terms == ("h0",):
        # N-fold first excited level: pairs from sectors m and N - m
        assert np.sum(np.abs(vals - (-n + 2)) <= 1e-9) == 7


def _pf(n: int) -> np.ndarray:
    """PF as a permutation of states: bit reversal, then the global flip."""
    s = np.arange(1 << n, dtype=np.int64)
    return spectra._bit_reverse(s, n) ^ ((1 << n) - 1)


@pytest.mark.parametrize("n", [6, 8])
def test_every_term_commutes_with_reflection_flip_conjugation(n, rng):
    # A = PFK: P F conj(H) F P == H, term by term with random couplings
    pf = _pf(n)
    for terms in (("h0",), ("h1",), ("hj",), ("ha",), ("h0", "h1", "hj", "ha")):
        spec = HamiltonianSpec(
            n, j_coupling=rng.normal(), a_coupling=rng.normal(), terms=terms
        )
        M = full_matrix(build_hamiltonian(spec)).toarray()
        assert np.max(np.abs(M[np.ix_(pf, pf)].conj() - M)) <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_real_basis_is_unitary_and_fixed_by_the_antiunitary(n):
    orb = spectra._Orbits.of(n)
    partners, gamma = spectra._partners(orb), spectra._gamma_partners(orb)
    pf = _pf(n)
    G = gamma_unitary(n)
    for m in range(n):
        inside = (m * orb.period) % n == 0
        d = int(np.count_nonzero(inside))
        halves = []
        for sigma, most in ((None, 2), (1, 4), (-1, 4)):
            U = spectra._sector_basis(partners, gamma, inside, m, n, sigma)[0].toarray()
            assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))) <= 1e-12
            assert np.max(np.sum(U != 0, axis=0)) <= most
            for col in U.T:
                # each column lifted to the full space is fixed by A = PFK and
                # has Gamma charge sigma
                psi = lift(orb, inside, m, col)
                assert np.max(np.abs(psi[pf].conj() - psi)) <= 1e-12
                if sigma is not None:
                    assert np.max(np.abs(G @ psi - sigma * psi)) <= 1e-12
            if sigma is not None:
                halves.append(U)
        # the two halves together span the sector
        both = np.hstack(halves)
        assert both.shape == (d, d)
        assert np.max(np.abs(both.conj().T @ both - np.eye(d))) <= 1e-12


def test_gamma_split_follows_the_commutator(rng):
    # the split is decided from the term table; the oracle is the full-space
    # commutator with the ring symmetry
    n = 6
    G = gamma_unitary(n)
    for terms in (("h0",), ("h1",), ("hj",), ("ha",), ("h0", "h1"), ("h0", "hj"),
                  ("h1", "hj", "ha"), ("h0", "h1", "hj", "ha")):
        spec = HamiltonianSpec(n, j_coupling=rng.normal(), a_coupling=rng.normal(), terms=terms)
        H = build_hamiltonian(spec)
        M = full_matrix(H)
        commutes = abs(M @ G - G @ M).max() <= 1e-9
        assert spectra._commutes_with_gamma(H) == commutes == spec.is_symmetric


@pytest.mark.parametrize("terms", [("h0",), ("h0", "h1")])
def test_only_gamma_symmetric_hamiltonians_are_split(monkeypatch, terms):
    seen = []
    real = spectra._sector_basis

    def spy(partners, gamma, inside, m, n, sigma):
        seen.append(sigma)
        return real(partners, gamma, inside, m, n, sigma)

    monkeypatch.setattr(spectra, "_sector_basis", spy)
    lowest_eigs(build_hamiltonian(HamiltonianSpec(8, terms=terms)), k=4)
    if terms == ("h0",):
        assert seen == [None] * 5  # the whole sector, m = 0..4
    else:
        assert seen == [1, -1] * 5


@pytest.mark.parametrize(
    "spec",
    [
        HamiltonianSpec(8),
        HamiltonianSpec(10, j_coupling=4.0, terms=("h0", "h1", "hj")),
        HamiltonianSpec(8, j_coupling=0.7, a_coupling=0.5, terms=("h0", "h1", "hj", "ha")),
    ],
    ids=["h01", "ising4", "chiral"],
)
def test_every_half_level_has_its_charge(spec):
    n = spec.n_sites
    H = build_hamiltonian(spec)
    orb = spectra._Orbits.of(n)
    hops = spectra._hops(H, orb)
    partners, gamma = spectra._partners(orb), spectra._gamma_partners(orb)
    for m in range(n // 2 + 1):
        inside, block = spectra._momentum_block(orb, hops, m)
        for half, sigma in enumerate((1, -1)):
            basis = spectra._sector_basis(partners, gamma, inside, m, n, sigma)
            want = min(4, basis[0].shape[1])
            _, v = spectra._sector_lowest(block, basis, m, half, want, None)
            for col in v.T:
                psi = lift(orb, inside, m, col)
                assert abs(symmetry_charge(psi, n) - sigma) <= 1e-12
    # and so has every returned level, mirrored ones included, exactly
    _, levels = lowest_eigs(H, k=8)
    for level, psi in zip(levels, lift_levels(n, levels).T):
        assert level.charge == level.sigma
        assert abs(symmetry_charge(psi, n) - level.sigma) <= 1e-12


@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
@pytest.mark.parametrize("terms", [("h0",), ("h0", "hj"), ("h1", "hj")])
def test_in_sector_charge_matches_the_full_space_oracle(n, terms):
    # whole sectors (H does not commute with Gamma): the charge read in
    # momentum coordinates equals <psi|Gamma|psi> of the lifted vector, for
    # mirrored copies too; dense halves up to N = 12, Lanczos at N = 14
    H = build_hamiltonian(HamiltonianSpec(n, j_coupling=0.7, terms=terms))
    _, levels = lowest_eigs(H, k=8)
    assert all(level.sigma is None for level in levels)
    assert any(level.mirrored for level in levels)
    for level, psi in zip(levels, lift_levels(n, levels).T):
        assert abs(level.charge - symmetry_charge(psi, n)) <= 1e-12


def test_halves_smaller_than_the_request_at_n4():
    # at N = 4 the halves hold 1 to 3 states, fewer than the 8 levels asked
    # for; the lowest 8 still match the dense oracle
    H = build_hamiltonian(HamiltonianSpec(4, j_coupling=0.3, terms=("h0", "h1", "hj")))
    vals, levels = lowest_eigs(H, k=8)
    vecs = lift_levels(4, levels)
    dense = np.linalg.eigvalsh(full_matrix(H).toarray())[:8]
    assert np.max(np.abs(vals - dense)) <= 1e-12
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) <= 1e-12


def test_ising_ground_state_charge_is_sharp_at_n14():
    # the symmetry-broken pair is split by about 1e-8 here; each level comes
    # from one Gamma half, so the ground state's charge is exact
    row = spectra.spectrum_row(HamiltonianSpec(14, j_coupling=4.0, terms=("h0", "h1", "hj")))
    assert min(abs(row.charge - 1), abs(row.charge + 1)) <= 1e-12
    assert row.gap < 1e-2


def test_imaginary_part_in_the_real_basis_is_an_invariant_violation(monkeypatch):
    # a diagonal that differs between r and its partner r' breaks A in sector 1
    real_block = spectra._momentum_block

    def broken(orb, hops, m):
        inside, block = real_block(orb, hops, m)
        if m == 1:
            d = block.shape[0]
            block = block + sp.diags(np.linspace(0.0, 1.0, d))
        return inside, block

    monkeypatch.setattr(spectra, "_momentum_block", broken)
    H = build_hamiltonian(HamiltonianSpec(8, a_coupling=0.4, terms=("h0", "h1", "ha")))
    with pytest.raises(InvariantViolation, match="momentum sector 1: .* imaginary part"):
        lowest_eigs(H, k=4)


def test_complex_arnoldi_never_runs(monkeypatch):
    # every sector is solved by real eigh or real eigsh; complex eigsh would
    # call eigs (ARPACK znaupd) from scipy's arpack module
    def refuse(*args, **kwargs):
        raise AssertionError("complex Arnoldi reached")

    monkeypatch.setattr(spla, "eigs", refuse)
    monkeypatch.setattr(
        importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack"), "eigs", refuse
    )
    spec = HamiltonianSpec(14, j_coupling=0.8, a_coupling=0.5, terms=("h0", "h1", "hj", "ha"))
    H = build_hamiltonian(spec)
    vals, levels = lowest_eigs(H, k=6)
    vecs = lift_levels(14, levels)
    resid = np.linalg.norm(full_matrix(H) @ vecs - vecs * vals, axis=0)
    assert resid.max() <= 1e-7


@pytest.mark.parametrize("n", [12, 14])
def test_chiral_term_on_lanczos_matches_full_space_oracle(n, rng):
    spec = HamiltonianSpec(
        n, j_coupling=rng.normal(), a_coupling=rng.normal(), terms=("h0", "h1", "hj", "ha")
    )
    H = build_hamiltonian(spec)
    assert spectra._commutes_with_gamma(H)
    # the sizes of the half blocks the solver receives: every one takes the
    # dense path at N = 12 and the Lanczos path at N = 14
    orb = spectra._Orbits.of(n)
    partners, gamma = spectra._partners(orb), spectra._gamma_partners(orb)
    sizes = [
        spectra._sector_basis(partners, gamma, (m * orb.period) % n == 0, m, n, sigma)[0].shape[1]
        for m in range(n // 2 + 1)
        for sigma in (1, -1)
    ]
    if n == 12:
        assert max(sizes) <= spectra._DENSE_MAX
    else:
        assert min(sizes) > spectra._DENSE_MAX
    M = full_matrix(H)
    v0 = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)  # no symmetry
    oracle = np.sort(spla.eigsh(M, k=8, which="SA", v0=v0, maxiter=5000)[0])
    vals, levels = lowest_eigs(H, k=8)
    vecs = lift_levels(n, levels)
    assert np.max(np.abs(vals - oracle)) <= 1e-8
    assert np.linalg.norm(M @ vecs - vecs * vals, axis=0).max() <= 1e-7
