"""Spectra: zero modes, gaps, kernels, scans and fits."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from qcadc import spectra
from qcadc.config import TOL
from qcadc.models import (
    DephasingParams, FuksParams, dephasing_lindblad, fuks_lindblad,
    ml_lindblad, published_ml_weights, steady_family_state,
)
from qcadc.spectra import (
    FitReport, SpectrumError, gap_scan, loglog_fit, spectrum,
    steady_state_basis,
)
from qcadc.superop import (
    P1, SIGMA_MINUS, SIGMA_PLUS, LindbladSpec, LocalOperator,
    assemble_lindbladian, conserved_grading, translation_sectors, vectorize,
)
from conftest import basis_density, ghz_density


def decay_spec(gamma=1.0):
    return LindbladSpec(1, (), ((LocalOperator((0,), SIGMA_MINUS), gamma),))


def test_single_site_decay_spectrum():
    rep = spectrum(decay_spec())
    got = np.sort_complex(rep.eigenvalues)
    want = np.sort_complex(np.array([0, -0.5, -0.5, -1.0], dtype=complex))
    assert np.abs(got - want).max() < 1e-12
    assert rep.null_dim == 1
    assert abs(rep.gap - 0.5) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fuks_kernel_dimension_is_four(n):
    rep = spectrum(fuks_lindblad(FuksParams(0.3), n))
    assert rep.null_dim == 4
    assert rep.max_re_nonzero < 1e-10 * rep.norm


def test_dephasing_kernel_dimension_counts_sectors():
    for n in (3, 4, 5):
        rep = spectrum(dephasing_lindblad(DephasingParams(), n))
        assert rep.null_dim == n + 1


def test_fuks_gap_values_closed_form():
    # frozen dense-eig oracle; the values match 2 (1 - cos(pi / N))
    for n in (3, 4, 5):
        rep = spectrum(fuks_lindblad(FuksParams(0.3), n))
        assert abs(rep.gap - 2 * (1 - np.cos(np.pi / n))) < 1e-9


def test_dephasing_gap_values_frozen():
    # frozen dense-eig oracle values (cross-checked by the arnoldi mode)
    want = {3: 1.0, 4: 1.0, 5: 1 - np.cos(2 * np.pi / 5)}
    for n, g in want.items():
        rep = spectrum(dephasing_lindblad(DephasingParams(), n))
        assert abs(rep.gap - g) < 1e-9, n


def test_kernel_contains_extreme_states_and_ghz():
    basis = steady_state_basis(fuks_lindblad(FuksParams(0.3), 3))
    assert len(basis) == 4
    span = np.column_stack([b.amplitudes for b in basis])
    proj = span @ span.conj().T
    for rho in (basis_density([0] * 3), basis_density([1] * 3),
                ghz_density(3), steady_family_state(0.4, 0.2, 3)):
        v = vectorize(rho).amplitudes
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(proj @ v - v) < 1e-9


def test_kernel_extreme_coherences_in_span():
    basis = steady_state_basis(fuks_lindblad(FuksParams(0.3), 3))
    span = np.column_stack([b.amplitudes for b in basis])
    proj = span @ span.conj().T
    coh = np.zeros((8, 8), dtype=complex)
    coh[0, 7] = 1.0           # |000><111|
    v = vectorize(coh).amplitudes
    v = v / np.linalg.norm(v)
    assert np.linalg.norm(proj @ v - v) < 1e-9


def test_dephasing_kernel_contains_sector_mixtures():
    basis = steady_state_basis(dephasing_lindblad(DephasingParams(), 3))
    span = np.column_stack([b.amplitudes for b in basis])
    proj = span @ span.conj().T
    for members in ([1, 2, 4], [3, 5, 6]):
        rho = np.zeros((8, 8), dtype=complex)
        for s in members:
            rho[s, s] = 1 / 3
        v = vectorize(rho).amplitudes
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(proj @ v - v) < 1e-9


def test_alpha_beta_family_reconstructs_physical_states():
    # kernel combinations with |beta| <= sqrt(a (1-a)) are genuine states
    for alpha, beta in ((0.3, 0.2), (0.5, 0.5), (0.9, 0.25)):
        rho = steady_family_state(alpha, beta, 4)
        assert abs(np.trace(rho) - 1) < 1e-14
        assert np.abs(rho - rho.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(rho).min() > -1e-12
    # beyond the bound the combination stops being a state
    rho = steady_family_state(0.1, 0.9, 3)
    assert np.linalg.eigvalsh(rho).min() < -1e-3


def test_arnoldi_agrees_with_dense():
    for make, n in ((lambda: fuks_lindblad(FuksParams(0.3), 3), 3),
                    (lambda: dephasing_lindblad(DephasingParams(), 3), 3)):
        dense = spectrum(make())
        sparse_rep = spectrum(make(), mode="arnoldi", k=dense.null_dim + 6)
        assert sparse_rep.null_dim == dense.null_dim
        assert abs(sparse_rep.gap - dense.gap) < 1e-8


def test_spectrum_rejects_step_kind():
    from qcadc.models import fuks_step
    with pytest.raises(ValueError, match="generator"):
        spectrum(fuks_step(FuksParams(0.3), 3))


def test_gap_scan_decreasing_and_continues_after_failure():
    fam = lambda n: fuks_lindblad(FuksParams(0.3), n)
    rows = gap_scan(fam, [3, 4, 5])
    gaps = [r[1].gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0

    def bad_family(n):
        if n == 4:
            raise RuntimeError("boom")
        return fam(n)

    rows = gap_scan(bad_family, [3, 4, 5])
    assert rows[1][1] is None and "boom" in rows[1][2]
    assert rows[0][1] is not None and rows[2][1] is not None


def test_loglog_fit_exact_power_law():
    pts = [(n, 2.5 * n ** -2.0) for n in (3, 4, 5, 6, 7)]
    fit = loglog_fit(pts)
    assert abs(fit.c + 2.0) < 1e-12
    assert abs(fit.d - np.log(2.5)) < 1e-12
    assert fit.stderr_c < 1e-12


def test_loglog_fit_exclusions_and_validation():
    pts = [(4, 1.0), (5, 0.69), (6, 0.5), (7, 0.38)]
    assert loglog_fit(pts).n_points == 4
    assert loglog_fit(pts, exclude=(4,)).n_points == 3
    with pytest.raises(ValueError, match="at least 3"):
        loglog_fit(pts, exclude=(4, 5))
    with pytest.raises(ValueError, match="at least 3"):
        loglog_fit(pts[:2])
    with pytest.raises(ValueError, match="positive"):
        loglog_fit([(3, 1.0), (4, -0.1), (5, 0.2)])


def test_desk_scale_fuks_slope_in_band():
    fam = lambda n: fuks_lindblad(FuksParams(0.3), n)
    rows = gap_scan(fam, [3, 4, 5, 6])
    fit = loglog_fit([(n, r.gap) for n, r, _ in rows])
    assert -2.3 <= fit.c <= -1.6


# ---------------------------------------------------------------------------
# ring-momentum sectors


def _same_multiset(got, want, tol=1e-8):
    """True when a one-to-one pairing of ``got`` with ``want`` moves no
    eigenvalue by more than ``tol`` (a perfect matching in the graph of
    pairs closer than tol)."""
    if len(got) != len(want):
        return False
    points = lambda z: np.column_stack([z.real, z.imag])
    near = cKDTree(points(got)).sparse_distance_matrix(
        cKDTree(points(want)), tol, output_type="coo_matrix")
    graph = sp.csr_matrix((np.ones(len(near.row)), (near.row, near.col)),
                          shape=(len(got), len(want)))
    return bool((maximum_bipartite_matching(graph, perm_type="column")
                 >= 0).all())


def _identity_sector(matrix, n_sites):
    dim = matrix.shape[0]
    return 1, iter([(sp.identity(dim, dtype=complex, format="csr"),
                     np.arange(dim))])


def _graded_blocks_eigvals(spec):
    """The unsplit reference: complex eigvals of every graded block of the
    whole generator, blocks in ascending label order."""
    gen = assemble_lindbladian(spec)
    _, grading = conserved_grading(gen.matrix, spec.n_sites)
    return np.concatenate([
        np.linalg.eigvals(gen.matrix[np.ix_(block, block)].toarray())
        for block in (np.flatnonzero(grading == g)
                      for g in np.unique(grading))])


def right_hopping_lindblad(n):
    """Particles hop one site to the right only, faster behind an occupied
    site: a real, translation invariant generator with neither the
    reflection nor the reflection-and-particle-hole symmetry that would
    make each momentum sector's spectrum closed under conjugation."""
    hop = np.kron(SIGMA_MINUS, SIGMA_PLUS)       # site j's particle to j + 1
    return LindbladSpec(n, (), tuple(
        [(LocalOperator((j, (j + 1) % n), hop), 1.0) for j in range(n)]
        + [(LocalOperator(((j - 1) % n, j, (j + 1) % n),
                          np.kron(P1, hop)), 0.5) for j in range(n)]))


SECTOR_FAMILIES = {
    "fuks": lambda n: fuks_lindblad(FuksParams(0.3), n),
    "dephasing": lambda n: dephasing_lindblad(DephasingParams(0.0), n),
    "dephasing-omega": lambda n: dephasing_lindblad(DephasingParams(1.0), n),
    "ml": lambda n: ml_lindblad(published_ml_weights(), n),
    "right-hopping": right_hopping_lindblad,
}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("family", sorted(SECTOR_FAMILIES))
def test_sector_split_matches_identity_sector(family, n, monkeypatch):
    spec = SECTOR_FAMILIES[family](n)
    assert translation_sectors(assemble_lindbladian(spec).matrix, n)[0] == n
    split = spectrum(spec)
    monkeypatch.setattr(spectra, "translation_sectors", _identity_sector)
    unsplit = spectrum(spec)
    assert split.null_dim == unsplit.null_dim
    assert split.method == unsplit.method
    assert _same_multiset(split.eigenvalues, unsplit.eigenvalues)
    assert abs(split.gap - unsplit.gap) < 1e-12


def _site_dependent(spec, scale):
    """The spec with jump i's rate scaled by scale(i): no ring symmetry."""
    return LindbladSpec(spec.n_sites, spec.hamiltonian_terms,
                        tuple((op, rate * scale(i))
                              for i, (op, rate) in enumerate(spec.jumps)))


@pytest.mark.parametrize("spec", [
    _site_dependent(fuks_lindblad(FuksParams(0.3), 4),
                    lambda i: 1 + 0.25 * (i // 6)),
    _site_dependent(dephasing_lindblad(DephasingParams(1.0), 5),
                    lambda i: 1 + 0.5 * (i // 4 == 2)),
], ids=["fuks-rates", "dephasing-omega-rates"])
def test_non_invariant_spec_takes_identity_sector_bit_for_bit(spec):
    gen = assemble_lindbladian(spec)
    count, sectors = translation_sectors(gen.matrix, spec.n_sites)
    assert count == 1
    [(basis, reps)] = sectors
    assert np.array_equal(reps, np.arange(4 ** spec.n_sites))
    assert (basis != sp.identity(len(reps), format="csr")).nnz == 0
    assert np.array_equal(spectrum(spec).eigenvalues,
                          _graded_blocks_eigvals(spec))


@pytest.mark.parametrize("family, n", [("fuks", 5), ("fuks", 6),
                                       ("dephasing", 6), ("ml", 5),
                                       ("right-hopping", 5),
                                       ("right-hopping", 6)])
def test_conjugate_paired_sectors_equal_full_momentum_loop(family, n):
    spec = SECTOR_FAMILIES[family](n)
    gen = assemble_lindbladian(spec)
    _, grading = conserved_grading(gen.matrix, n)
    full = []
    for basis, reps in translation_sectors(gen.matrix, n)[1]:
        h = (basis.conj().T @ gen.matrix @ basis).toarray()
        for g in np.unique(grading[reps]):
            block = np.flatnonzero(grading[reps] == g)
            full.append(np.linalg.eigvals(h[np.ix_(block, block)]))
    rep = spectrum(spec)
    assert _same_multiset(rep.eigenvalues, np.concatenate(full))


def test_sector_kernel_vectors_span_the_unsplit_kernel(monkeypatch):
    spec = fuks_lindblad(FuksParams(0.3), 4)
    split = steady_state_basis(spec)
    monkeypatch.setattr(spectra, "translation_sectors", _identity_sector)
    unsplit = steady_state_basis(spec)
    a = np.column_stack([v.amplitudes for v in split])
    b = np.column_stack([v.amplitudes for v in unsplit])
    assert a.shape == b.shape == (256, 4)
    assert np.linalg.norm(a @ (a.conj().T @ b) - b) < 1e-9


def test_n7_gaps_match_closed_forms():
    fuks = spectrum(fuks_lindblad(FuksParams(0.3), 7))
    deph = spectrum(dephasing_lindblad(DephasingParams(0.0), 7))
    assert abs(fuks.gap - 2 * (1 - np.cos(np.pi / 7))) < 1e-12
    assert abs(deph.gap - (1 - np.cos(2 * np.pi / 7))) < 1e-12
    assert (fuks.null_dim, deph.null_dim) == (4, 8)
    assert (fuks.method, deph.method) == ("dense/difference", "dense/joint")


def _full_sector_loop(spec):
    """``spectrum``'s dense loop as it was before sectors were drawn
    lazily and blocks cut in one pass: the full sector list, each basis's
    columns permuted into label order, one sparse slice and one eigvals
    per graded block; then the same report fields."""
    gen = assemble_lindbladian(spec)
    n = spec.n_sites
    norm = float(np.abs(gen.matrix).sum(axis=0).max())
    _, grading = conserved_grading(gen.matrix, n)
    sectors = list(translation_sectors(gen.matrix, n)[1])
    real = len(sectors) > 1 and not gen.matrix.data.imag.any()
    stop = len(sectors) // 2 + 1 if real else len(sectors)
    eigenvalues, twins = [], []
    for q, (basis, reps) in enumerate(sectors[:stop]):
        paired = real and 0 < 2 * q < len(sectors)
        sizes = np.unique(grading[reps], return_counts=True)[1]
        ends = np.cumsum(sizes)
        basis = basis[:, np.argsort(grading[reps], kind="stable")]
        h = (basis.conj().T @ gen.matrix @ basis).tocsr()
        for block in map(slice, ends - sizes, ends):
            sub = h[block, block].toarray()
            if real and not paired:
                sub = sub.real
            w = np.linalg.eigvals(sub)
            eigenvalues.append(w)
            if paired:
                twins.append(w.conj())
    ev = np.concatenate(eigenvalues + twins).astype(complex)
    zero = TOL.null * norm
    nonzero = ev[np.abs(ev) >= zero]
    border = np.abs(ev[(np.abs(ev) >= 0.1 * zero) & (np.abs(ev) <= 10 * zero)])
    warnings = (f"{len(border)} eigenvalue(s) within a decade of the zero "
                f"threshold {zero:.3e}; smallest {border.min():.3e}",
                ) if len(border) else ()
    return (ev, float(np.abs(nonzero).min()), len(ev) - len(nonzero),
            float(nonzero.real.max()), warnings)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("family", ["fuks", "dephasing", "dephasing-omega",
                                    "ml"])
def test_spectrum_equals_the_full_sector_loop(family, n):
    spec = SECTOR_FAMILIES[family](n)
    rep = spectrum(spec)
    ev, gap, null_dim, max_re, warnings = _full_sector_loop(spec)
    assert np.array_equal(rep.eigenvalues, ev)
    assert rep.gap == gap
    assert rep.null_dim == null_dim
    assert rep.max_re_nonzero == max_re
    assert rep.warnings == warnings


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("family", sorted(SECTOR_FAMILIES))
def test_spectrum_draws_only_the_sectors_it_reads(family, n, monkeypatch):
    drawn = []

    def counted(matrix, n_sites):
        count, sectors = translation_sectors(matrix, n_sites)

        def tap():
            for sector in sectors:
                drawn.append(sector)
                yield sector
        return count, tap()

    monkeypatch.setattr(spectra, "translation_sectors", counted)
    spectrum(SECTOR_FAMILIES[family](n))
    # only the Hamiltonian of the dephasing-omega family is not real
    assert len(drawn) == (n if family == "dephasing-omega" else n // 2 + 1)


def _assert_assembly_is_one_local_build_per_term(spec):
    # the reference builds every term on its own, as assembly did before
    # it built each distinct local term once
    from qcadc import superop
    by_support = {}
    for build, terms in ((superop._local_hamiltonian, spec.hamiltonian_terms),
                         (superop._local_dissipator, spec.jumps)):
        for op, coeff in terms:
            local = build(op.matrix, coeff)
            by_support[op.sites] = (by_support[op.sites] + local
                                    if op.sites in by_support else local)
    n = spec.n_sites
    want = sp.csr_matrix((4 ** n, 4 ** n), dtype=complex)
    for sites in sorted(by_support):
        want = want + superop.embed_local(by_support[sites], sites, n)
    want.sort_indices()
    got = assemble_lindbladian(spec).matrix
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("family", sorted(SECTOR_FAMILIES))
def test_assembly_equals_one_local_build_per_term(family, n):
    _assert_assembly_is_one_local_build_per_term(SECTOR_FAMILIES[family](n))


def test_assembly_keeps_each_rate_of_a_repeated_jump():
    # the same jump matrix at different rates is a different local term
    for spec in (_site_dependent(fuks_lindblad(FuksParams(0.3), 4),
                                 lambda i: 1 + 0.25 * (i // 6)),
                 _site_dependent(dephasing_lindblad(DephasingParams(1.0), 5),
                                 lambda i: 1 + 0.5 * (i // 4 == 2))):
        _assert_assembly_is_one_local_build_per_term(spec)
