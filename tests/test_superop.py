"""Vectorization, embedding, channel and generator assembly.

The embedding tests check against an independent dense oracle that builds
operators by explicit Kronecker products plus an index permutation, never
going through the engine's digit arithmetic.
"""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qcadc.superop import (
    ID2, P0, P1, PAULI_X, PAULI_Z, SIGMA_MINUS, SIGMA_PLUS,
    ChannelInvalidError, LindbladSpec, LocalOperator, VecState,
    apply_adjoint_generator, assemble_lindbladian, devectorize, doubled,
    embed_local, embed_physical, kraus_to_superop, translation_sectors,
    vectorize,
)
from conftest import basis_density, ghz_density, random_density, random_hermitian


# ---------------------------------------------------------------------------
# dense oracle: Kronecker product in (all kets) x (all bras) order, then a
# permutation to the engine's site-interleaved ordering


def interleave_perm(n):
    """perm[i_interleaved] = i_ketblock_braballock for an n-site system."""
    dim = 4 ** n
    idx = np.arange(dim)
    a = np.zeros(dim, dtype=np.int64)
    b = np.zeros(dim, dtype=np.int64)
    for j in range(n):
        d = (idx // 4 ** (n - 1 - j)) % 4
        a = a * 2 + d // 2
        b = b * 2 + d % 2
    return a * 2 ** n + b


def oracle_superop(ket_ops, bra_ops):
    """Dense superoperator sum_mu (x)_j A_mu_j  (x)_j B_mu_j, reordered."""
    n = len(ket_ops[0])
    dim = 4 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for A_list, B_list in zip(ket_ops, bra_ops):
        full_A = A_list[0]
        for A in A_list[1:]:
            full_A = np.kron(full_A, A)
        full_B = B_list[0]
        for B in B_list[1:]:
            full_B = np.kron(full_B, B)
        out += np.kron(full_A, full_B)
    perm = interleave_perm(n)
    return out[np.ix_(perm, perm)]


def oracle_kraus_superop(kraus_site_lists):
    """Channel superop from per-site Kraus factors: sum K (x) K*."""
    kets = [ops for ops in kraus_site_lists]
    bras = [[o.conj() for o in ops] for ops in kraus_site_lists]
    return oracle_superop(kets, bras)


# ---------------------------------------------------------------------------
# vectorize / devectorize


def test_vectorize_single_site_definition():
    rho = basis_density([0])
    assert np.array_equal(vectorize(rho).amplitudes, np.array([1, 0, 0, 0], complex))
    rho = basis_density([1])
    assert np.array_equal(vectorize(rho).amplitudes, np.array([0, 0, 0, 1], complex))


def test_vectorize_two_site_product_index():
    rho = basis_density([0, 1])
    v = vectorize(rho).amplitudes
    # site digits (0 (x) 0), (1 (x) 1) -> 0 * 4 + 3
    expected = np.zeros(16, dtype=complex)
    expected[3] = 1.0
    assert np.array_equal(v, expected)


def test_vectorize_matches_worked_n2_table():
    rng = np.random.default_rng(5)
    rho = random_hermitian(rng, 2)
    v = vectorize(rho).amplitudes
    for a1, a2, b1, b2 in itertools.product(range(2), repeat=4):
        idx = (2 * a1 + b1) * 4 + (2 * a2 + b2)
        assert v[idx] == rho[2 * a1 + a2, 2 * b1 + b2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_round_trip_bit_exact(n, rng):
    rho = random_hermitian(rng, n)
    back = devectorize(vectorize(rho))
    assert np.array_equal(back, rho)


def test_vectorize_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        vectorize(np.eye(3))


def test_devectorize_rejects_bad_length():
    with pytest.raises(ValueError, match="power of four"):
        devectorize(np.ones(8, dtype=complex))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    rho = random_hermitian(rng, n)
    assert np.array_equal(devectorize(vectorize(rho)), rho)


# ---------------------------------------------------------------------------
# embedding


def test_embed_identity_is_identity():
    out = embed_local(np.eye(4), (1,), 3)
    assert (out != sp.identity(64, format="csr")).nnz == 0


def test_embed_zz_matches_kron_oracle():
    local = doubled(np.kron(PAULI_Z, PAULI_Z))
    got = embed_local(local, (0, 1), 2).toarray()
    want = oracle_superop([[PAULI_Z, PAULI_Z]],
                          [[PAULI_Z.conj(), PAULI_Z.conj()]])
    assert np.max(np.abs(got - want)) < 1e-14
    # also explicitly diagonal +-1 in the doubled basis
    assert np.max(np.abs(got - np.diag(np.diag(got)))) == 0


def test_embed_wrapped_support_matches_permutation_oracle():
    # sigma^- (x) (sigma^-)* on sites (2, 0) of a 3-ring: the local
    # operator's leftmost qubit factor lives on site 2, the second on site 0
    n = 3
    local = doubled(np.kron(SIGMA_MINUS, SIGMA_MINUS))
    got = embed_local(local, (2, 0), n).toarray()
    kets = [ID2, ID2, ID2]
    kets[2] = SIGMA_MINUS
    kets[0] = SIGMA_MINUS
    want = oracle_superop([kets], [[k.conj() for k in kets]])
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_embed_random_supports_match_oracle(n, rng):
    for width in (1, 2, 3):
        if width > n:
            continue
        for start in range(n):
            sites = tuple((start + i) % n for i in range(width))
            K = rng.normal(size=(2 ** width, 2 ** width)) \
                + 1j * rng.normal(size=(2 ** width, 2 ** width))
            got = embed_local(doubled(K), sites, n).toarray()
            # K is not a product over sites, so the oracle writes K into the
            # full 2^N ket space entry by entry, then doubles and interleaves.
            full = np.zeros((2 ** n, 2 ** n), dtype=complex)
            rest = [s for s in range(n) if s not in sites]
            for r in range(2 ** width):
                rbits = [(r >> (width - 1 - i)) & 1 for i in range(width)]
                for c in range(2 ** width):
                    cbits = [(c >> (width - 1 - i)) & 1 for i in range(width)]
                    for e in range(2 ** len(rest)):
                        ebits = [(e >> (len(rest) - 1 - i)) & 1 for i in range(len(rest))]
                        ri = ci = 0
                        bits_r = [0] * n
                        bits_c = [0] * n
                        for s, bit in zip(sites, rbits):
                            bits_r[s] = bit
                        for s, bit in zip(sites, cbits):
                            bits_c[s] = bit
                        for s, bit in zip(rest, ebits):
                            bits_r[s] = bit
                            bits_c[s] = bit
                        for b in bits_r:
                            ri = ri * 2 + b
                        for b in bits_c:
                            ci = ci * 2 + b
                        full[ri, ci] += K[r, c]
            perm = interleave_perm(n)
            want = np.kron(full, full.conj())[np.ix_(perm, perm)]
            assert np.max(np.abs(got - want)) < 1e-13


def test_embed_rejects_duplicate_sites():
    with pytest.raises(ValueError, match="distinct"):
        LocalOperator((1, 1), np.eye(4, dtype=complex))


def test_embed_rejects_non_contiguous():
    with pytest.raises(ValueError, match="contiguous"):
        embed_local(np.eye(16), (0, 2), 4)


# ---------------------------------------------------------------------------
# channels


def test_identity_kraus_gives_identity_superop():
    op = LocalOperator((0,), ID2)
    s = kraus_to_superop([op], 2)
    assert (s.matrix != sp.identity(16, format="csr")).nnz == 0


def test_bit_flip_channel_on_zero_state():
    p = 0.25
    kraus = [LocalOperator((0,), np.sqrt(1 - p) * ID2),
             LocalOperator((0,), np.sqrt(p) * PAULI_X)]
    s = kraus_to_superop(kraus, 1)
    out = devectorize(s @ vectorize(basis_density([0])))
    assert np.allclose(np.diag(out).real, [0.75, 0.25])


def test_fuks_00_neighborhood_population():
    # amplitude damping at 2p: <1|rho'|1> = 1 - 2p on a one-qubit |1><1|
    p = 0.3
    kraus = [LocalOperator((0,), P0 + np.sqrt(1 - 2 * p) * P1),
             LocalOperator((0,), np.sqrt(2 * p) * SIGMA_MINUS)]
    s = kraus_to_superop(kraus, 1)
    out = devectorize(s @ vectorize(basis_density([1])))
    assert abs(out[1, 1] - (1 - 2 * p)) < 1e-14


def test_kraus_to_superop_rejects_incomplete_set():
    bad = [LocalOperator((0,), 0.9 * ID2)]
    with pytest.raises(ChannelInvalidError) as err:
        kraus_to_superop(bad, 1)
    assert err.value.residual > 0.1


# ---------------------------------------------------------------------------
# lindblad assembly


def single_site_decay(n_sites=1, gamma=1.0):
    return LindbladSpec(n_sites, (),
                        ((LocalOperator((0,), SIGMA_MINUS), gamma),))


def test_single_site_decay_rate():
    gen = assemble_lindbladian(single_site_decay())
    out = devectorize(gen @ vectorize(basis_density([1])))
    assert abs(out[1, 1] + 1.0) < 1e-14
    assert abs(out[0, 0] - 1.0) < 1e-14


def test_lindbladian_oracle_small(rng):
    # dense textbook formula vs sparse assembly, random 2-site jump at N=3
    n = 3
    K = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spec = LindbladSpec(n, (), ((LocalOperator((1, 2), K), 0.7),))
    gen = assemble_lindbladian(spec).dense()
    rho = random_density(rng, n)
    got = devectorize(VecState(n, gen @ vectorize(rho).amplitudes))
    Kfull = np.kron(ID2, K)  # sites (1, 2) of 3
    want = 0.7 * (Kfull @ rho @ Kfull.conj().T
                  - 0.5 * (Kfull.conj().T @ Kfull @ rho
                           + rho @ Kfull.conj().T @ Kfull))
    assert np.max(np.abs(got - want)) < 1e-12


def test_lindbladian_hamiltonian_oracle(rng):
    n = 2
    H = random_hermitian(rng, 1)
    spec = LindbladSpec(n, ((LocalOperator((1,), H), 1.3),), ())
    gen = assemble_lindbladian(spec).dense()
    rho = random_density(rng, n)
    got = devectorize(VecState(n, gen @ vectorize(rho).amplitudes))
    Hfull = np.kron(ID2, H)
    want = -1.3j * (Hfull @ rho - rho @ Hfull)
    assert np.max(np.abs(got - want)) < 1e-12


def test_generator_annihilates_trace(rng):
    from qcadc.models import FuksParams, fuks_lindblad
    for n, reps in ((3, 50), (4, 50)):
        gen = assemble_lindbladian(fuks_lindblad(FuksParams(0.3), n))
        for _ in range(reps):
            rho = random_density(rng, n)
            out = devectorize(gen @ vectorize(rho))
            assert abs(np.trace(out)) < 1e-10


def test_negative_rate_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        LindbladSpec(1, (), ((LocalOperator((0,), SIGMA_MINUS), -1.0),))


# ---------------------------------------------------------------------------
# adjoint generator


def sz_matrix(n):
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        out += embed_physical(LocalOperator((j,), PAULI_Z), n) / 2
    return out


def test_adjoint_annihilates_identity(rng):
    from qcadc.models import FuksParams, fuks_lindblad
    spec = fuks_lindblad(FuksParams(0.4), 3)
    out = apply_adjoint_generator(spec, np.eye(8, dtype=complex))
    assert np.max(np.abs(out)) < 1e-12


def test_adjoint_conserves_sz_fuks():
    from qcadc.models import FuksParams, fuks_lindblad
    spec = fuks_lindblad(FuksParams(0.25), 4)
    out = apply_adjoint_generator(spec, sz_matrix(4))
    assert np.max(np.abs(out)) < 1e-12


def test_adjoint_conserves_sz_dephasing():
    from qcadc.models import DephasingParams, dephasing_lindblad
    for omega in (0.0, 0.8):
        spec = dephasing_lindblad(DephasingParams(omega=omega), 3)
        out = apply_adjoint_generator(spec, sz_matrix(3))
        assert np.max(np.abs(out)) < 1e-12


def test_adjoint_matches_trace_pairing(rng):
    # d/dt Tr[O rho] computed two ways
    from qcadc.models import FuksParams, fuks_lindblad
    spec = fuks_lindblad(FuksParams(0.3), 3)
    gen = assemble_lindbladian(spec)
    rho = random_density(rng, 3)
    O = random_hermitian(rng, 3)
    lhs = np.trace(O @ devectorize(gen @ vectorize(rho)))
    rhs = np.trace(apply_adjoint_generator(spec, O) @ rho)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# ring-momentum sectors


def ring_shift_oracle(n):
    """Doubled-space matrix of rho -> U rho U^dag, U moving the qubit of
    site j to site j + 1 (site N to site 1), built column by column through
    vectorize/devectorize."""
    dim = 2 ** n
    u = np.zeros((dim, dim))
    for b in range(dim):
        u[(b >> 1) | ((b & 1) << (n - 1)), b] = 1.0
    cols = []
    for i in range(4 ** n):
        e = np.zeros(4 ** n, dtype=complex)
        e[i] = 1.0
        cols.append(vectorize(u @ devectorize(e) @ u.T).amplitudes)
    return np.column_stack(cols)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translation_sectors_are_momentum_eigenbases(n):
    from qcadc.models import DephasingParams, dephasing_lindblad
    spec = dephasing_lindblad(DephasingParams(1.0), n)
    sectors = translation_sectors(assemble_lindbladian(spec).matrix, n)
    assert len(sectors) == n
    shift = ring_shift_oracle(n)
    total = np.zeros((4 ** n, 4 ** n), dtype=complex)
    for k, (basis, reps) in enumerate(sectors):
        p = basis.toarray()
        assert np.abs(p.conj().T @ p - np.eye(len(reps))).max() < 1e-12
        assert np.abs(shift @ p - np.exp(2j * np.pi * k / n) * p).max() < 1e-12
        # the representative is the smallest index its column touches
        assert np.array_equal(reps, [np.flatnonzero(c)[0] for c in p.T])
        total += p @ p.conj().T
    assert np.abs(total - np.eye(4 ** n)).max() < 1e-12


def test_translation_sectors_refuse_a_broken_ring_symmetry():
    spec = LindbladSpec(3, (), ((LocalOperator((0,), SIGMA_MINUS), 1.0),))
    matrix = assemble_lindbladian(spec).matrix
    [(basis, reps)] = translation_sectors(matrix, 3)
    assert np.array_equal(reps, np.arange(64))
    assert (basis != sp.identity(64, format="csr")).nnz == 0
