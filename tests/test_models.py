"""Model constructions: channels, generators, schedules, reference behavior."""
import functools
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qcadc.classical import eca_step, parse_bits
from qcadc.models import (
    BELL_MINUS, BELL_PLUS, DephasingParams, FuksParams, MLWeights,
    center_windows, dephasing_lindblad, fates_kraus_sets, fates_rule_step,
    fates_step, fuks_kraus_sets, fuks_lindblad, fuks_step, ml_lindblad,
    mv_consensus_step, mv_layer_counts, mv_lindblads, mv_pad, mv_spread_step,
    mv_windows, published_ml_weights, rule_kraus, steady_family_state,
)
from qcadc.observables import density_n, diag_probabilities, expval_sz, trace_of
from qcadc.superop import (
    P0, P1, PAULI_Z, SIGMA_MINUS, SIGMA_PLUS, LindbladSpec, LocalOperator,
    assemble_lindbladian, devectorize, doubled, embed_local,
    kraus_completeness_residual, vectorize,
)
from conftest import basis_density, ghz_density, random_density


def run_steps(step, rho, n_steps):
    v = vectorize(rho)
    for _ in range(n_steps):
        v = step @ v
    return v


# ---------------------------------------------------------------------------
# parameter validation and window order


def test_fuks_params_range():
    with pytest.raises(ValueError):
        FuksParams(p=0.0)
    with pytest.raises(ValueError):
        FuksParams(p=0.6)
    FuksParams(p=0.5)


def test_ml_weights_validation():
    with pytest.raises(ValueError, match="w1 and w8"):
        MLWeights((0.1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        MLWeights.from_free((-0.1, 0, 0, 0, 0, 0))
    assert published_ml_weights().free == (1.000, 0.043, 0.0, 0.040, 0.0, 0.075)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_mv_phase_windows_are_disjoint_and_tile_the_ring(n):
    for phase in (1, 2, 3):
        sites = [(s + i) % n for s in mv_windows(n, phase) for i in range(3)]
        assert sorted(sites) == list(range(n))
    assert mv_windows(n) == sum((mv_windows(n, x) for x in (3, 2, 1)), ())


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("order", ["even_first", "odd_first"])
def test_center_windows_visit_every_center_once_by_parity(n, order):
    # a window starting at s updates the 0-based center s + 1, i.e. the
    # 1-based site s + 2
    centers = [(s + 1) % n + 1 for s in center_windows(n, order)]
    assert sorted(centers) == list(range(1, n + 1))
    evens = [c for c in centers if c % 2 == 0]
    odds = [c for c in centers if c % 2 == 1]
    first, second = (evens, odds) if order == "even_first" else (odds, evens)
    assert centers == first + second
    assert first == sorted(first, reverse=True)
    assert second == sorted(second, reverse=True)


def test_all_kraus_sets_complete():
    for p in (0.1, 0.3, 0.5):
        for kr in fuks_kraus_sets(p).values():
            assert kraus_completeness_residual(kr) < 1e-12
    for rule in (184, 232):
        for kr in fates_kraus_sets(rule).values():
            assert kraus_completeness_residual(kr) < 1e-12


# ---------------------------------------------------------------------------
# probabilistic rule, discrete step


def test_fuks_step_damps_isolated_one_at_half():
    # p = 1/2 makes the 00-neighborhood damping certain: the even-center
    # phase alone sends the isolated one to the all-zeros state.
    step = fuks_step(FuksParams(0.5), 3)
    v = run_steps(step, basis_density([0, 1, 0]), 1)
    probs = diag_probabilities(v)
    assert abs(probs[0] - 1.0) < 1e-12


def test_fuks_step_small_p_is_identity_on_diagonal_states():
    # the p -> 0 limit acts as the identity on classical configurations;
    # coherences are still dephased by the neighborhood-reading projectors,
    # which is intrinsic to the conditional-channel construction
    step = fuks_step(FuksParams(1e-9), 3)
    for code in range(8):
        bits = [(code >> (2 - i)) & 1 for i in range(3)]
        v = vectorize(basis_density(bits))
        out = step.matrix @ v.amplitudes
        assert np.abs(out - v.amplitudes).max() < 1e-8
    # a neighbor coherence is annihilated even at p -> 0
    v = vectorize(ghz_density(3))
    out = step.matrix @ v.amplitudes
    assert abs(out - v.amplitudes).max() > 0.4


def test_fuks_step_trace_preserving(rng):
    from qcadc.superop import VecState
    step = fuks_step(FuksParams(0.3), 4)
    for _ in range(25):
        v = vectorize(random_density(rng, 4))
        out = VecState(4, step.matrix @ v.amplitudes)
        assert abs(trace_of(out) - 1) < 1e-10


def test_fuks_discrete_fixed_point_from_001():
    # frozen long-run oracle: absorption weights equal the continuum values
    # (2/3, 1/3) for this input under the pinned even-first/descending order
    step = fuks_step(FuksParams(0.3), 3)
    v = run_steps(step, basis_density([0, 0, 1]), 4000)
    probs = diag_probabilities(v)
    assert abs(probs[0] - 2 / 3) < 1e-6
    assert abs(probs[7] - 1 / 3) < 1e-6


def test_fuks_discrete_fixed_point_from_010_frozen_oracle():
    # long-run oracle for the isolated one at the even center: the first
    # phase damps it deterministically at p = 1/2, so all weight lands on
    # the all-zeros state (the partitioned discrete map does not conserve
    # S_z state by state; only the continuous generator does)
    step = fuks_step(FuksParams(0.5), 3)
    v = run_steps(step, basis_density([0, 1, 0]), 2000)
    probs = diag_probabilities(v)
    assert abs(probs[0] - 1.0) < 1e-6


def test_fuks_phase_order_flag_changes_map():
    a = fuks_step(FuksParams(0.3), 5, "even_first")
    b = fuks_step(FuksParams(0.3), 5, "odd_first")
    assert abs(a.matrix - b.matrix).max() > 1e-3


def test_table_matches_rule_mixture():
    # transition probabilities equal p * rule170 + p * rule240 + (1-2p) * id
    # on every three-cell neighborhood
    for p in (0.17, 0.3, 0.5):
        kr = fuks_kraus_sets(p)
        for a, c, b in itertools.product((0, 1), repeat=3):
            rho = basis_density([c])
            channel = sum(K @ rho @ K.conj().T for K in kr[(a, b)])
            got = channel[1, 1].real      # probability center ends in 1
            c170 = int(eca_step(170, [a, c, b])[1])
            c240 = int(eca_step(240, [a, c, b])[1])
            want = p * c170 + p * c240 + (1 - 2 * p) * c
            assert abs(got - want) < 1e-14, (a, c, b, p)


# ---------------------------------------------------------------------------
# probabilistic rule, continuous generator


def test_fuks_lindblad_jump_count():
    spec = fuks_lindblad(FuksParams(0.3), 3)
    assert len(spec.jumps) == 18


def test_fuks_lindblad_annihilates_uniform_and_ghz():
    gen = assemble_lindbladian(fuks_lindblad(FuksParams(0.3), 3))
    for rho in (basis_density([0, 0, 0]), ghz_density(3)):
        out = gen.matrix @ vectorize(rho).amplitudes
        assert np.abs(out).max() < 1e-12


def test_fuks_lindblad_annihilates_alpha_beta_family():
    gen = assemble_lindbladian(fuks_lindblad(FuksParams(0.3), 3))
    rho = steady_family_state(0.4, 0.2, 3)
    out = gen.matrix @ vectorize(rho).amplitudes
    assert np.abs(out).max() < 1e-10


def test_fuks_lindblad_single_defect_not_steady():
    gen = assemble_lindbladian(fuks_lindblad(FuksParams(0.3), 4))
    out = gen.matrix @ vectorize(basis_density([0, 0, 1, 0])).amplitudes
    assert np.abs(out).max() > 1e-3


# ---------------------------------------------------------------------------
# dephasing model


def test_dephasing_generator_is_unital():
    gen = assemble_lindbladian(dephasing_lindblad(DephasingParams(), 3))
    ident = vectorize(np.eye(8, dtype=complex))
    out = gen.matrix @ ident.amplitudes
    assert np.abs(out).max() < 1e-10


def test_dephasing_annihilates_sector_mixtures():
    for n, omega in ((3, 0.0), (4, 0.0), (4, 0.7), (5, 0.0)):
        gen = assemble_lindbladian(dephasing_lindblad(DephasingParams(omega), n))
        for m in range(n + 1):
            rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
            members = [s for s in range(2 ** n) if bin(s).count("1") == m]
            for s in members:
                rho[s, s] = 1 / len(members)
            out = gen.matrix @ vectorize(rho).amplitudes
            assert np.abs(out).max() < 1e-12, (n, omega, m)


def test_bell_projectors_sum_to_bond_identity():
    from qcadc.models import P00, P11
    total = P00 + BELL_PLUS + BELL_MINUS + P11
    assert np.abs(total - np.eye(4)).max() < 1e-15


# ---------------------------------------------------------------------------
# majority voting steps


def doubled_sz_left(n):
    """Superoperator of rho -> S_z rho in the doubled space."""
    mat = sp.csr_matrix((4 ** n, 4 ** n), dtype=complex)
    for j in range(n):
        mat = mat + embed_local(doubled(PAULI_Z / 2, np.eye(2, dtype=complex)),
                                (j,), n)
    return mat


def apply_to_bits(step, bits):
    v = vectorize(basis_density(bits))
    out = step.matrix @ v.amplitudes
    nz = np.flatnonzero(np.abs(out) > 1e-12)
    assert len(nz) == 1, "expected a deterministic basis-to-basis map"
    return nz[0]


def bits_index(bits):
    v = vectorize(basis_density(bits))
    return int(np.flatnonzero(np.abs(v.amplitudes) > 0)[0])


def test_spread_relocates_cluster_edge():
    # 1,1,0 at the phase-1 triple becomes 1,0,1
    step = mv_spread_step(3, phase=1)
    assert apply_to_bits(step, [1, 1, 0]) == bits_index([1, 0, 1])


def test_consensus_kills_isolated_one():
    step = mv_consensus_step(3, phase=1)
    assert apply_to_bits(step, [0, 1, 0]) == bits_index([0, 0, 0])


def test_consensus_grows_cluster_both_ways():
    step = mv_consensus_step(3, phase=1)
    assert apply_to_bits(step, [1, 1, 0]) == bits_index([1, 1, 1])
    assert apply_to_bits(step, [0, 1, 1]) == bits_index([1, 1, 1])


def test_spread_layer_commutes_with_sz(rng):
    n = 6
    layer = mv_spread_step(n)
    mz = doubled_sz_left(n)
    comm = layer.matrix @ mz - mz @ layer.matrix
    for _ in range(50):
        v = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
        v /= np.linalg.norm(v)
        assert np.abs(comm @ v).max() < 1e-12


def test_consensus_layer_does_not_commute_with_sz():
    n = 6
    layer = mv_consensus_step(n)
    mz = doubled_sz_left(n)
    comm = layer.matrix @ mz - mz @ layer.matrix
    assert abs(comm).max() > 0.1


def test_mv_steps_trace_preserving(rng):
    for step in (mv_spread_step(3), mv_consensus_step(3)):
        from qcadc.superop import VecState
        for _ in range(20):
            v = vectorize(random_density(rng, 3))
            out = VecState(3, step.matrix @ v.amplitudes)
            assert abs(trace_of(out) - 1) < 1e-10


def assert_same_csr(a, b):
    """Bit-identical sparse matrices: the same indptr, indices and data."""
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    a.sort_indices()
    b.sort_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("build", [mv_spread_step, mv_consensus_step])
def test_mv_full_layer_is_the_phase_product(build, n):
    # one window chain over the layer equals (phase 1)(phase 2)(phase 3)
    p1, p2, p3 = (build(n, phase).matrix for phase in (1, 2, 3))
    assert_same_csr(build(n).matrix, p1 @ (p2 @ p3))


def test_mv_passive_kraus_is_the_jump_remainder():
    def proj(bits):
        return functools.reduce(np.kron, [P1 if b else P0 for b in bits])

    eye = np.eye(8, dtype=complex)
    assert np.array_equal(rule_kraus("spread")[-1], eye - proj((1, 1, 0)))
    assert np.array_equal(
        rule_kraus("consensus")[-1],
        eye - (proj((0, 1, 0)) + proj((1, 1, 0)) + proj((0, 1, 1))))


# ---------------------------------------------------------------------------
# majority voting generators


def test_spread_generator_annihilates_alternating():
    spread, _ = mv_lindblads(6)
    gen = assemble_lindbladian(spread)
    out = gen.matrix @ vectorize(basis_density([0, 1, 0, 1, 0, 1])).amplitudes
    assert np.abs(out).max() < 1e-14


def test_consensus_generator_annihilates_uniform():
    _, consensus = mv_lindblads(4)
    gen = assemble_lindbladian(consensus)
    for bits in ([0, 0, 0, 0], [1, 1, 1, 1]):
        out = gen.matrix @ vectorize(basis_density(bits)).amplitudes
        assert np.abs(out).max() < 1e-14


def test_mv_generator_jump_counts():
    spread, consensus = mv_lindblads(5)
    assert len(spread.jumps) == 5
    assert len(consensus.jumps) == 15


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mv_generators_match_hand_written_jumps(n):
    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    spread, consensus = [], []
    for j in range(n):
        sites = ((j - 1) % n, j, (j + 1) % n)
        spread.append((LocalOperator(sites, kron3(P1, SIGMA_MINUS,
                                                  SIGMA_PLUS)), 1.0))
        consensus += [
            (LocalOperator(sites, kron3(P0, SIGMA_MINUS, P0)), 1.0),
            (LocalOperator(sites, kron3(P1, P1, SIGMA_PLUS)), 1.0),
            (LocalOperator(sites, kron3(SIGMA_PLUS, P1, P1)), 1.0),
        ]
    for got, jumps in zip(mv_lindblads(n), (spread, consensus)):
        want = LindbladSpec(n, (), tuple(jumps))
        assert_same_csr(assemble_lindbladian(got).matrix,
                        assemble_lindbladian(want).matrix)


def test_spread_generator_commutes_with_sz(rng):
    spread, _ = mv_lindblads(5)
    gen = assemble_lindbladian(spread)
    mz = doubled_sz_left(5)
    comm = gen.matrix @ mz - mz @ gen.matrix
    assert abs(comm).max() < 1e-12


# ---------------------------------------------------------------------------
# layer counts and padding


@pytest.mark.parametrize("n,expected", [(30, (55, 20, 75)), (6, (7, 4, 11)),
                                        (12, (19, 8, 27)), (9, (11, 6, 17))])
def test_mv_layer_counts(n, expected):
    assert mv_layer_counts(n) == expected


def test_mv_layer_counts_rejects_unpadded():
    with pytest.raises(ValueError, match="pad"):
        mv_layer_counts(7)


def test_mv_pad():
    assert mv_pad("1011") == "101101"
    assert mv_pad("10110") == "101100101"
    assert mv_pad("101010") == "101010"


# ---------------------------------------------------------------------------
# traffic/majority mixture


def test_fates_endpoints_match_deterministic_rules():
    assert abs(fates_step(1.0, 4).matrix - fates_rule_step(184, 4).matrix).max() == 0
    assert abs(fates_step(0.0, 4).matrix - fates_rule_step(232, 4).matrix).max() == 0


def test_fates_rule_steps_are_deterministic_on_basis_states():
    # the partitioned quantum update agrees with sequential classical center
    # updates for both rules, every 5-bit input
    from qcadc.classical import partitioned_rule_step
    for rule in (184, 232):
        step = fates_rule_step(rule, 5)
        for code in range(32):
            bits = [(code >> (4 - i)) & 1 for i in range(5)]
            got = apply_to_bits(step, bits)
            want = partitioned_rule_step(rule, bits)
            assert got == bits_index(list(want))


def test_fates_tables_are_the_wolfram_rules():
    # the center tables probed from the Kraus lists write the Wolfram bit
    # (rule >> (4l + 2c + r)) & 1 to the center and leave l and r alone
    from qcadc.classical import _rule_table
    for rule in (184, 232):
        table = _rule_table(rule)
        for s in range(8):
            l, r = s >> 2, s & 1
            assert table[s] == (l << 2) | (((rule >> s) & 1) << 1) | r


@functools.lru_cache(maxsize=None)
def _fates_step_cached(rule, n, order):
    return fates_rule_step(rule, n, order)


@given(st.integers(min_value=3, max_value=7).flatmap(
           lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)),
       st.sampled_from(["even_first", "odd_first"]),
       st.sampled_from([184, 232]))
@settings(max_examples=120, deadline=None)
def test_fates_rule_step_matches_classical_block_order(bits, order, rule):
    # both phase orders and odd N, where the wrap pair (N, 1) makes the
    # order inside a phase matter
    from qcadc.classical import partitioned_rule_step
    step = _fates_step_cached(rule, len(bits), order)
    want = partitioned_rule_step(rule, bits, order)
    assert apply_to_bits(step, bits) == bits_index(list(want))


def test_fates_mixture_is_trace_preserving(rng):
    from qcadc.superop import VecState
    step = fates_step(0.5, 3)
    for _ in range(10):
        v = vectorize(random_density(rng, 3))
        assert abs(trace_of(VecState(3, step.matrix @ v.amplitudes)) - 1) < 1e-10


# ---------------------------------------------------------------------------
# weighted jump family


def test_ml_zero_weights_zero_generator():
    gen = assemble_lindbladian(ml_lindblad(MLWeights.from_free((0,) * 6), 3))
    assert gen.matrix.nnz == 0


def test_ml_single_weight_decays_isolated_one():
    w = MLWeights.from_free((1.0, 0, 0, 0, 0, 0))   # only the 0-0 lowering jump
    gen = assemble_lindbladian(ml_lindblad(w, 3))
    from scipy.linalg import expm
    v = vectorize(basis_density([0, 1, 0])).amplitudes
    out = expm(gen.dense() * 30.0) @ v
    probs = out[np.array([0, 21, 42, 63])].real  # diagonal entries, N=3
    assert abs(probs[0] - 1.0) < 1e-9


def test_ml_published_weights_give_18_jumps_on_n6():
    spec = ml_lindblad(published_ml_weights(), 6)
    assert len(spec.jumps) == 4 * 6
