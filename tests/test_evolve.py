"""Evolution engine: methods agree with each other and with closed forms."""
import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from qcadc.classical import (gamma_p_relation, mv_separated_target,
                             mv_sublayer_sequence, mv_worst_consensus_input,
                             mv_worst_spread_input, p_from_gamma_tau)
from qcadc.evolve import (
    DiagonalDynamics, EvolutionResult, KrylovError, NotBasisPreservingError,
    continuous_evolve, converge_to_fixed_point, crossing_time,
    diagonal_rate_matrix, discrete_run, is_basis_preserving, krylov_expmv,
    mean_occupancy, mv_worst_case_times,
)
from qcadc.evolve import (_first_crossing, _poisson_block, _poisson_cutoff,
                          _poisson_pmf, _uniformized_blocks)
from qcadc.models import (
    DephasingParams, DiscreteRule, FuksParams, MLWeights, center_windows,
    dephasing_lindblad, fates_rule, fuks_kraus_sets, fuks_lindblad,
    fuks_rule, mv_lindblads, mv_rule, published_ml_weights,
    ml_lindblad,
)
from qcadc.observables import (density_n, diag_indices, diag_probabilities,
                               expval_sz, trace_of)
from qcadc.superop import (
    ID2, P0, P1, SIGMA_MINUS, LindbladSpec, LocalOperator, VecState,
    assemble_lindbladian, devectorize, doubled, match_moves, move_table,
    reachable_generator, vectorize,
)
from conftest import basis_density, ghz_density, random_density


def decay_spec(n=1, gamma=1.0):
    return LindbladSpec(n, (), ((LocalOperator((0,), SIGMA_MINUS), gamma),))


# ---------------------------------------------------------------------------
# discrete stepping


def identity_rule(n, local=None):
    """A one-branch rule whose local channel is ``local`` (the identity by
    default) on every center window."""
    local = np.eye(64, dtype=complex) if local is None else local
    return DiscreteRule(n, ((1.0, local, center_windows(n, "even_first")),))


def test_discrete_identity_step_keeps_state(rng):
    # a random density reaches every index and steps the 4^N identity; a
    # basis state steps the identity on its one code
    rule = identity_rule(3)
    assert np.array_equal(rule.step().matrix.toarray(), np.eye(64))
    for rho in (random_density(rng, 3), basis_density([0, 0, 1])):
        state = vectorize(rho)
        out = discrete_run(rule, state, max_steps=7)
        assert np.array_equal(out.final_state.amplitudes, state.amplitudes)
        assert out.time_reached == 7


def test_discrete_run_trajectory_columns():
    rule = fuks_rule(FuksParams(0.3), 3)
    out = discrete_run(rule, vectorize(basis_density([0, 0, 1])), max_steps=5)
    assert out.trajectory.shape == (6, 4)
    assert np.all(np.diff(out.trajectory[:, 0]) > 0)
    assert np.allclose(out.trajectory[:, 3], 1.0, atol=1e-8)


def test_discrete_run_keeps_each_step_vector_uncopied(monkeypatch, rng):
    # a random density reaches every index, so the run steps the 4^N
    # vector, and the final state holds the last product itself, not a
    # 4^N copy of it
    rule = fuks_rule(FuksParams(0.3), 3)
    step = rule.step()
    state = vectorize(random_density(rng, 3))
    want = discrete_run(rule, state, max_steps=4)
    products = []

    class Recorded:
        def __matmul__(self, v):
            products.append(step.matrix @ v)
            return products[-1]
    block = DiscreteRule.reachable

    def reachable(self, support, cap):
        codes, _ = block(self, support, cap)
        assert codes is None
        return codes, Recorded()
    monkeypatch.setattr(DiscreteRule, "reachable", reachable)
    out = discrete_run(rule, state, max_steps=4)
    assert len(products) == 4
    assert out.final_state.amplitudes is products[-1]
    assert not out.converged and out.time_reached == 4.0
    assert np.array_equal(out.trajectory, want.trajectory)
    v = state.amplitudes
    for _ in range(4):
        v = step.matrix @ v
    assert np.array_equal(out.final_state.amplitudes, v)


def test_discrete_run_rejects_negative_steps():
    rule = fuks_rule(FuksParams(0.3), 3)
    with pytest.raises(ValueError, match="max_steps must be non-negative"):
        discrete_run(rule, vectorize(basis_density([0, 0, 1])), max_steps=-1)


# every discrete rule of the CLI, and an mv phase; mv rules need N = 3k
DISCRETE_RULES = {
    "fuks even_first": lambda n: fuks_rule(FuksParams(0.3), n),
    "fuks odd_first": lambda n: fuks_rule(FuksParams(0.2), n, "odd_first"),
    "fates": lambda n: fates_rule(0.4, n),
    "mv-spread": lambda n: mv_rule("spread", n),
    "mv-consensus": lambda n: mv_rule("consensus", n),
    "mv-consensus phase 2": lambda n: mv_rule("consensus", n, 2),
}


@functools.lru_cache(maxsize=None)
def full_step(name, n):
    return DISCRETE_RULES[name](n).step().matrix


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(DISCRETE_RULES)), size=st.integers(3, 8),
       start=st.sampled_from(["basis", "ghz", "random"]),
       seed=st.integers(0, 2 ** 16))
@example(name="fuks even_first", size=8, start="ghz", seed=0)
@example(name="fates", size=5, start="random", seed=0)   # every index
@example(name="mv-spread", size=5, start="basis", seed=0)   # N = 6
def test_block_run_matches_the_4n_step_bit_for_bit(name, size, start, seed):
    # the run on the closed codes and step.matrix @ v on 4^N give the same
    # trajectory and final state, to the bit
    n = 3 * (1 + size % 2) if name.startswith("mv") else size
    rng = np.random.default_rng(seed)
    rho = {"basis": lambda: basis_density(rng.integers(0, 2, n)),
           "ghz": lambda: ghz_density(n),
           "random": lambda: random_density(rng, n)}[start]()
    state = vectorize(rho)
    out = discrete_run(DISCRETE_RULES[name](n), state, max_steps=5)
    step, v = full_step(name, n), state.amplitudes
    rows = [(0.0, density_n(state) / n, expval_sz(state),
             trace_of(state).real)]
    for k in range(1, 6):
        v = step @ v
        w = VecState(n, v)
        rows.append((float(k), density_n(w) / n, expval_sz(w),
                     trace_of(w).real))
    assert np.array_equal(out.trajectory, np.array(rows))
    assert np.array_equal(out.final_state.amplitudes, v)


@pytest.mark.parametrize("t, samples, message", [
    (-1.0, 4, "t must be finite and non-negative"),
    (1.0, 0, "samples must be at least 1, got 0"),
    (1.0, -5, "samples must be at least 1, got -5"),
    (0.0, 0, "samples must be at least 1, got 0"),
])
def test_continuous_evolve_rejects_bad_t_and_samples(t, samples, message):
    # no samples is an error, not one sample; t = 0 does not skip the check
    spec = fuks_lindblad(FuksParams(0.3), 3)
    with pytest.raises(ValueError, match=message):
        continuous_evolve(spec, vectorize(basis_density([0, 0, 1])), t,
                          samples=samples)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_kind_of_run_rejects_a_non_finite_state():
    state = vectorize(basis_density([0, 0, 1]))
    blowup = identity_rule(3, np.diag(np.full(64, np.inf + 0j)))
    with pytest.raises(FloatingPointError, match="non-finite"):
        discrete_run(blowup, state, max_steps=3)
    huge = fuks_lindblad(FuksParams(0.3, gamma=1e308), 3)
    with pytest.raises(FloatingPointError, match="non-finite"):
        continuous_evolve(huge, state, 1.0, method="dense", samples=2)
    with pytest.raises(FloatingPointError, match="non-finite"):
        converge_to_fixed_point(huge, state, horizon=5, method="dense")
    # auto takes the diagonal path from a basis state
    with pytest.raises(FloatingPointError, match="not finite"):
        continuous_evolve(huge, state, 1.0, samples=2)


def test_mv_schedule_run_spreads_cluster():
    # after the spreading budget no two adjacent ones remain (N=12 cluster):
    # tau_a // 3 full layers, then the one phase-3 sublayer left over
    from qcadc.classical import has_adjacent_ones
    from qcadc.cli import build_initial
    from qcadc.models import MV_PHASE_ORDER, mv_layer_counts
    n = 12
    tau_a, _, _ = mv_layer_counts(n)
    layers = tau_a // 3
    assert mv_sublayer_sequence(tau_a) == list(MV_PHASE_ORDER) * layers + [3]
    state = build_initial({"bits": "111111000000"}, n)
    v = discrete_run(mv_rule("spread", n), state, layers,
                     record=False).final_state
    v = discrete_run(mv_rule("spread", n, 3), v, 1, record=False).final_state
    probs = diag_probabilities(v)
    idx = int(np.argmax(probs))
    assert abs(probs[idx] - 1.0) < 1e-9
    bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
    assert not has_adjacent_ones(bits)


# ---------------------------------------------------------------------------
# krylov expmv


def test_krylov_matches_dense_small(rng):
    gen = assemble_lindbladian(fuks_lindblad(FuksParams(0.35), 3))
    v = vectorize(random_density(rng, 3)).amplitudes
    want = expm(gen.dense() * 2.7) @ v
    got = krylov_expmv(gen.matrix, v, 2.7)
    assert np.abs(got - want).max() < 1e-8


def test_krylov_random_spec_agreement(rng):
    for _ in range(5):
        K = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        spec = LindbladSpec(4, (), ((LocalOperator((1, 2), K), 0.5),))
        gen = assemble_lindbladian(spec)
        v = vectorize(random_density(rng, 4)).amplitudes
        want = expm(gen.dense() * 1.3) @ v
        got = krylov_expmv(gen.matrix, v, 1.3)
        assert np.abs(got - want).max() < 1e-8


def test_krylov_raises_when_smallest_substep_is_over_budget():
    # rates 1e-2..1e4 at t=1 need substeps far below the floor t/64; the
    # over-budget substep at the floor must raise, not be accepted
    lam = np.geomspace(1e-2, 1e4, 300)
    A = sp.diags(-lam).tocsr()
    with pytest.raises(KrylovError, match="smallest substep") as info:
        krylov_expmv(A, np.ones(300), 1.0, max_substeps=64)
    assert np.isfinite(info.value.residual) and info.value.residual > 1e-10
    # with the default floor the same generator converges
    got = krylov_expmv(A, np.ones(300), 1.0)
    assert np.abs(got - np.exp(-lam)).max() < 1e-9


def test_krylov_stiff_generator_accurate_or_raises():
    # rates 1e-2..1e6 at t=1: exp(H dt) of the Ritz values underflows, so an
    # estimate read off its last row reads zero on a step far off the answer
    lam = np.geomspace(1e-2, 1e6, 300)
    try:
        got = krylov_expmv(sp.diags(-lam).tocsr(), np.ones(300), 1.0)
    except KrylovError:
        return
    assert np.abs(got - np.exp(-lam)).max() < 1e-9


def test_krylov_stiffer_generator_raises():
    # rates up to 1e7 need substeps below the default floor t/10000
    lam = np.geomspace(1e-2, 1e7, 300)
    with pytest.raises(KrylovError):
        krylov_expmv(sp.diags(-lam).tocsr(), np.ones(300), 1.0)


def test_krylov_basis_stays_orthogonal_on_clustered_spectrum(monkeypatch,
                                                              rng):
    # six tight eigenvalue clusters: after six steps each new Arnoldi vector
    # is mostly cancellation, which one Gram-Schmidt pass leaves far from
    # orthogonal.  Only an orthonormal basis makes the Hessenberg matrix of
    # a Hermitian generator Hermitian.
    import qcadc.evolve as ev
    seen = []
    dense_expm = ev.expm
    monkeypatch.setattr(ev, "expm", lambda M: seen.append(M) or dense_expm(M))
    lam = -np.repeat(np.arange(1.0, 7.0), 50) + 1e-6 * rng.normal(size=300)
    got = krylov_expmv(sp.diags(lam).tocsr(), np.ones(300), 1.0)
    assert np.abs(got - np.exp(lam)).max() < 1e-9
    H = seen[0][:-1, :-1]
    assert np.abs(H - H.conj().T).max() < 1e-12 * np.abs(H).max()


def test_krylov_t_zero():
    import scipy.sparse as sp
    A = sp.identity(8, format="csr", dtype=complex)
    v = np.arange(8, dtype=complex)
    assert np.array_equal(krylov_expmv(A, v, 0.0), v)


# ---------------------------------------------------------------------------
# diagonal fast path


def test_diagonal_rate_matrix_single_site_decay():
    Q = diagonal_rate_matrix(decay_spec()).toarray()
    assert np.allclose(Q, [[0, 1], [0, -1]])


def test_diagonal_rate_matrix_matches_full_generator_fuks():
    # project the 4^N generator onto the diagonal sector and compare
    from qcadc.observables import diag_indices
    spec = fuks_lindblad(FuksParams(0.3), 3)
    gen = assemble_lindbladian(spec).dense()
    idx = diag_indices(3)
    got = diagonal_rate_matrix(spec).toarray()
    want = gen[np.ix_(idx, idx)].real
    assert np.abs(got - want).max() < 1e-12


def test_diagonal_rate_matrix_column_stochastic():
    for spec in (fuks_lindblad(FuksParams(0.4), 4),
                 ml_lindblad(published_ml_weights(), 4),
                 mv_lindblads(4)[0], mv_lindblads(4)[1]):
        Q = diagonal_rate_matrix(spec).toarray()
        off = Q - np.diag(np.diag(Q))
        assert off.min() >= 0
        assert np.abs(Q.sum(axis=0)).max() < 1e-12


def test_dephasing_is_not_basis_preserving():
    spec = dephasing_lindblad(DephasingParams(), 3)
    assert not is_basis_preserving(spec)
    with pytest.raises(NotBasisPreservingError, match="superposition"):
        diagonal_rate_matrix(spec)


def test_diagonal_and_dense_paths_agree():
    for n in (3, 4, 5):
        for spec in (fuks_lindblad(FuksParams(0.25), n),
                     ml_lindblad(published_ml_weights(), n),
                     mv_lindblads(n)[1]):
            state = vectorize(basis_density([0] * (n - 2) + [1, 1]))
            a = continuous_evolve(spec, state, 5.0, method="dense", samples=4)
            b = continuous_evolve(spec, state, 5.0, samples=4)
            assert b.method_used == "diagonal"
            assert np.abs(a.final_state.amplitudes
                          - b.final_state.amplitudes).max() < 1e-10


# brute-force reference: the per-state, per-move Python BFS the array
# kernel replaced


def _reference_table(spec):
    """(sites, in pattern, out pattern, rate) of every move, read off the
    jump matrices in spec order."""
    table = []
    for op, rate in spec.jumps:
        if rate == 0.0:
            continue
        for c in range(2 ** op.width):
            col = op.matrix[:, c]
            nz = np.flatnonzero(np.abs(col) > 1e-14)
            if len(nz) == 1 and nz[0] != c:
                table.append((op.sites, c, int(nz[0]),
                              rate * float(abs(col[nz[0]]) ** 2)))
    return table


def _reference_moves(table, n, code):
    out = []
    for sites, c_in, c_out, rate in table:
        w = len(sites)
        c = 0
        for j in sites:
            c = (c << 1) | ((code >> (n - 1 - j)) & 1)
        if c != c_in:
            continue
        dst = code
        for i, j in enumerate(sites):
            bit = (c_out >> (w - 1 - i)) & 1
            pos = n - 1 - j
            dst = dst | (1 << pos) if bit else dst & ~(1 << pos)
        out.append((dst, rate))
    return out


def _reference_reachable(spec, bits0):
    """Breadth-first search one state and one move at a time; the rate
    matrix is built on the reached codes in ascending order."""
    table, n = _reference_table(spec), spec.n_sites
    start = 0
    for b in bits0:
        start = (start << 1) | int(b)
    seen = {start}
    edges = []
    frontier = [start]
    while frontier:
        nxt = []
        for code in frontier:
            for dst, rate in _reference_moves(table, n, code):
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
                edges.append((dst, code, rate))
        frontier = nxt
    codes = sorted(seen)
    index = {code: i for i, code in enumerate(codes)}
    dim = len(codes)
    r, c, v = (zip(*((index[dst], index[src], rate)
                     for dst, src, rate in edges))
               if edges else ((), (), ()))
    Q = sp.coo_matrix((v, (r, c)), shape=(dim, dim)).tocsr()
    Q = Q - sp.diags(np.asarray(Q.sum(axis=0)).ravel())
    return np.array(codes, dtype=np.int64), Q


def assert_same_reachable(spec, bits0):
    """reachable equals the reference to the bit, codes ascending; its cap
    is inclusive."""
    dyn = DiagonalDynamics(spec)
    want_codes, want_Q = _reference_reachable(spec, bits0)
    codes, Q = dyn.reachable(bits0)
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(Q.indptr, want_Q.indptr)
    assert np.array_equal(Q.indices, want_Q.indices)
    assert np.array_equal(Q.data, want_Q.data)
    size = len(codes)
    assert np.array_equal(dyn.reachable(bits0, cap=size)[0], codes)
    if size > 1:
        with pytest.raises(MemoryError, match="cap"):
            dyn.reachable(bits0, cap=size - 1)


@pytest.mark.parametrize("n", range(6, 16))
def test_reachable_matches_reference_bfs_mv(n):
    spread, consensus = mv_lindblads(n)
    assert_same_reachable(spread, mv_worst_spread_input(n))
    assert_same_reachable(consensus, mv_worst_consensus_input(n))


def random_basis_preserving_spec(rng, n):
    """Three-site jumps that send each basis pattern to one basis pattern
    (or annihilate it), with random amplitudes and some zero rates."""
    jumps = []
    for _ in range(rng.integers(1, 5)):
        j = int(rng.integers(n))
        K = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            if rng.random() < 0.6:
                K[rng.integers(8), col] = rng.normal() + 1j * rng.normal()
        rate = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 2.0))
        jumps.append((LocalOperator(((j - 1) % n, j, (j + 1) % n), K), rate))
    return LindbladSpec(n, (), tuple(jumps))


@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
# the diagonal of a discovery-order Q, permuted to ascending codes, differs
# here in the last bit: its column sums are taken in another row order
@example(n=3, seed=164)
def test_reachable_matches_reference_bfs_random_specs(n, seed):
    rng = np.random.default_rng(seed)
    assert_same_reachable(random_basis_preserving_spec(rng, n),
                          rng.integers(0, 2, n))


@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_rate_matrix_is_diagonal_restriction_random_specs(n, seed):
    spec = random_basis_preserving_spec(np.random.default_rng(seed), n)
    idx = diag_indices(n)
    want = assemble_lindbladian(spec).matrix.tocsr()[idx][:, idx]
    got = diagonal_rate_matrix(spec)
    assert abs(got - want).max() < 1e-12


def random_mixed_width_spec(rng, n):
    """Jumps on one, two or three adjacent sites that send each basis
    pattern to one basis pattern (or annihilate it), with random amplitudes
    and some zero rates."""
    jumps = []
    for _ in range(rng.integers(1, 6)):
        width, j = int(rng.integers(1, 4)), int(rng.integers(n))
        K = np.zeros((2 ** width, 2 ** width), dtype=complex)
        for col in range(2 ** width):
            if rng.random() < 0.6:
                K[rng.integers(2 ** width), col] = (rng.normal()
                                                    + 1j * rng.normal())
        rate = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 2.0))
        jumps.append((LocalOperator(tuple((j + i) % n for i in range(width)),
                                    K), rate))
    return LindbladSpec(n, (), tuple(jumps))


@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_mixed_width_specs_match_the_references(n, seed):
    rng = np.random.default_rng(seed)
    spec = random_mixed_width_spec(rng, n)
    bits0 = rng.integers(0, 2, n)
    assert_same_reachable(spec, bits0)
    idx = diag_indices(n)
    want = assemble_lindbladian(spec).matrix.tocsr()[idx][:, idx]
    assert abs(diagonal_rate_matrix(spec) - want).max() < 1e-12
    t_grid = np.linspace(0.0, 1.0, 5)
    got = DiagonalDynamics(spec).gillespie_mean_occupancy(
        bits0, t_grid, 4, np.random.default_rng(seed))
    want = _reference_gillespie(spec, bits0, t_grid, 4,
                                np.random.default_rng(seed))
    assert np.array_equal(got, want)


def unmemoized_rate_matrix(spec):
    """The rate matrix with every jump of nonzero rate probed on its own."""
    from qcadc.superop import basis_moves
    terms = []
    for op, rate in spec.jumps:
        if rate == 0.0:
            continue
        local = np.zeros(op.matrix.shape)
        for in_code, out_code, weight in basis_moves(op.matrix):
            if in_code != out_code:
                local[out_code, in_code] = rate * weight
        terms.append((local, op.sites))
    dyn = DiagonalDynamics(LindbladSpec(spec.n_sites, (), ()))
    dyn._table = move_table(terms, spec.n_sites, 2)
    return dyn.rate_matrix()


def test_diagonal_dynamics_probes_each_distinct_jump_matrix_once(
        monkeypatch):
    import qcadc.evolve as ev
    probed = []
    probe = ev.basis_moves
    monkeypatch.setattr(ev, "basis_moves",
                        lambda matrix: probed.append(1) or probe(matrix))
    rng = np.random.default_rng(11)
    for spec in (*mv_lindblads(12), *mv_lindblads(7),
                 random_mixed_width_spec(rng, 6),
                 random_mixed_width_spec(rng, 7)):
        distinct = {(op.matrix.dtype.str, op.matrix.shape,
                     op.matrix.tobytes())
                    for op, rate in spec.jumps if rate != 0.0}
        probed.clear()
        got = DiagonalDynamics(spec).rate_matrix()
        assert len(probed) == len(distinct)
        want = unmemoized_rate_matrix(spec)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    # the twelve-site mv specs each repeat two jump matrices on every window
    probed.clear()
    for spec in mv_lindblads(12):
        DiagonalDynamics(spec)
    assert len(probed) == 4


def test_enabled_moves_on_all_codes_match_rate_matrix():
    # the shared matcher on the move table of DiagonalDynamics
    for n in (3, 4, 6):
        for spec in (fuks_lindblad(FuksParams(0.3), n),
                     ml_lindblad(published_ml_weights(), n),
                     *mv_lindblads(n)):
            dyn = DiagonalDynamics(spec)
            table = _reference_table(spec)
            codes = np.arange(2 ** n)
            move, src, dst = match_moves(dyn._table, codes)
            rate = dyn._table.value[move]
            off = np.zeros((2 ** n, 2 ** n))
            np.add.at(off, (dst, src), rate)
            Q = dyn.rate_matrix().toarray()
            assert np.array_equal(off, Q - np.diag(np.diag(Q)))
            want = sorted((int(c), d, r) for c in codes
                          for d, r in _reference_moves(table, n, int(c)))
            assert sorted(zip(src.tolist(), dst.tolist(),
                              rate.tolist())) == want


@pytest.mark.parametrize("chunk", [1, 120, 1000])
def test_enabled_moves_in_chunks_keep_the_per_move_order(monkeypatch, chunk):
    # 40 codes: chunks of 1, 3 and 25 move-table rows, on radix-2 tables
    # of DiagonalDynamics and on the radix-4 table of a doubled generator;
    # one code is matched in one flat pass, to the same moves
    import qcadc.superop as so
    monkeypatch.setattr(so, "_MOVE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    by_support = so._local_terms(fuks_lindblad(FuksParams(0.3), 4))
    doubled_table = move_table([(by_support[s], s) for s in
                                sorted(by_support)], 4, 4)
    for table, dim in (
            *((DiagonalDynamics(spec)._table, 2 ** 7)
              for spec in (fuks_lindblad(FuksParams(0.3), 7),
                           *mv_lindblads(7),
                           random_basis_preserving_spec(rng, 7))),
            (doubled_table, 4 ** 4)):
        drawn = rng.permutation(dim)[:40]
        for codes in (drawn, drawn[:1]):
            move, src, dst = [codes[:0]], [codes[:0]], [codes[:0]]
            for m in range(len(table.mask)):     # one table row at a time
                hit = codes[(codes & table.mask[m]) == table.match[m]]
                move.append(np.full(len(hit), m))
                src.append(hit)
                dst.append((hit & ~table.mask[m]) | table.put[m])
            got = match_moves(table, codes)
            for g, w in zip(got, (move, src, dst)):
                w = np.concatenate(w)
                assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("family", ["fuks", "ml", "mv-spread",
                                    "mv-consensus"])
@pytest.mark.parametrize("n", range(3, 8))
def test_doubled_closure_of_a_basis_state_is_its_classical_chain(family, n):
    # one kernel, two radixes: the doubled closure of |s><s| is the
    # diagonal of the classical reachable set, and the generator there is
    # Q (ml's diagonal sums in another order, so not to the bit)
    spec = {"fuks": lambda: fuks_lindblad(FuksParams(0.3), n),
            "ml": lambda: ml_lindblad(published_ml_weights(), n),
            "mv-spread": lambda: mv_lindblads(n)[0],
            "mv-consensus": lambda: mv_lindblads(n)[1]}[family]()
    rng = np.random.default_rng(n)
    for bits in (rng.integers(0, 2, n), mv_worst_consensus_input(n)):
        state = vectorize(basis_density(bits))
        codes, sub = reachable_generator(spec, state.support())
        chain, Q = DiagonalDynamics(spec).reachable(bits)
        assert np.array_equal(codes, diag_indices(n)[chain])
        assert abs(sub - Q).max() < 1e-12


def test_reachable_subspace_matches_full_rate_matrix():
    spec = mv_lindblads(6)[1]
    dyn = DiagonalDynamics(spec)
    bits0 = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
    codes, Qsub = dyn.reachable(bits0)
    Qfull = dyn.rate_matrix().toarray()
    sub = Qfull[np.ix_(codes, codes)]
    assert np.abs(Qsub.toarray() - sub).max() < 1e-12


def test_gillespie_mean_matches_exact_markov():
    # consensus dynamics from a small cluster: sampled mean site occupation
    # agrees with expm on the full rate matrix within Monte-Carlo error
    spec = mv_lindblads(6)[1]
    dyn = DiagonalDynamics(spec)
    bits0 = np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8)
    t_grid = np.linspace(0.0, 4.0, 9)
    rng = np.random.default_rng(123)
    mean = dyn.gillespie_mean_occupancy(bits0, t_grid, 3000, rng)
    Q = dyn.rate_matrix()
    p0 = np.zeros(64)
    p0[int("".join(map(str, bits0)), 2)] = 1.0
    from scipy.linalg import expm as dexpm
    bits_of = np.array([[(s >> (5 - j)) & 1 for j in range(6)] for s in range(64)])
    for ti, t in enumerate(t_grid):
        p = dexpm(Q.toarray() * t) @ p0
        want = p @ bits_of
        assert np.abs(mean[ti] - want).max() < 0.05


def _reference_gillespie(spec, bits0, t_grid, n_traj, rng):
    """Per-site Gillespie loop on a bit array, drawing as the engine does."""
    table, n = _reference_table(spec), spec.n_sites
    acc = np.zeros((len(t_grid), n))
    for _ in range(n_traj):
        bits = np.array(bits0, dtype=np.int64)
        now, gi = 0.0, 0
        while gi < len(t_grid):
            moves = [(sites, c_out, rate) for sites, c_in, c_out, rate in table
                     if int("".join(str(bits[j]) for j in sites), 2) == c_in]
            if not moves:
                acc[gi:] += bits
                break
            rates = np.array([rate for _, _, rate in moves])
            total = rates.sum()
            dt = rng.exponential(1.0 / total)
            while gi < len(t_grid) and t_grid[gi] < now + dt:
                acc[gi] += bits
                gi += 1
            now += dt
            sites, c_out, _ = moves[np.searchsorted(np.cumsum(rates),
                                                    rng.random() * total)]
            for i, j in enumerate(sites):
                bits[j] = (c_out >> (len(sites) - 1 - i)) & 1
    return acc / n_traj


def test_gillespie_draws_match_reference_loop():
    # the fuks and spread moves clear bits as well as set them
    for spec, bits0 in ((fuks_lindblad(FuksParams(0.3), 6),
                         [1, 0, 1, 1, 0, 0]),
                        (mv_lindblads(8)[0], mv_worst_spread_input(8))):
        t_grid = np.linspace(0.0, 6.0, 13)
        got = DiagonalDynamics(spec).gillespie_mean_occupancy(
            np.array(bits0), t_grid, 40, np.random.default_rng(17))
        want = _reference_gillespie(spec, bits0, t_grid, 40,
                                    np.random.default_rng(17))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cap", [1, 300, 10 ** 6])
def test_capped_gillespie_equals_a_run_without_the_search(cap):
    # the capped search's matches, grouped by code, are each code's moves
    # in row order, so sampling from them draws what matching each code
    # alone draws; a search that finishes keeps none.  The cases reach
    # 1124, 256, 494 and 16 codes
    rng = np.random.default_rng(3)
    cases = [(mv_lindblads(18)[1], mv_worst_consensus_input(18)),
             (mv_lindblads(18)[0], mv_worst_spread_input(18)),
             (fuks_lindblad(FuksParams(0.3), 9), [1, 0, 1, 1, 0, 0, 1, 0, 0]),
             (random_mixed_width_spec(rng, 10), rng.integers(0, 2, 10))]
    t_grid = np.linspace(0.0, 8.0, 97)
    for spec, bits0 in cases:
        bits0 = np.asarray(bits0)
        dyn = DiagonalDynamics(spec)
        try:
            dyn.reachable(bits0, cap=cap)
        except MemoryError:
            assert cap < 10 ** 6
        codes, starts, ends, move = dyn._known
        assert np.array_equal(codes, np.unique(codes))
        for code, lo, hi in zip(codes, starts, ends):
            assert np.array_equal(move[lo:hi],
                                  match_moves(dyn._table, [code])[0])
        # the matches serve a run from any start, the search's and others
        for start in (bits0, 1 - bits0):
            got = dyn.gillespie_mean_occupancy(
                start, t_grid, 25, np.random.default_rng(5))
            want = DiagonalDynamics(spec).gillespie_mean_occupancy(
                start, t_grid, 25, np.random.default_rng(5))
            assert np.array_equal(got, want)


def random_rate_matrix(rng, dim):
    """Sparse random rates; a ring of moves leaves every state."""
    keep = rng.random((dim, dim)) < 0.4
    keep[np.roll(np.arange(dim), 1), np.arange(dim)] = True
    off = rng.random((dim, dim)) * keep
    np.fill_diagonal(off, 0.0)
    return off - np.diag(off.sum(axis=0))


def collect_rows(Q, p0, obs, t_grid):
    """Every row of the :func:`_uniformized_blocks` stream, in grid order."""
    rows = np.empty((len(t_grid), obs.shape[1]))
    for idx, final in _uniformized_blocks(Q, p0, obs, t_grid):
        rows[idx] = final
    return rows


@pytest.mark.parametrize("dim, rate_times_t", [(2, 0.5), (6, 5.0), (12, 60.0),
                                               (20, 300.0), (16, 1000.0)])
def test_uniformized_rows_match_expm(rng, dim, rate_times_t):
    Q = random_rate_matrix(rng, dim)
    T = 7.0
    Q *= rate_times_t / (-np.diag(Q).min() * T)
    p0 = rng.random(dim)
    p0 /= p0.sum()
    obs = rng.random((dim, 3))
    t_grid = np.linspace(0.0, T, 9)
    got = collect_rows(sp.csr_matrix(Q), p0, obs, t_grid)
    want = np.array([obs.T @ (expm(Q * t) @ p0) for t in t_grid])
    assert np.abs(got - want).max() < 1e-10


def all_columns_rows(Q, p0, obs, t_grid):
    """The single-pass reference: every block weights every time, by the
    same block routine, out to the cutoff of the latest time, and each row
    is normalized once at the end."""
    rate = max(float(-Q.diagonal().min()), 0.0)
    means = rate * np.asarray(t_grid)
    K = _poisson_cutoff(means.max())
    step = sp.identity(Q.shape[0], format="csr") + Q / rate if rate else None
    rows, weight = np.zeros((len(t_grid), obs.shape[1])), np.zeros(len(t_grid))
    v, block = p0, np.empty((64, len(p0)))
    for k in range(K + 1):
        j = k % 64
        block[j] = v
        if j == 63 or k == K:
            w = _poisson_block(k - j, j + 1, means)
            rows += w.T @ (block[:j + 1] @ obs)
            weight += w.sum(axis=0)
        if k < K:
            v = step @ v
    return rows / weight[:, None]


@pytest.mark.parametrize("dim, rate_times_t", [(2, 0.0), (6, 5.0),
                                               (12, 60.0), (16, 1000.0),
                                               (20, 3000.0)])
def test_uniformized_blocks_yield_final_rows_in_time_order(rng, dim,
                                                           rate_times_t):
    Q = random_rate_matrix(rng, dim)
    T = 7.0
    Q = sp.csr_matrix(Q * rate_times_t / (-np.diag(Q).min() * T))
    p0 = rng.random(dim)
    p0 /= p0.sum()
    obs = rng.random((dim, 3))
    # unsorted, with t = 0 twice and the latest time inside
    t_grid = rng.permutation(np.r_[0.0, 0.0, T * rng.random(30), T])
    want = all_columns_rows(Q, p0, obs, t_grid)
    seen = []
    for idx, rows in _uniformized_blocks(Q, p0, obs, t_grid):
        assert np.abs(rows - want[idx]).max() <= 1e-15
        seen += idx.tolist()
    assert sorted(seen) == list(range(len(t_grid)))
    assert np.all(np.diff(t_grid[seen]) >= 0)
    assert np.abs(collect_rows(Q, p0, obs, t_grid) - want).max() <= 1e-15


def test_uniformized_blocks_stream_rows_before_the_last_block():
    # L t = 2000 at the latest time: K is about 2400, so 38 blocks; the
    # early times are final long before the stream ends
    Q = sp.csr_matrix(np.array([[-2.0, 1.0], [2.0, -1.0]]))
    t_grid = np.linspace(0.0, 1000.0, 11)
    stream = _uniformized_blocks(Q, np.array([1.0, 0.0]), np.eye(2), t_grid)
    idx, _ = next(stream)
    assert idx.tolist() == [0]
    batches = [idx.tolist() for idx, _ in stream]
    assert len(batches) == 10 and sum(batches, []) == list(range(1, 11))


def test_uniformized_rows_of_a_counting_chain_are_the_poisson_law(rng):
    # unit-rate jumps 0 -> 1 -> ... -> 399: P shifts by one state, so the
    # row of time t is Pois(j; t) (scipy's to its own accuracy), and a row
    # taken final too early misses the end-of-stream value by its upper tail
    from scipy.stats import poisson
    dim = 400
    Q = sp.diags([-np.r_[np.ones(dim - 1), 0.0], np.ones(dim - 1)], [0, -1],
                 format="csr")
    t_grid = rng.permutation(np.r_[0.0, np.linspace(0.5, 150.0, 300)])
    p0 = np.zeros(dim)
    p0[0] = 1.0
    got = collect_rows(Q, p0, np.eye(dim), t_grid)
    want = poisson.pmf(np.arange(dim), t_grid[:, None])
    want[:, -1] = poisson.sf(dim - 2, t_grid)
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got - all_columns_rows(Q, p0, np.eye(dim), t_grid)
                  ).max() <= 1e-15


def test_uniformized_rows_one_state_and_zero_rates(rng):
    obs = np.array([[0.25, 1.0]])
    got = collect_rows(sp.csr_matrix((1, 1)), np.ones(1), obs,
                           np.linspace(0.0, 5.0, 4))
    assert np.array_equal(got, np.repeat(obs, 4, axis=0))
    p0 = rng.random(4)
    p0 /= p0.sum()
    obs = rng.random((4, 3))
    got = collect_rows(sp.csr_matrix((4, 4)), p0, obs,
                           np.array([0.0, 1.0, 1e3]))
    assert np.abs(got - p0 @ obs).max() < 1e-15
    with pytest.raises(ValueError, match="non-negative"):
        collect_rows(sp.csr_matrix((4, 4)), p0, obs, np.array([-1.0]))


@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 12.0, 24.0, 693.0, 1e4,
                                  1e5])
def test_poisson_weights_match_exact_values(mean):
    from decimal import Decimal, getcontext
    getcontext().prec = 50
    spread = int(12 * np.sqrt(mean + 1)) + 20
    ks = np.arange(max(0, int(mean) - spread), int(mean) + spread)
    got = _poisson_pmf(ks, np.array([mean]))[:, 0]
    m, p, exact = Decimal(mean), (-Decimal(mean)).exp(), []
    for k in range(ks[-1] + 1):     # 50 digits: the rounding does not show
        if k:
            p = p * m / k
        if k >= ks[0]:
            exact.append(float(p))
    want = np.array(exact)
    assert np.abs(got - want).max() <= 5e-16 * want.max()
    seen = want > 1e-300
    assert np.all(np.abs(got - want)[seen] <= 1e-12 * want[seen])
    assert np.all(got[~seen] <= 1e-290)


def single_expression_pmf(k, means):
    """Both forms evaluated on every row, then one picked per row."""
    from qcadc.evolve import _FACTORIAL, _SMALL_K, _stirling_error
    x = np.asarray(k, dtype=float)[:, None]
    m = np.asarray(means, dtype=float)[None, :]
    small = np.minimum(x, _SMALL_K)
    direct = np.exp(-m) * m ** small / _FACTORIAL[small.astype(np.int64)]
    xs, ms = np.maximum(x, _SMALL_K + 1), np.where(m > 0, m, 1.0)
    diff, both = np.broadcast_arrays(xs - ms, xs + ms)
    bd0 = xs * np.log(xs / ms) - diff
    near = np.abs(diff) < 0.25 * both
    v = diff[near] / both[near]
    total = diff[near] * v
    term = 2.0 * np.broadcast_to(xs, near.shape)[near] * v
    for j in range(1, 15):
        term = term * (v * v)
        total = total + term / (2 * j + 1)
    bd0[near] = total
    saddle = np.exp(-_stirling_error(xs) - bd0) / np.sqrt(2.0 * np.pi * xs)
    return np.where(x <= _SMALL_K, direct, np.where(m > 0, saddle, 0.0))


@pytest.mark.parametrize("ks", [np.arange(64), np.arange(10, 20),
                                np.arange(15, 17), np.arange(16, 80),
                                np.array([40, 3, 15, 16, 0])])
def test_poisson_pmf_is_the_single_expression_form(ks):
    means = np.r_[0.0, 1e-3, 0.5, 12.0, 15.5, 24.0, 693.0, 1e4,
                  np.linspace(0.0, 96.0, 600)]
    assert np.array_equal(_poisson_pmf(ks, means),
                          single_expression_pmf(ks, means))


@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 12.0, 15.5, 24.0, 693.0,
                                  1e4, 98765.4, 1e5])
def test_poisson_block_weights_match_exact_values(mean):
    # every 64-power block the stream weights a time of mean m with, from
    # the one that reaches m - 9 sqrt(m) to the one that reaches m + 9
    # sqrt(m) + 30, at each of its 64 offsets: a seed from the point form,
    # then 63 steps of the ratio recursion
    from decimal import Decimal, getcontext
    getcontext().prec = 50
    width = 9.0 * np.sqrt(mean)
    starts = range(int(max(mean - width, 0.0)) // 64 * 64,
                   int(mean + width + 30.0) + 1, 64)
    m, p, exact = Decimal(mean), (-Decimal(mean)).exp(), []
    for k in range(starts[-1] + 64):   # 50 digits: the rounding does not show
        if k:
            p = p * m / k
        exact.append(float(p))
    exact = np.array(exact)
    for k0 in starts:
        got = _poisson_block(k0, 64, np.array([mean]))[:, 0]
        assert got[0] == _poisson_pmf(np.array([k0]), np.array([mean]))[0, 0]
        want = exact[k0:k0 + 64]
        assert np.abs(got - want).max() <= 4e-15 * exact.max()
        seen = want > 1e-300
        assert np.all(np.abs(got - want)[seen] <= 1e-12 * want[seen])


@pytest.mark.parametrize("k0, count", [(0, 64), (0, 1), (15, 64),
                                       (640, 37), (99_968, 64)])
def test_poisson_block_columns_are_seeded_by_the_point_form(k0, count):
    means = np.r_[0.0, 1e-3, 0.5, 12.0, 15.5, 693.0, 1e4, 1e5,
                  np.linspace(0.0, 96.0, 60)]
    got = _poisson_block(k0, count, means)
    assert got.shape == (count, len(means))
    assert np.array_equal(got[0], _poisson_pmf(np.array([k0]), means)[0])
    for col, mean in enumerate(means):
        alone = _poisson_block(k0, count, np.array([mean]))[:, 0]
        assert np.array_equal(got[:, col], alone)
    assert np.all(got[:, 0] == (1.0 if k0 == 0 else 0.0) * (
        np.arange(count) == 0))


def test_uniformized_rows_memory_does_not_grow_with_horizon():
    # two states, 0 -> 1 at rate a and 1 -> 0 at rate b: the occupation of
    # state 1 from state 0 is a/(a+b) (1 - exp(-(a+b) t)); L t reaches 2e4,
    # where weights for every k <= K at once would take 34 MB
    import tracemalloc
    a, b = 1.0, 0.5
    Q = sp.csr_matrix(np.array([[-a, b], [a, -b]]))
    t_grid = np.concatenate([np.linspace(0.0, 5.0, 100),
                             np.linspace(5.0, 2e4, 100)])
    tracemalloc.start()
    try:
        got = collect_rows(Q, np.array([1.0, 0.0]),
                               np.array([[0.0], [1.0]]), t_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = a / (a + b) * -np.expm1(-(a + b) * t_grid)
    assert np.abs(got[:, 0] - want).max() < 1e-10
    assert peak < 4e6


def test_poisson_cutoff_equals_the_search_from_zero():
    # the reference is scipy's upper tail P(X > k) = pdtrc(k, mean), which
    # falls with k: the first k from zero with a tail <= 1e-16 is the one
    # whose tail is <= 1e-16 while the tail at k - 1 is not
    from scipy.special import pdtrc
    means = np.r_[0.0, np.geomspace(1e-6, 1e6, 2000),
                  np.linspace(0.0, 100.0, 1501), np.linspace(0.0, 1e6, 41)]
    got = np.array([_poisson_cutoff(mean) for mean in means])
    first = (got == 0) | (pdtrc(got - 1, means) > 1e-16)
    bad = ~((pdtrc(got, means) <= 1e-16) & first)
    assert not bad.any(), means[bad][:5]


def test_uniformized_rows_refuses_too_many_jumps():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    p0, obs = np.array([1.0, 0.0]), np.eye(2)
    collect_rows(Q, p0, obs, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=r"exit rate 1 x time 2e\+08 = "
                                         r"2e\+08 expected jumps is too "
                                         r"large to stream"):
        collect_rows(Q, p0, obs, np.array([0.0, 2e8]))


def test_mean_occupancy_exact_matches_full_expm():
    n = 9
    spec = mv_lindblads(n)[1]
    bits0 = mv_worst_consensus_input(n)
    t_grid = np.linspace(0.0, 3.0 * n, 7)
    rng = np.random.default_rng(5)
    occ, method = mean_occupancy(spec, bits0, t_grid, 10, rng, 40_000)
    assert method == "diagonal-exact"
    Q = diagonal_rate_matrix(spec).toarray()
    p0 = np.zeros(2 ** n)
    p0[int("".join(map(str, bits0)), 2)] = 1.0
    bits_of = np.array([[(s >> (n - 1 - j)) & 1 for j in range(n)]
                        for s in range(2 ** n)])
    want = np.array([(expm(Q * t) @ p0) @ bits_of for t in t_grid])
    assert np.abs(occ - want).max() < 1e-10
    size = len(DiagonalDynamics(spec).reachable(bits0)[0])
    _, method = mean_occupancy(spec, bits0, t_grid, 10, rng, size - 1)
    assert method == "gillespie"


def mv_phases(n):
    """(spec, input, grid, reduce) of the spread and consensus phases of
    :func:`mv_worst_case_times`."""
    spread, consensus = mv_lindblads(n)
    bits_a = mv_worst_spread_input(n)
    target = np.flatnonzero(mv_separated_target(bits_a))
    return ((spread, bits_a, np.linspace(0.0, 4.0 * n, 600),
             lambda occ: occ[:, target].sum(axis=1) / len(target)),
            (consensus, mv_worst_consensus_input(n),
             np.linspace(0.0, 3.0 * n, 600),
             lambda occ: occ.sum(axis=1) / n))


def assert_first_crossing_is_crossing_time(spec, bits0, t_grid, reduce,
                                           cap, seed):
    occ, method = mean_occupancy(spec, bits0, t_grid, 20,
                                 np.random.default_rng(seed), cap)
    want = crossing_time(t_grid, reduce(occ), 0.99)
    tau, got_method = _first_crossing(spec, bits0, t_grid, reduce, 20,
                                      np.random.default_rng(seed), cap)
    assert got_method == method
    assert tau == want or (np.isnan(tau) and np.isnan(want))
    return tau


@pytest.mark.parametrize("n", range(6, 22))
def test_first_crossing_matches_crossing_time_mv(n):
    taus = []
    for spec, bits0, t_grid, reduce in mv_phases(n):
        taus.append(assert_first_crossing_is_crossing_time(
            spec, bits0, t_grid, reduce, 40_000, n))
        # a cap of 3 states sends both phases to Gillespie
        assert_first_crossing_is_crossing_time(spec, bits0, t_grid, reduce,
                                               3, n)
    got = mv_worst_case_times(n, n_traj=20)
    assert [got["tau_spread"], got["tau_consensus"]] == taus
    assert got["method_spread"] == got["method_consensus"] == "diagonal-exact"


@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_first_crossing_matches_crossing_time_random_specs(n, seed):
    rng = np.random.default_rng(seed)
    spec = random_basis_preserving_spec(rng, n)
    bits0 = rng.integers(0, 2, n)
    t_grid = np.linspace(0.0, rng.uniform(0.5, 20.0), 50)
    shift = rng.uniform(0.0, 1.0)
    for cap in (2 ** n, 1):
        assert_first_crossing_is_crossing_time(
            spec, bits0, t_grid, lambda occ: occ.mean(axis=1) + shift, cap,
            seed)


def test_first_crossing_on_the_gillespie_branch_is_crossing_time():
    # a cap of 3 states samples both phases; for one seed the scan reads the
    # one block mean_occupancy collects
    for spec, bits0, t_grid, reduce in mv_phases(9):
        occ, method = mean_occupancy(spec, bits0, t_grid, 30,
                                     np.random.default_rng(7), 3)
        assert method == "gillespie"
        tau, got_method = _first_crossing(spec, bits0, t_grid, reduce, 30,
                                          np.random.default_rng(7), 3)
        assert got_method == "gillespie"
        assert not np.isnan(tau)
        assert tau == crossing_time(t_grid, reduce(occ), 0.99)


# ---------------------------------------------------------------------------
# continuous evolution, methods and examples


def test_diagonal_flow_matches_expm_multiply_n11():
    # 2^11 states; the reference is expm_multiply on the rate matrix
    from scipy.sparse.linalg import expm_multiply
    n, t, samples = 11, 6.0, 8
    spec = fuks_lindblad(FuksParams(0.3), n)
    bits = [0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1]
    out = continuous_evolve(spec, vectorize(basis_density(bits)), t,
                            samples=samples)
    assert out.method_used == "diagonal"
    p0 = np.zeros(2 ** n)
    p0[int("".join(map(str, bits)), 2)] = 1.0
    want = expm_multiply(diagonal_rate_matrix(spec), p0, start=0.0, stop=t,
                         num=samples + 1, endpoint=True)
    ones = np.array([bin(s).count("1") for s in range(2 ** n)])
    assert np.abs(out.trajectory[:, 0]
                  - np.linspace(0.0, t, samples + 1)).max() < 1e-12
    assert np.abs(out.trajectory[:, 1] - want @ ones / n).max() < 1e-10
    assert np.abs(out.trajectory[:, 2] - want @ (n / 2 - ones)).max() < 1e-10
    assert np.abs(out.trajectory[:, 3] - want.sum(axis=1)).max() < 1e-10
    assert np.abs(diag_probabilities(out.final_state) - want[-1]).max() < 1e-10


def test_continuous_t_zero_identity(rng):
    spec = fuks_lindblad(FuksParams(0.3), 3)
    state = vectorize(random_density(rng, 3))
    out = continuous_evolve(spec, state, 0.0)
    assert np.array_equal(out.final_state.amplitudes, state.amplitudes)
    assert out.method_used == "dense" and len(out.trajectory) == 1
    # an explicit method is checked at t = 0 as at any other t
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        continuous_evolve(spec, state, 0.0, method="bogus")


def test_fuks_continuous_steady_state_from_001():
    spec = fuks_lindblad(FuksParams(0.3), 3)
    out = continuous_evolve(spec, vectorize(basis_density([0, 0, 1])), 200.0,
                            method="dense", samples=8)
    probs = diag_probabilities(out.final_state)
    assert abs(probs[0] - 2 / 3) < 1e-6
    assert abs(probs[7] - 1 / 3) < 1e-6


def test_dephasing_continuous_steady_states():
    spec = dephasing_lindblad(DephasingParams(), 3)
    out = continuous_evolve(spec, vectorize(basis_density([0, 0, 1])), 60.0,
                            method="dense", samples=8)
    probs = diag_probabilities(out.final_state)
    for idx in (1, 2, 4):
        assert abs(probs[idx] - 1 / 3) < 1e-6
    out = continuous_evolve(spec, vectorize(basis_density([0, 1, 1])), 60.0,
                            method="dense", samples=8)
    probs = diag_probabilities(out.final_state)
    for idx in (3, 5, 6):
        assert abs(probs[idx] - 1 / 3) < 1e-6


def test_mixed_width_spec_runs_diagonal_and_diagonal_dynamics_accepts_it():
    # every jump is basis preserving; each move-table row carries the mask
    # of its own jump's support, so the widths may differ
    fuks = fuks_lindblad(FuksParams(0.3), 3)
    mixed = LindbladSpec(3, (), fuks.jumps
                         + ((LocalOperator((0,), SIGMA_MINUS), 0.5),))
    assert is_basis_preserving(mixed)
    assert_same_reachable(mixed, np.array([0, 1, 1]))
    state = vectorize(basis_density([0, 1, 1]))
    out = continuous_evolve(mixed, state, 1.0, samples=2)
    assert out.method_used == "diagonal"
    want = continuous_evolve(mixed, state, 1.0, method="dense", samples=2)
    assert np.abs(out.trajectory - want.trajectory).max() < 1e-12
    assert np.abs(out.final_state.amplitudes
                  - want.final_state.amplitudes).max() < 1e-12


BASIS_PRESERVING = ("fuks", "ml", "mv", "mixed")


def basis_preserving_groups(rng, n, family):
    """Specs of one jump width each, whose jumps together make the drawn
    spec: fuks, ml with random weights, one mv rule, or fuks plus a
    one-site decay."""
    fuks = fuks_lindblad(FuksParams(0.3), n)
    return {
        "fuks": lambda: (fuks,),
        "ml": lambda: (ml_lindblad(MLWeights.from_free(rng.uniform(0, 1, 6)),
                                   n),),
        "mv": lambda: (mv_lindblads(n)[rng.integers(2)],),
        "mixed": lambda: (fuks, LindbladSpec(n, (), ((LocalOperator(
            (int(rng.integers(n)),), SIGMA_MINUS), rng.uniform(0.1, 2.0)),))),
    }[family]()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 5), family=st.sampled_from(BASIS_PRESERVING),
       seed=st.integers(0, 2 ** 16))
def test_basis_preserving_block_runs_diagonal_and_matches_dense(n, family,
                                                                seed):
    rng = np.random.default_rng(seed)
    groups = basis_preserving_groups(rng, n, family)
    spec = LindbladSpec(n, (), sum((g.jumps for g in groups), ()))
    probs = rng.dirichlet(np.ones(2 ** n)) * (rng.random(2 ** n) < 0.3)
    probs[rng.integers(2 ** n)] += 0.1
    amplitudes = np.zeros(4 ** n, dtype=complex)
    amplitudes[diag_indices(n)] = probs / probs.sum()
    state = VecState(n, amplitudes)
    t = rng.uniform(0.1, 3.0)
    out = continuous_evolve(spec, state, t, samples=3)
    assert out.method_used == "diagonal"
    want = continuous_evolve(spec, state, t, method="dense", samples=3)
    assert np.abs(out.trajectory - want.trajectory).max() < 1e-12
    assert np.abs(out.final_state.amplitudes
                  - want.final_state.amplitudes).max() < 1e-12
    # the block's moves are those of the classical rate matrix
    codes, sub = reachable_generator(spec, state.support())
    basis = np.searchsorted(diag_indices(n), codes)
    assert np.array_equal(diag_indices(n)[basis], codes)
    Q = sum(diagonal_rate_matrix(g) for g in groups).toarray()
    off = ~np.eye(len(codes), dtype=bool)
    assert np.abs(sub.toarray()[off]
                  - Q[np.ix_(basis, basis)][off]).max(initial=0.0) <= 1e-12


def test_dephasing_without_hopping_runs_diagonal_from_a_basis_state():
    spec = dephasing_lindblad(DephasingParams(0.0, 0.7), 6)
    state = vectorize(basis_density([1, 1, 0, 1, 0, 0]))
    out = continuous_evolve(spec, state, 5.0, samples=8)
    assert out.method_used == "diagonal"
    want = continuous_evolve(spec, state, 5.0, method="krylov", samples=8)
    assert np.abs(out.trajectory - want.trajectory).max() < 1e-10
    assert np.abs(out.final_state.amplitudes
                  - want.final_state.amplitudes).max() < 1e-10


def test_zero_rate_superposition_jump_keeps_the_diagonal_path():
    fuks = fuks_lindblad(FuksParams(0.3), 3)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    spec = LindbladSpec(3, (), fuks.jumps
                        + ((LocalOperator((0, 1, 2), np.kron(
                            hadamard, np.kron(ID2, ID2))), 0.0),))
    assert is_basis_preserving(spec)
    state = vectorize(basis_density([0, 0, 1]))
    out = continuous_evolve(spec, state, 2.0, samples=4)
    want = continuous_evolve(fuks, state, 2.0, samples=4)
    assert out.method_used == want.method_used == "diagonal"
    assert np.array_equal(out.trajectory, want.trajectory)


def test_auto_method_selection():
    spec = fuks_lindblad(FuksParams(0.3), 3)
    out = continuous_evolve(spec, vectorize(basis_density([0, 0, 1])), 1.0)
    assert out.method_used == "diagonal"
    from conftest import ghz_density
    out = continuous_evolve(spec, vectorize(ghz_density(3)), 1.0)
    assert out.method_used == "dense"
    spec7 = fuks_lindblad(FuksParams(0.3), 7)
    state7 = vectorize(ghz_density(7))
    out = continuous_evolve(spec7, state7, 0.05, samples=1)
    assert out.method_used == "krylov"


def test_sz_conservation_along_trajectories(rng):
    for make in (lambda n: fuks_lindblad(FuksParams(0.3), n),
                 lambda n: dephasing_lindblad(DephasingParams(0.6), n)):
        spec = make(3)
        for _ in range(6):
            state = vectorize(random_density(rng, 3))
            out = continuous_evolve(spec, state, 100.0, method="dense",
                                    samples=16)
            sz = out.trajectory[:, 2]
            assert np.abs(sz - sz[0]).max() < 1e-8
            assert np.abs(out.trajectory[:, 3] - 1).max() < 1e-8


def test_frozen_neighborhood_channel_matches_continuous():
    # exp(damping generator * t) equals the discrete damping channel with
    # p = (1 - e^{-gamma t}) / 2 as 4x4 superoperator matrices
    for gt in np.linspace(0.1, 3.0, 10):
        p = p_from_gamma_tau(gt)
        gen = assemble_lindbladian(decay_spec()).dense()
        cont = expm(gen * gt)
        kraus = fuks_kraus_sets(p)[(0, 0)]
        disc = sum(doubled(K) for K in kraus)
        assert np.abs(cont - disc).max() < 1e-10


def test_gamma_tau_inverse_of_p():
    for p in (0.1, 0.25, 0.4):
        assert abs(p_from_gamma_tau(gamma_p_relation(p)) - p) < 1e-14


# ---------------------------------------------------------------------------
# the reachable set of the initial state


def random_jump_spec(rng, n):
    """Random two-site jumps and a random one-site Hamiltonian: no grading."""
    K = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return LindbladSpec(n, ((LocalOperator((0,), H + H.conj().T), 0.4),),
                        ((LocalOperator((n - 1, 0), K), 0.3),
                         (LocalOperator((1, 2), K.T), 0.2)))


def sector_density(rng, n, counts):
    """Random density supported on basis states whose popcount is in
    ``counts``, with coherences between those number sectors."""
    keep = np.array([bin(i).count("1") in counts for i in range(2 ** n)])
    rho = random_density(rng, n) * np.outer(keep, keep)
    return rho / np.trace(rho)


SECTOR_SPECS = ("fuks", "dephasing", "dephasing-omega", "random")
SECTOR_STATES = ("basis", "ghz", "random", "sectors")


def sector_spec(rng, n, family):
    return {
        "fuks": lambda: fuks_lindblad(FuksParams(0.3), n),
        "dephasing": lambda: dephasing_lindblad(DephasingParams(0.0, 0.7), n),
        "dephasing-omega": lambda: dephasing_lindblad(
            DephasingParams(1.0, 0.7), n),
        "random": lambda: random_jump_spec(rng, n),
        "ml": lambda: ml_lindblad(published_ml_weights(), n),
        "idle": lambda: LindbladSpec(n),
    }[family]()


def make_sector_case(rng, n, family, kind):
    spec = sector_spec(rng, n, family)
    rho = {
        "basis": lambda: basis_density(rng.integers(0, 2, n)),
        "ghz": lambda: ghz_density(n),
        "random": lambda: random_density(rng, n),
        "sectors": lambda: sector_density(
            rng, n, set(rng.choice(n + 1, size=2, replace=False).tolist())),
    }[kind]()
    return spec, vectorize(rho)


def full_space_action(spec, t, state):
    """The oracle: exp(L t) on the state, by scipy's expm_multiply on the
    whole sparse 4^N generator, which at N = 5 takes milliseconds where the
    dense exponential of every family takes over a second."""
    return expm_multiply(assemble_lindbladian(spec).matrix * t,
                         state.amplitudes)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6),
       family=st.sampled_from(SECTOR_SPECS + ("ml", "idle")),
       kind=st.sampled_from(SECTOR_STATES), seed=st.integers(0, 2 ** 16))
# the support is every index, and the closure of one basis state is
@example(n=3, family="fuks", kind="random", seed=0)
@example(n=3, family="random", kind="basis", seed=0)
def test_reachable_generator_is_the_closed_slice_of_the_assembly(
        n, family, kind, seed):
    rng = np.random.default_rng(seed)
    spec, state = make_sector_case(rng, n, family, kind)
    codes, sub = reachable_generator(spec, state.support())
    gen = assemble_lindbladian(spec).matrix
    want = gen[codes][:, codes]
    assert np.array_equal(codes, np.unique(codes))
    assert set(np.flatnonzero(state.amplitudes)) <= set(codes.tolist())
    assert sub.dtype == want.dtype and sub.shape == want.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(sub, part), getattr(want, part))
    # closed: no stored entry of a reached column lies outside the set
    assert np.isin(gen[:, codes].tocoo().row, codes).all()


def test_closed_blocks_are_window_factors_restricted_as_they_are_read():
    # each block is built only when it is read, so the generator's sum and
    # a step's product hold one term's block at a time
    from qcadc.models import _window
    from qcadc.superop import _closed_blocks, embed_local
    n = 6
    windows = [(local, _window(s, n))
               for _, local, starts in fuks_rule(FuksParams(0.3), n).branches
               for s in starts]
    state = vectorize(basis_density([1, 1, 0, 1, 0, 0]))
    codes, blocks = _closed_blocks(windows, np.flatnonzero(state.amplitudes),
                                   n)
    assert iter(blocks) is blocks
    assert 0 < len(codes) < 4 ** n
    for (local, sites), block in zip(windows, blocks, strict=True):
        want = embed_local(local, sites, n)[codes][:, codes]
        want.sort_indices()
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, part), getattr(want, part))


@settings(max_examples=24, deadline=None)
@given(n=st.integers(3, 5), family=st.sampled_from(SECTOR_SPECS),
       kind=st.sampled_from(SECTOR_STATES), seed=st.integers(0, 2 ** 16))
@example(n=3, family="fuks", kind="random", seed=0)   # every index
def test_reachable_step_matches_full_space_expm(n, family, kind, seed):
    rng = np.random.default_rng(seed)
    spec, state = make_sector_case(rng, n, family, kind)
    t = 0.8
    want = full_space_action(spec, t, state)
    for method, tol in (("dense", 1e-12), ("krylov", 1e-8)):
        got = continuous_evolve(spec, state, t, method=method, samples=2)
        assert got.method_used == method
        assert np.abs(got.final_state.amplitudes - want).max() < tol


def krylov_lengths(monkeypatch):
    import qcadc.evolve as ev
    lengths = []
    kernel = ev.krylov_expmv

    def recorded(A, v, t, *args, **kwargs):
        lengths.append(len(v))
        return kernel(A, v, t, *args, **kwargs)
    monkeypatch.setattr(ev, "krylov_expmv", recorded)
    return lengths


def test_ungraded_spec_runs_on_the_full_space(monkeypatch, rng):
    lengths = krylov_lengths(monkeypatch)
    spec = random_jump_spec(rng, 3)
    state = vectorize(basis_density([1, 0, 0]))
    continuous_evolve(spec, state, 0.5, method="krylov", samples=3)
    assert lengths == [4 ** 3] * 3


def test_krylov_benchmark_run_stays_on_its_reachable_set(monkeypatch):
    # dephasing N=7 with hopping from two adjacent particles reaches the
    # whole block of ket and bra counts 2: C(7, 2)^2 = 441 of the 16,384
    # entries
    from qcadc.cli import build_spec
    lengths = krylov_lengths(monkeypatch)
    spec = build_spec({"id": "dephasing", "params": {"omega": 1.0}}, 7)
    state = vectorize(basis_density([1, 1, 0, 0, 0, 0, 0]))
    out = continuous_evolve(spec, state, 10.0, samples=8)
    assert out.method_used == "krylov"
    assert lengths == [441] * 8
    assert abs(out.trajectory[-1, 3] - 1) < 1e-12


def refuse_4n_generator(monkeypatch):
    import qcadc.evolve as ev
    import qcadc.superop as so

    def refused(spec):
        raise AssertionError("the 4^N generator was assembled")
    for owner in (ev, so):
        monkeypatch.setattr(owner, "assemble_lindbladian", refused)


@pytest.mark.parametrize("model, n, bits, steps, reached", [
    # the benchmark's discrete command: 8 of the 262,144 doubled indices
    ({"id": "mv-spread"}, 9, "111100000", 6, 8),
    ({"id": "fuks", "params": {"p": 0.3}}, 12, "111111000000", 5, 134),
])
def test_discrete_run_builds_no_4n_step(monkeypatch, model, n, bits, steps,
                                        reached):
    import qcadc.models as md
    import qcadc.superop as so
    from qcadc.cli import build_initial, build_step

    def refused(*args, **kwargs):
        raise AssertionError("a 4^N step was built")
    for name in ("fuks_step", "mv_spread_step", "mv_consensus_step",
                 "fates_step"):
        monkeypatch.setattr(md, name, refused)
    # the one 4^N window factor builder
    monkeypatch.setattr(so, "embed_local", refused)
    sizes = []
    block = md.DiscreteRule.reachable
    monkeypatch.setattr(md.DiscreteRule, "reachable", lambda self, *a: (
        lambda r: sizes.append(len(r[0])) or r)(block(self, *a)))
    rule, state = build_step(model, n), build_initial({"bits": bits}, n)
    out = discrete_run(rule, state, max_steps=steps)
    assert sizes == [reached]
    assert out.time_reached == steps
    assert np.abs(out.trajectory[:, 3] - 1).max() < 1e-12
    assert np.abs(out.trajectory[:, 1] - bits.count("1") / n).max() < 1e-12


@pytest.mark.parametrize("model, initial, reached", [
    ({"id": "fuks"}, {"named": "ghz"}, 4),
])
def test_n10_krylov_run_builds_no_4n_generator(monkeypatch, model, initial,
                                               reached):
    # the reachable set is a sliver of the 4^10 = 1,048,576 indices
    from qcadc.cli import build_initial, build_spec
    refuse_4n_generator(monkeypatch)
    lengths = krylov_lengths(monkeypatch)
    spec, state = build_spec(model, 10), build_initial(initial, 10)
    out = continuous_evolve(spec, state, 10.0, samples=8)
    assert out.method_used == "krylov"
    assert lengths == [reached] * 8
    assert np.abs(out.trajectory[:, 3] - 1).max() < 1e-12
    assert np.abs(out.trajectory[:, 1] - 0.5).max() < 1e-12


def test_n10_dephasing_basis_run_is_diagonal_on_its_reachable_block(
        monkeypatch):
    # without hopping the block is the C(10, 5) = 252 diagonal indices of
    # the state's particle number: a rate matrix, run by uniformization
    import qcadc.evolve as ev
    from qcadc.cli import build_initial, build_spec
    refuse_4n_generator(monkeypatch)
    sizes = []
    monkeypatch.setattr(ev, "reachable_generator", lambda *a: (
        lambda r: sizes.append(len(r[0])) or r)(reachable_generator(*a)))
    spec = build_spec({"id": "dephasing", "params": {"omega": 0.0}}, 10)
    state = build_initial({"bits": "1111100000"}, 10)
    out = continuous_evolve(spec, state, 10.0, samples=8)
    assert out.method_used == "diagonal"
    assert sizes == [252]
    assert np.abs(out.trajectory[:, 3] - 1).max() < 1e-12
    assert np.abs(out.trajectory[:, 1] - 0.5).max() < 1e-12


def test_continuous_runs_never_build_the_whole_ring_rate_matrix(monkeypatch,
                                                                rng):
    import qcadc.evolve as ev

    def refused(spec):
        raise AssertionError("the whole-ring rate matrix was built")
    for name in ("DiagonalDynamics", "diagonal_rate_matrix"):
        monkeypatch.setattr(ev, name, refused)
    spec = fuks_lindblad(FuksParams(0.3), 4)
    basis = vectorize(basis_density([0, 1, 1, 0]))
    for state, method in ((basis, "diagonal"),
                          (vectorize(random_density(rng, 4)), "dense")):
        assert continuous_evolve(spec, state, 2.0,
                                 samples=4).method_used == method
        assert converge_to_fixed_point(spec, state,
                                       horizon=3).method_used == method


# ---------------------------------------------------------------------------
# fixed points


def test_converge_immediately_on_steady_input():
    spec = fuks_lindblad(FuksParams(0.3), 3)
    out = converge_to_fixed_point(spec, vectorize(basis_density([0, 0, 0])),
                                  tol=1e-9, horizon=10)
    assert out.converged
    assert out.time_reached <= 1.0


def test_converge_flags_horizon_exceeded():
    spec = fuks_lindblad(FuksParams(0.1), 3)
    out = converge_to_fixed_point(spec, vectorize(basis_density([0, 0, 1])),
                                  tol=1e-14, horizon=2)
    assert not out.converged


def test_converge_runs_ceil_of_the_horizon_in_unit_steps():
    spec = fuks_lindblad(FuksParams(0.1), 3)
    out = converge_to_fixed_point(spec, vectorize(basis_density([0, 0, 1])),
                                  tol=1e-14, horizon=2.5)
    assert not out.converged
    assert out.time_reached == 3.0
    assert out.trajectory[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("horizon", [np.inf, np.nan, -5.0])
def test_converge_rejects_bad_horizon(horizon):
    # fuks from 001 converges, so an unchecked infinite horizon would return
    spec = fuks_lindblad(FuksParams(0.3), 3)
    with pytest.raises(ValueError, match="horizon must be finite"):
        converge_to_fixed_point(spec, vectorize(basis_density([0, 0, 1])),
                                horizon=horizon)


def test_converge_diagonal_markov_preserves_sz():
    spec = fuks_lindblad(FuksParams(0.3), 4)
    state = vectorize(basis_density([0, 1, 1, 0]))
    out = converge_to_fixed_point(spec, state, tol=1e-9, horizon=50 * 16)
    assert out.converged and out.method_used == "diagonal"
    sz = out.trajectory[:, 2]
    assert np.abs(sz - sz[0]).max() < 1e-8


def test_converge_tests_its_reachable_block_not_the_4n_vector(monkeypatch):
    sizes = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, *args, **kwargs: (
        sizes.append(np.size(x)) or norm(x, *args, **kwargs)))
    spec = fuks_lindblad(FuksParams(0.3), 4)
    out = converge_to_fixed_point(spec, vectorize(basis_density([0, 1, 1, 0])),
                                  tol=1e-9, horizon=200)
    assert out.converged and out.method_used == "diagonal"
    assert len(sizes) == out.time_reached       # one test per unit step
    assert max(sizes) < 4 ** 4


def test_diagonal_converge_streams_its_horizon_in_passes(monkeypatch):
    import qcadc.evolve as ev
    Q = sp.csr_matrix(np.array([[-1.0, 2.0], [1.0, -2.0]]))
    p0 = np.array([1.0, 0.0])
    want = np.array([expm(Q.toarray() * k) @ p0 for k in range(1, 11)])
    single = np.array(list(ev._uniformized_flow(Q, p0, 1.0, 10, False)))
    assert np.abs(single - want).max() < 1e-13
    # exit rate 2: a budget of 7 jumps takes 3 unit steps a pass
    monkeypatch.setattr(ev, "_MAX_JUMPS", 7.0)
    lengths = []
    blocks = ev._uniformized_blocks
    monkeypatch.setattr(ev, "_uniformized_blocks", lambda Q, p0, obs, t: (
        lengths.append(len(t)) or blocks(Q, p0, obs, t)))
    got = np.array(list(ev._uniformized_flow(Q, p0, 1.0, 10, True)))
    assert lengths == [3, 3, 3, 1]
    assert np.abs(got - want).max() < 1e-13
    # a continuous run keeps its single pass, and its refusal
    with pytest.raises(ValueError, match="x time 10 = 20 expected jumps is "
                                         "too large to stream"):
        list(ev._uniformized_flow(Q, p0, 1.0, 10, False))


def test_converge_builds_its_propagator_once(monkeypatch, rng):
    # one block, one propagator: a dense expm, or one uniformization pass
    # over every unit time
    import qcadc.evolve as ev
    calls = {"reachable_generator": 0, "expm": 0, "_uniformized_blocks": 0}

    def counted(name):
        fn = getattr(ev, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ev, name, counted(name))
    spec = fuks_lindblad(FuksParams(0.1), 3)
    out = converge_to_fixed_point(spec, vectorize(random_density(rng, 3)),
                                  tol=1e-14, horizon=5)
    assert out.time_reached == 5 and not out.converged
    assert out.method_used == "dense"
    assert calls == {"reachable_generator": 1, "expm": 1,
                     "_uniformized_blocks": 0}
    out = converge_to_fixed_point(spec, vectorize(basis_density([0, 0, 1])),
                                  tol=1e-14, horizon=5)
    assert out.time_reached == 5 and not out.converged
    assert out.method_used == "diagonal"
    assert calls == {"reachable_generator": 2, "expm": 1,
                     "_uniformized_blocks": 1}


def test_crossing_time():
    t = np.linspace(0, 10, 11)
    v = t / 10
    assert crossing_time(t, v, 0.55) == 6.0
    assert np.isnan(crossing_time(t, v, 2.0))


# every kind of run, each as (make the rule or spec, run it)
BLOCK_RUNS = {
    "discrete fuks": (lambda n: fuks_rule(FuksParams(0.3), n),
                      lambda rule, s: discrete_run(rule, s, 4)),
    "discrete mv-spread": (lambda n: mv_rule("spread", n),
                           lambda rule, s: discrete_run(rule, s, 4)),
    "discrete fates": (lambda n: fates_rule(0.4, n),
                       lambda rule, s: discrete_run(rule, s, 4)),
    **{f"continuous {method}": (
        lambda n: fuks_lindblad(FuksParams(0.3), n),
        lambda spec, s, method=method: continuous_evolve(
            spec, s, 2.0, method=method, samples=3))
       for method in ("auto", "dense", "krylov")},
    "continuous dephasing dense": (
        lambda n: dephasing_lindblad(DephasingParams(1.0), min(n, 5)),
        lambda spec, s: continuous_evolve(spec, s, 1.0, method="dense",
                                          samples=3)),
    "continuous dephasing krylov": (
        lambda n: dephasing_lindblad(DephasingParams(1.0), min(n, 5)),
        lambda spec, s: continuous_evolve(spec, s, 1.0, method="krylov",
                                          samples=3)),
    "converge": (lambda n: fuks_lindblad(FuksParams(0.3), n),
                 lambda spec, s: converge_to_fixed_point(
                     spec, s, tol=1e-6, horizon=40.0)),
}


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(BLOCK_RUNS)), size=st.integers(3, 7),
       start=st.sampled_from(["bits", "ghz"]), seed=st.integers(0, 2 ** 16))
@example(kind="continuous dephasing krylov", size=5, start="bits", seed=1)
@example(kind="converge", size=6, start="ghz", seed=0)
def test_block_state_runs_match_4n_state_runs_bit_for_bit(kind, size, start,
                                                          seed):
    # a run from the block state the CLI builds (its 1 or 4 codes) and one
    # from the same state on all 4^N indices: the same trajectory, alpha
    # and beta, and final vector once scattered, to the bit
    from qcadc.cli import build_initial
    from qcadc.observables import project_alpha_beta
    make, run_it = BLOCK_RUNS[kind]
    model = make(3 * (1 + size % 2) if "mv" in kind else size)
    n = model.n_sites
    bits = "".join(map(str, np.random.default_rng(seed).integers(0, 2, n)))
    block = build_initial({"bits": bits} if start == "bits"
                          else {"named": start}, n)
    assert len(block.codes) == (1 if start == "bits" else 4)
    got, want = run_it(model, block), run_it(model, block.full())
    assert got.method_used == want.method_used
    if kind == "continuous auto" and start == "bits":
        assert got.method_used == "diagonal"
    assert (got.time_reached, got.converged) == (want.time_reached,
                                                 want.converged)
    assert got.trajectory.shape == want.trajectory.shape
    assert _bits(got.trajectory) == _bits(want.trajectory)
    assert want.final_state.codes is None
    # complex, as the diagonal path's real rows read as complex ones
    assert got.final_state.amplitudes.dtype == complex
    assert want.final_state.amplitudes.dtype == complex
    a, b = (project_alpha_beta(r.final_state) for r in (got, want))
    assert (_bits(a.alpha), _bits(a.beta)) == (_bits(b.alpha), _bits(b.beta))
    assert (_bits(got.final_state.full().amplitudes)
            == _bits(want.final_state.amplitudes))
