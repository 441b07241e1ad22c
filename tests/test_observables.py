"""Expectation values, fixed-point coordinates, diagnostics."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcadc.models import DephasingParams, FuksParams, dephasing_lindblad, fuks_lindblad
from qcadc.evolve import continuous_evolve
from qcadc.observables import (
    AlphaBeta, density_n, expval_sz, herm_residual, physicality_check,
    project_alpha_beta, trace_distance, trace_of,
)
from qcadc.superop import VecState, devectorize, vectorize
from conftest import basis_density, ghz_density, random_density


def test_expval_sz_basis_states():
    assert expval_sz(vectorize(basis_density([0, 0, 0]))) == 1.5
    assert expval_sz(vectorize(basis_density([0, 0, 1]))) == 0.5
    assert abs(expval_sz(vectorize(ghz_density(3)))) < 1e-15


def test_density_all_ones():
    v = vectorize(basis_density([1] * 6))
    assert density_n(v) == 6.0


def test_trace_and_herm_residual(rng):
    rho = random_density(rng, 3)
    v = vectorize(rho)
    assert abs(trace_of(v) - 1) < 1e-12
    assert herm_residual(v) < 1e-12
    broken = VecState(3, v.amplitudes + 0.01 * np.eye(8).reshape(-1)[:64] * 1j)
    assert herm_residual(broken) > 1e-4


def test_project_alpha_beta_worked_examples():
    ab = project_alpha_beta(vectorize(basis_density([0, 0, 0, 1])))
    assert abs(ab.alpha - 0.75) < 1e-12 and abs(ab.beta) < 1e-12
    ab = project_alpha_beta(vectorize(ghz_density(3)))
    assert abs(ab.alpha - 0.5) < 1e-12 and abs(ab.beta - 0.5) < 1e-12
    ab = project_alpha_beta(vectorize(basis_density([1, 1, 1])))
    assert ab.alpha == 0.0 and ab.beta == 0.0


def test_alpha_beta_bound_enforced():
    with pytest.raises(ValueError, match="exceeds"):
        AlphaBeta(0.1, 0.9)


def test_fuks_fixed_point_matches_projection():
    # evolve a basis state to stationarity (t = 50 N^2); the reached state
    # equals the family member at the projected coordinates
    from qcadc.models import steady_family_state
    cases = [(3, [0, 0, 1]), (3, [0, 1, 1]), (3, [1, 0, 1]),
             (4, [0, 1, 1, 0]), (4, [1, 0, 0, 0])]
    for n, bits in cases:
        spec = fuks_lindblad(FuksParams(0.3), n)
        state = vectorize(basis_density(bits))
        ab = project_alpha_beta(state)
        out = continuous_evolve(spec, state, 50.0 * n * n, method="dense",
                                samples=4)
        target = steady_family_state(ab.alpha, ab.beta, n)
        rho = devectorize(out.final_state)
        # bounds the fidelity as well: F >= (1 - D)^2
        assert trace_distance(rho, target) < 1e-6


def test_ghz_projection_reconstructs_itself():
    from qcadc.models import steady_family_state
    ab = project_alpha_beta(vectorize(ghz_density(4)))
    got = steady_family_state(ab.alpha, ab.beta, 4)
    assert np.abs(got - ghz_density(4)).max() < 1e-12


def test_physicality_pass_and_flags(rng):
    good = physicality_check(vectorize(random_density(rng, 3)))
    assert good.ok
    scaled = physicality_check(VecState(
        3, vectorize(random_density(rng, 3)).amplitudes * 1.1))
    assert not scaled.trace_ok and not scaled.ok


def test_block_state_reads_as_its_4n_form():
    # a run from a basis state keeps its state on the doubled indices it
    # reaches; the readers of all 4^N amplitudes read it as that vector
    spec = fuks_lindblad(FuksParams(0.3), 4)
    start = VecState(4, np.ones(1, dtype=complex),
                     np.array([3 * 4 ** 3]))          # |1000><1000|
    block = continuous_evolve(spec, start, 1.0).final_state
    full = continuous_evolve(spec, vectorize(basis_density([1, 0, 0, 0])),
                             1.0).final_state
    assert block.codes is not None and full.codes is None
    assert physicality_check(block).ok
    assert herm_residual(block) == herm_residual(full)
    assert np.array_equal(devectorize(block), devectorize(full))


def test_physicality_mid_trajectory():
    spec = fuks_lindblad(FuksParams(0.3), 4)
    state = vectorize(ghz_density(4))
    out = continuous_evolve(spec, state, 3.0, method="dense", samples=4)
    assert physicality_check(out.final_state).ok


def test_density_invariant_under_number_conserving_flows(rng):
    for spec in (fuks_lindblad(FuksParams(0.3), 3),
                 dephasing_lindblad(DephasingParams(0.5), 3)):
        state = vectorize(random_density(rng, 3))
        out = continuous_evolve(spec, state, 40.0, method="dense", samples=16)
        n_over = out.trajectory[:, 1]
        assert np.abs(n_over - n_over[0]).max() < 1e-8


@given(st.integers(min_value=0, max_value=2 ** 5 - 1))
@settings(max_examples=32, deadline=None)
def test_alpha_counts_zero_fraction(code):
    bits = [(code >> (4 - i)) & 1 for i in range(5)]
    ab = project_alpha_beta(vectorize(basis_density(bits)))
    assert abs(ab.alpha - (5 - sum(bits)) / 5) < 1e-12


def test_trace_distance_limits(rng):
    rho = random_density(rng, 2)
    assert trace_distance(rho, rho) < 1e-12
    a = basis_density([0, 0])
    b = basis_density([1, 1])
    assert abs(trace_distance(a, b) - 1) < 1e-12
