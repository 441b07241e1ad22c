"""Weight-family cost function and the multistart search."""
import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qcadc.evolve import diagonal_rate_matrix
from qcadc.mlopt import (
    TrainingPair, TrainingSet, _nelder_mead, default_horizon,
    default_training_set, ml_cost, ml_rate_matrix, optimize_weights,
    per_state_scores, truncate_weights,
)
from qcadc.models import MLWeights, ml_lindblad, published_ml_weights

ZERO_W = MLWeights.from_free((0.0,) * 6)

# free weights in [0, 1]; an exact zero switches that jump off
FREE_WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                        min_size=6, max_size=6)


def per_pair_cost(weights):
    """Reference cost: the rate matrix from the spec, one expm per pair."""
    total = []
    for pair in default_training_set().pairs:
        n = len(pair.bits)
        Q = diagonal_rate_matrix(ml_lindblad(weights, n)).toarray()
        p0 = np.zeros(2 ** n)
        p0[int("".join(map(str, pair.bits)), 2)] = 1.0
        p = expm(Q * default_horizon(n)) @ p0
        f0, f1 = float(p[0]), float(p[-1])
        total.append((-1) ** (1 - pair.label) * f0 + (-1) ** pair.label * f1)
    return float(sum(total))


def test_training_set_shape():
    tset = default_training_set()
    assert len(tset) == 11
    assert {len(p.bits) for p in tset.pairs} == {4, 5}
    assert [p.label for p in tset.pairs] == [0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]


def test_cost_frozen_states_all_zero_weights():
    # no dynamics: only the two already-uniform training states contribute
    assert abs(ml_cost(ZERO_W) + 2.0) < 1e-12


def test_cost_published_weights_value_and_misclassification():
    # closed form C = -9 + 4q + 2r: q is the chance that a lone one grows
    # (1000, 10000), r that 10100 reaches all ones, and 11000 scores +1
    pub = published_ml_weights()
    w = pub.w
    q = (w[2] + w[4]) / (w[1] + w[2] + w[4])
    g = w[2] + w[4] + w[6]
    r = (g + 2 * w[1] * q) / (g + 2 * w[1])
    closed = -9 + 4 * q + 2 * r
    # exact once the horizon saturates; at tau = 10 N^2 the slowest N=4
    # transients still add 2.6e-6
    assert abs(ml_cost(pub, horizon_rule=lambda n: 40.0 * n ** 2)
               - closed) < 1e-9
    scores = per_state_scores(pub)
    cost = sum(s.summand for s in scores)
    assert abs(cost - closed) < 1e-5
    mis = [s.bits for s in scores if s.misclassified]
    assert mis == [(1, 1, 0, 0, 0)]


def test_cost_diagonal_and_dense_routes_agree():
    w = published_ml_weights()
    sub = TrainingSet(default_training_set().pairs[:3])   # the N=4 states
    a = ml_cost(w, sub, method="diagonal")
    b = ml_cost(w, sub, method="dense")
    assert abs(a - b) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_rate_matrix_matches_spec_restriction(n):
    rng = np.random.default_rng(n)
    free = rng.uniform(0.0, 1.0, size=6)
    free[[1, 4]] = 0.0
    for w in (published_ml_weights(), ZERO_W, MLWeights.from_free(free),
              MLWeights.from_free(rng.uniform(0.0, 1.0, size=6))):
        want = diagonal_rate_matrix(ml_lindblad(w, n)).toarray()
        assert np.array_equal(ml_rate_matrix(w, n), want)


def test_cost_equals_per_pair_reference():
    for w in (published_ml_weights(), ZERO_W,
              MLWeights.from_free((0.3, 0.0, 0.7, 0.1, 0.0, 0.9))):
        assert ml_cost(w) == per_pair_cost(w)


@given(FREE_WEIGHTS)
@settings(max_examples=40, deadline=None)
def test_cached_generator_property(free):
    w = MLWeights.from_free(free)
    for n in (4, 5):
        want = diagonal_rate_matrix(ml_lindblad(w, n)).toarray()
        assert np.array_equal(ml_rate_matrix(w, n), want)
    assert ml_cost(w) == per_pair_cost(w)


def test_perfect_summand_bounds():
    # every summand lies in [-1, 1]; a perfect classifier would hit -11
    scores = per_state_scores(published_ml_weights())
    assert all(-1 - 1e-9 <= s.summand <= 1 + 1e-9 for s in scores)


def test_truncate_weights():
    w = MLWeights.from_free((0.12345, 0.9999, 0, 0.5, 0, 1.0))
    t = truncate_weights(w)
    assert t.free == (0.123, 0.999, 0.0, 0.5, 0.0, 1.0)


def test_optimizer_descends_from_published_start():
    start = published_ml_weights()
    c0 = ml_cost(start)
    res = optimize_weights(restarts=1, start=start,
                           rng=np.random.default_rng(1))
    assert res.cost <= c0 + 1e-9


def test_optimizer_seeded_run_reaches_good_plateau():
    res = optimize_weights(restarts=4, rng=np.random.default_rng(7),
                           start=published_ml_weights())
    assert res.cost <= -8.5
    assert all(0 <= x <= 1 for x in res.weights.free)


def test_optimizer_validates_restarts():
    with pytest.raises(ValueError, match="restarts"):
        optimize_weights(restarts=0)


def test_worst_case_time_slope_and_reported_value():
    """Worst-case convergence under the published weights grows linearly.

    With the standard generator normalization used throughout this package
    (the one pinned by the damping-channel dictionary gamma*t = -ln(1-2p)),
    the odd-ring population-threshold slope is 17.5 per site.  The widely
    quoted figure for this family, 34.992 +- 0.005, is exactly twice that:
    it corresponds to halving every jump rate (equivalently doubling time),
    which this test records as the reconciliation.
    """
    from qcadc.mlopt import ml_worst_case_time
    w = published_ml_weights()
    taus = {}
    for n in (5, 7, 9):
        tau, worst_bits = ml_worst_case_time(w, n)
        taus[n] = tau
        # worst inputs are maximal alternations with one adjacent pair
        assert sum(worst_bits) == n // 2 + 1
    xs = np.array(sorted(taus))
    ys = np.array([taus[n] for n in xs])
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 17.5) / 17.5 < 0.10
    assert abs(2 * slope - 34.992) / 34.992 < 0.10


def nelder_mead_steps_taken(f, x0):
    """Which commented steps of ``_nelder_mead`` ran on f from x0."""
    lines, first = inspect.getsourcelines(_nelder_mead)
    marks = {first + i: ln.split("# ")[-1].strip()
             for i, ln in enumerate(lines) if "  # " in ln}
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code is _nelder_mead.__code__ and event == "line":
            seen.add(marks.get(frame.f_lineno))
        return tracer

    sys.settrace(tracer)
    try:
        _nelder_mead(f, np.array(x0, dtype=float), 1e-4, 2000)
    finally:
        sys.settrace(None)
    return seen - {None}


def assert_same_descent(f, x0, maxiter=2000):
    """scipy's Nelder-Mead and ``_nelder_mead`` evaluate f at the same
    points in the same order and return the same x and cost."""
    from scipy.optimize import minimize
    at_scipy, at_ours = [], []
    res = minimize(lambda x: at_scipy.append(np.copy(x)) or f(x), x0,
                   method="Nelder-Mead",
                   options={"xatol": 1e-4, "fatol": 1e-4, "maxiter": maxiter})
    x, fun = _nelder_mead(lambda x: at_ours.append(np.copy(x)) or f(x),
                          np.array(x0, dtype=float), 1e-4, maxiter)
    assert np.array_equal(res.x, x) and res.fun == fun
    assert len(at_scipy) == len(at_ours)
    assert all(np.array_equal(a, b) for a, b in zip(at_scipy, at_ours))


def ml_objective(free):
    return ml_cost(MLWeights.from_free(np.clip(free, 0.0, 1.0)))


@pytest.mark.parametrize("start", ["published", 0, 1, 2])
def test_nelder_mead_replica_matches_scipy_on_the_ml_cost(start):
    x0 = (np.array(published_ml_weights().free) if start == "published"
          else np.random.default_rng(start).uniform(0.0, 1.0, size=6))
    assert_same_descent(ml_objective, x0)


def synthetic_problem(seed):
    """A rough, tilted quadratic bowl in 2 to 6 dimensions."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    a = rng.normal(size=(dim, dim))
    centre, bumps = rng.normal(size=dim), rng.uniform(0.0, 2.0, size=dim)

    def f(x):
        y = x - centre
        return float(y @ (a @ a.T + 0.1 * np.eye(dim)) @ y
                     + bumps @ np.abs(np.sin(3.0 * x)))

    x0 = rng.normal(size=dim)
    x0[rng.integers(dim)] = 0.0       # one coordinate starts at zero
    return f, x0


@pytest.mark.parametrize("seed", range(12))
def test_nelder_mead_replica_matches_scipy_on_synthetic_problems(seed):
    assert_same_descent(*synthetic_problem(seed))


@pytest.mark.parametrize("seed", range(6))
def test_nelder_mead_replica_breaks_ties_as_scipy_does(seed):
    # a cost rounded to steps of 0.25 ties often, as the ML cost does
    # where its clipped weights leave the box
    f, x0 = synthetic_problem(seed)
    assert_same_descent(lambda x: np.floor(4.0 * f(x)) / 4.0, x0)


@pytest.mark.parametrize("maxiter", [1, 2, 3, 10, 40])
def test_nelder_mead_replica_stops_at_maxiter_as_scipy_does(maxiter):
    assert_same_descent(*synthetic_problem(0), maxiter=maxiter)


def test_synthetic_problems_take_every_kind_of_step():
    steps = set().union(*(nelder_mead_steps_taken(*synthetic_problem(s))
                          for s in range(12)))
    assert steps >= {"reflection", "expansion", "outside contraction",
                     "inside contraction", "shrink"}
