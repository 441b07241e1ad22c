"""Signed-fidelity cost over the eight-jump weight family and a multistart
derivative-free search.

The cost of a weight vector sums, over a small labelled training set of
basis configurations, the signed overlaps of the evolved state with the two
uniform target states at horizon tau = 10 N^2.  A perfectly classifying
generator would score -1 per training pair.  The weighted jump family is
basis preserving, so every evaluation runs on the 2^N classical restriction.
That rate matrix is linear in the six free weights, Q(w) = sum_k w_k Q_k:
the moves of each Q_k are derived once per ring size from the engine's
diagonal restriction and cached, Q(w) is scattered from them, and one
exponential per ring size serves every training pair of that size.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .evolve import DiagonalDynamics, _code_of, _uniformized_blocks
from .models import MLWeights, ml_lindblad

__all__ = [
    "TrainingPair", "TrainingSet", "default_training_set", "StateScore",
    "ml_cost", "per_state_scores", "optimize_weights", "truncate_weights",
    "ml_rate_matrix", "ml_worst_case_time",
]


@dataclass(frozen=True)
class TrainingPair:
    bits: tuple[int, ...]
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if set(self.bits) - {0, 1}:
            raise ValueError(f"bits must be 0/1, got {self.bits}")


@dataclass(frozen=True)
class TrainingSet:
    pairs: tuple[TrainingPair, ...]

    def __post_init__(self):
        # an empty set is falsy, so ``tset or default_training_set()``
        # would silently swap it for the default
        if not self.pairs:
            raise ValueError("a training set needs at least one pair")

    def __len__(self):
        return len(self.pairs)


def default_training_set() -> TrainingSet:
    """The eleven labelled configurations on four and five sites."""
    raw = [
        ((0, 0, 0, 0), 0),
        ((1, 0, 0, 0), 0),
        ((1, 0, 1, 1), 1),
        ((1, 0, 0, 0, 0), 0),
        ((1, 1, 0, 0, 0), 0),
        ((1, 0, 1, 0, 0), 0),
        ((1, 1, 0, 1, 1), 1),
        ((1, 1, 1, 0, 0), 1),
        ((1, 0, 1, 1, 0), 1),
        ((1, 0, 1, 0, 1), 1),
        ((1, 1, 1, 1, 1), 1),
    ]
    return TrainingSet(tuple(TrainingPair(b, y) for b, y in raw))


_XATOL = 1e-4                 # simplex tolerance, in weight and in cost
_MAXITER = 2000               # simplex iterations per start
_WORST_DT = 0.5               # time step of the worst-case grid
_WORST_T_MAX = 800.0          # the grid ends here
_WORST_THRESHOLD = 0.99       # all-ones weight at which an input is done


def default_horizon(n_sites: int) -> float:
    return 10.0 * n_sites ** 2


@dataclass(frozen=True)
class StateScore:
    bits: tuple[int, ...]
    label: int
    f_zero: float        # weight on the all-zeros target
    f_one: float         # weight on the all-ones target
    summand: float
    predicted: int

    @property
    def misclassified(self) -> bool:
        return self.predicted != self.label


@lru_cache(maxsize=None)
def _unit_moves(n_sites: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Off-diagonal moves (dst, src, coef) of each free weight's generator.

    Entry k holds the moves of the rate matrix with free weight k set to one
    and the others to zero, read from the engine's diagonal restriction.
    """
    out = []
    for k in range(6):
        unit = MLWeights.from_free(tuple(float(i == k) for i in range(6)))
        Q = DiagonalDynamics(ml_lindblad(unit, n_sites)).rate_matrix().tocoo()
        off = Q.row != Q.col
        moves = (Q.row[off], Q.col[off], Q.data[off])
        for a in moves:
            a.flags.writeable = False
        out.append(moves)
    return tuple(out)


def ml_rate_matrix(weights: MLWeights, n_sites: int) -> np.ndarray:
    """Dense classical generator Q(w) = sum_k w_k Q_k of the weight family.

    Equal to ``diagonal_rate_matrix(ml_lindblad(weights, n_sites))`` to the
    bit: every move belongs to exactly one weight, and the columns are
    summed in the same row order.
    """
    dim = 2 ** n_sites
    off = np.zeros((dim, dim))
    for w, (dst, src, coef) in zip(weights.free, _unit_moves(n_sites)):
        off[dst, src] = w * coef
    return off - np.diag(off.sum(axis=0))


def per_state_scores(weights: MLWeights, tset: TrainingSet | None = None,
                     horizon_rule=default_horizon) -> list[StateScore]:
    tset = tset or default_training_set()
    props: dict[int, np.ndarray] = {}
    out = []
    for pair in tset.pairs:
        n = len(pair.bits)
        tau = float(horizon_rule(n))
        if n not in props:
            props[n] = expm(ml_rate_matrix(weights, n) * tau)
        p = props[n][:, _code_of(pair.bits)]   # the law at tau from s
        f0, f1 = float(p[0]), float(p[-1])
        summand = (-1) ** (1 - pair.label) * f0 + (-1) ** pair.label * f1
        predicted = 1 if f1 > f0 else 0
        out.append(StateScore(pair.bits, pair.label, f0, f1,
                              float(summand), predicted))
    return out


def ml_cost(weights: MLWeights, tset: TrainingSet | None = None,
            horizon_rule=default_horizon) -> float:
    """Signed-fidelity sum; minimum is minus the training-set size."""
    return float(sum(s.summand
                     for s in per_state_scores(weights, tset, horizon_rule)))


def truncate_weights(weights: MLWeights) -> MLWeights:
    """Reporting convention: keep the first three decimals."""
    return MLWeights(tuple(float(np.floor(x * 1000) / 1000)
                           for x in weights.w))


def ml_worst_case_time(weights: MLWeights, n_sites: int
                       ) -> tuple[float, tuple[int, ...]]:
    """Slowest majority-sector input to reach the all-ones target.

    An input is done at the first time of the grid 0.5, 1, ..., 800 at
    which its all-ones weight, (exp(Q^T t) e_all-ones)[s] from input s,
    exceeds 0.99 (RuntimeError if one is not): one backward pass of
    :func:`evolve._uniformized_blocks` with Q^T times every input at once.
    """
    dim = 2 ** n_sites
    majority = np.flatnonzero([bin(s).count("1") > n_sites / 2
                               for s in range(dim)])
    Q = DiagonalDynamics(ml_lindblad(weights, n_sites)).rate_matrix()
    p0 = np.zeros(dim)
    p0[-1] = 1.0
    grid = _WORST_DT * np.arange(1, int(_WORST_T_MAX / _WORST_DT) + 1)
    taus = np.full(len(majority), np.nan)
    for idx, rows in _uniformized_blocks(
            Q.T.tocsr(), p0, sp.identity(dim, format="csc")[:, majority],
            grid):
        for i, row in zip(idx, rows):
            taus[np.isnan(taus) & (row > _WORST_THRESHOLD)] = grid[i]
        if not np.isnan(taus).any():
            break
    else:
        raise RuntimeError(f"{int(np.isnan(taus).sum())} majority inputs "
                           f"unconverged by t={_WORST_T_MAX}")
    worst = int(majority[np.argmax(taus)])
    bits = tuple((worst >> (n_sites - 1 - i)) & 1 for i in range(n_sites))
    return float(taus.max()), bits


def _nelder_mead(f, x0: np.ndarray, tol: float, maxiter: int
                 ) -> tuple[np.ndarray, float]:
    """Minimize f from x0 by the Nelder-Mead simplex (Comput. J. 7:308).

    Step for step the method of scipy.optimize.minimize(method=
    "Nelder-Mead") with xatol = fatol = tol and the given maxiter, which
    this replaces so that no command imports scipy.optimize: the same
    initial simplex, coefficients (reflection 1, expansion 2, contraction
    1/2, shrink 1/2), ordering and stopping rule, written in the same
    floating-point operations, so the iterates and the number of calls of
    f are the same.  Returns the best vertex and min(fsim).
    """
    n = len(x0)
    sim = np.repeat(np.asarray(x0, dtype=float)[None, :], n + 1, axis=0)
    for k in range(n):
        x = sim[k + 1, k]
        sim[k + 1, k] = 1.05 * x if x != 0 else 0.00025
    fsim = np.array([f(x) for x in sim])
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= tol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= tol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]                       # reflection
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]               # expansion
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]       # outside contraction
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]       # inside contraction
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])  # shrink
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


@dataclass
class OptimizeResult:
    weights: MLWeights
    cost: float
    restarts_run: int
    evaluations: int


def optimize_weights(tset: TrainingSet | None = None, restarts: int = 8,
                     rng: np.random.Generator | None = None,
                     start: MLWeights | None = None,
                     horizon_rule=default_horizon) -> OptimizeResult:
    """Multistart simplex descent over the six free weights in [0, 1].

    Starts are uniform draws (plus the optional explicit start); iterates
    never leave the box because the objective clips before evaluating.
    Deterministic for a given generator state.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    tset = tset or default_training_set()
    rng = rng or np.random.default_rng(0)
    evaluations = 0

    def objective(free):
        nonlocal evaluations
        evaluations += 1
        w = MLWeights.from_free(np.clip(free, 0.0, 1.0))
        return ml_cost(w, tset, horizon_rule)

    starts = []
    if start is not None:
        starts.append(np.array(start.free, dtype=float))
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, 1.0, size=6))

    best_w, best_c = None, np.inf
    for x0 in starts:
        x, c = _nelder_mead(objective, x0, _XATOL, _MAXITER)
        w = MLWeights.from_free(np.clip(x, 0.0, 1.0))
        if c < best_c:
            best_w, best_c = w, c
    return OptimizeResult(best_w, best_c, len(starts), evaluations)
