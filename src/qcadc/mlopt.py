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
exponential per ring size serves every training pair of that size.  The
full doubled-space route (``method="dense"``) exists for cross-checking.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .evolve import DiagonalDynamics, continuous_evolve
from .models import MLWeights, ml_lindblad
from .superop import vectorize

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


def _code(bits: tuple[int, ...]) -> int:
    return int("".join(map(str, bits)), 2)


def _dense_endpoints(weights: MLWeights, bits: tuple[int, ...],
                     tau: float) -> tuple[float, float]:
    """Endpoint weights from the full doubled-space evolution."""
    from .observables import diag_probabilities
    n = len(bits)
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    s = _code(bits)
    rho[s, s] = 1.0
    out = continuous_evolve(ml_lindblad(weights, n), vectorize(rho), tau,
                            method="dense", samples=1, record=False)
    probs = diag_probabilities(out.final_state)
    return float(probs[0]), float(probs[-1])


def per_state_scores(weights: MLWeights, tset: TrainingSet | None = None,
                     horizon_rule=default_horizon,
                     method: str = "diagonal") -> list[StateScore]:
    if method not in ("diagonal", "dense"):
        raise ValueError(f"unknown method {method!r}")
    tset = tset or default_training_set()
    props: dict[int, np.ndarray] = {}
    out = []
    for pair in tset.pairs:
        n = len(pair.bits)
        tau = float(horizon_rule(n))
        if method == "dense":
            f0, f1 = _dense_endpoints(weights, pair.bits, tau)
        else:
            if n not in props:
                props[n] = expm(ml_rate_matrix(weights, n) * tau)
            p = props[n][:, _code(pair.bits)]      # the law at tau from s
            f0, f1 = float(p[0]), float(p[-1])
        summand = (-1) ** (1 - pair.label) * f0 + (-1) ** pair.label * f1
        predicted = 1 if f1 > f0 else 0
        out.append(StateScore(pair.bits, pair.label, f0, f1,
                              float(summand), predicted))
    return out


def ml_cost(weights: MLWeights, tset: TrainingSet | None = None,
            horizon_rule=default_horizon, method: str = "diagonal") -> float:
    """Signed-fidelity sum; minimum is minus the training-set size."""
    return float(sum(s.summand
                     for s in per_state_scores(weights, tset, horizon_rule,
                                               method)))


def truncate_weights(weights: MLWeights, digits: int = 3) -> MLWeights:
    """Reporting convention: keep the first ``digits`` decimals."""
    factor = 10 ** digits
    return MLWeights(tuple(float(np.floor(x * factor) / factor)
                           for x in weights.w))


def ml_worst_case_time(weights: MLWeights, n_sites: int, dt: float = 0.5,
                       t_max: float = 800.0, threshold: float = 0.99
                       ) -> tuple[float, tuple[int, ...]]:
    """Slowest majority-sector input to reach the all-ones target.

    An input is done when its all-ones weight exceeds ``threshold``.
    Marches the full classical propagator so every input is timed in one
    pass.
    """
    prop = expm(ml_rate_matrix(weights, n_sites) * dt)
    dim = 2 ** n_sites
    pop = np.array([bin(s).count("1") for s in range(dim)])
    M = np.eye(dim)
    todo = {s for s in range(dim) if pop[s] > n_sites / 2}
    taus: dict[int, float] = {}
    t = 0.0
    while todo and t < t_max:
        M = prop @ M
        t += dt
        hit = {s for s in todo if M[dim - 1, s] > threshold}
        for s in hit:
            taus[s] = t
        todo -= hit
    if todo:
        raise RuntimeError(
            f"{len(todo)} majority inputs unconverged by t={t_max}")
    worst = max(taus, key=taus.get)
    bits = tuple((worst >> (n_sites - 1 - i)) & 1 for i in range(n_sites))
    return taus[worst], bits


@dataclass
class OptimizeResult:
    weights: MLWeights
    cost: float
    restarts_run: int
    evaluations: int
    history: list = field(default_factory=list)


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
    history = []
    for x0 in starts:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": _XATOL, "fatol": _XATOL,
                                "maxiter": 2000})
        w = MLWeights.from_free(np.clip(res.x, 0.0, 1.0))
        c = float(res.fun)
        history.append((w, c))
        if c < best_c:
            best_w, best_c = w, c
    return OptimizeResult(best_w, best_c, len(starts), evaluations, history)
