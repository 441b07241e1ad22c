"""Concrete channel and generator constructions for every ring model.

Five families live here:

* the probabilistic traffic/diffusion rule with neighborhood-conditioned
  amplitude damping/pumping and stochastic bit flips ("fuks"),
* the bond-projector dephasing model with an optional XX+YY hopping
  Hamiltonian ("dephasing"),
* the majority-voting pair: a popcount-preserving spreading map and a
  cluster-growing consensus map, each with a discrete three-phase partition
  and a continuous generator ("mv"),
* the stochastic traffic-184 / majority-232 mixture that fails majority
  voting ("fates"),
* the eight-jump weighted family used by the cost-function search ("ml").

Every discrete rule is one list of three-site Kraus operators: the center
rules (fuks, fates) condition a center set on the neighbors through
projectors, ``kron(P_a, K, P_b)``, and a majority-voting rule is its jumps
plus the passive remainder ``I - sum(J^dag J)``, the same jumps its
continuous generator puts on every window.  Its local channel is
``sum(doubled(K))`` and its classical table is probed from the same list
(see ``classical``).  A :class:`DiscreteRule` describes a step once, by its
branches: each a weight, a local channel and the window starts in the order
that :func:`center_windows` or :func:`mv_windows` gives (fates has the two
branches 184 and 232, the others one).  :meth:`DiscreteRule.matrix`
multiplies the window factors that :func:`superop._closed_blocks` gives,
one path for every step: on the codes a run reaches, closed under every
window (:meth:`DiscreteRule.reachable`, which discrete runs use), or, when
that closure is every doubled index, on all 4^N of them (the ``*_step``
builders, which spectra, the selftest and the tests use).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .config import TOL
from .superop import (
    ID2, P0, P1, PAULI_X, PAULI_Y, SIGMA_MINUS, SIGMA_PLUS,
    LindbladSpec, LocalOperator, SuperOp, _closed_blocks, doubled,
    kraus_completeness_residual,
)
# not called; perfbench/tracer.py patches this name and fails without it
from .superop import embed_local  # noqa: F401

__all__ = [
    "FuksParams", "DephasingParams", "MLWeights",
    "fuks_kraus_sets", "fuks_neighborhood_channel", "center_windows",
    "DiscreteRule", "fuks_rule", "fuks_step", "fuks_lindblad",
    "dephasing_lindblad", "rule_kraus", "MV_PHASE_ORDER", "mv_windows",
    "mv_rule", "mv_spread_step", "mv_consensus_step", "mv_lindblads",
    "mv_layer_counts", "mv_pad", "fates_kraus_sets", "fates_rule",
    "fates_step", "ml_lindblad", "published_ml_weights",
    "steady_family_state", "BELL_PLUS", "BELL_MINUS",
]

_b = np.zeros(4, dtype=complex)
_b[1] = 1 / np.sqrt(2)
_b[2] = 1 / np.sqrt(2)
BELL_PLUS = np.outer(_b, _b.conj())
_b = np.zeros(4, dtype=complex)
_b[1] = 1 / np.sqrt(2)
_b[2] = -1 / np.sqrt(2)
BELL_MINUS = np.outer(_b, _b.conj())
del _b

P00 = np.kron(P0, P0)
P11 = np.kron(P1, P1)


@dataclass(frozen=True)
class FuksParams:
    """p: per-step flip scale in (0, 1/2]; gamma: continuous decay rate."""

    p: float = 0.3
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.p <= 0.5:
            raise ValueError(f"p must lie in (0, 0.5], got {self.p}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class DephasingParams:
    omega: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class MLWeights:
    """Eight jump weights; the first and last stay zero so the uniform
    configurations remain steady."""

    w: tuple[float, ...]

    def __post_init__(self):
        if len(self.w) != 8:
            raise ValueError(f"expected 8 weights, got {len(self.w)}")
        if any(x < 0 for x in self.w):
            raise ValueError("weights must be non-negative")
        if self.w[0] != 0.0 or self.w[7] != 0.0:
            raise ValueError("w1 and w8 must be zero for the classification family")

    @classmethod
    def from_free(cls, free: "np.ndarray | tuple") -> "MLWeights":
        """Build from the six free weights (w2..w7)."""
        free = tuple(float(x) for x in free)
        if len(free) != 6:
            raise ValueError(f"expected 6 free weights, got {len(free)}")
        return cls((0.0, *free, 0.0))

    @property
    def free(self) -> tuple[float, ...]:
        return self.w[1:7]


def published_ml_weights() -> MLWeights:
    """The reported three-decimal solution of the weight search."""
    return MLWeights((0.0, 1.000, 0.043, 0.0, 0.040, 0.0, 0.075, 0.0))


# ---------------------------------------------------------------------------
# three-site Kraus lists and their window order


def _kron3(left: np.ndarray, center: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(left, center), right)


def fuks_kraus_sets(p: float) -> dict[tuple[int, int], list[np.ndarray]]:
    """Kraus set per (left, right) neighborhood, acting on the center qubit."""
    return {
        (0, 0): [P0 + np.sqrt(1 - 2 * p) * P1, np.sqrt(2 * p) * SIGMA_MINUS],
        (0, 1): [np.sqrt(1 - p) * ID2, np.sqrt(p) * PAULI_X],
        (1, 0): [np.sqrt(1 - p) * ID2, np.sqrt(p) * PAULI_X],
        (1, 1): [P1 + np.sqrt(1 - 2 * p) * P0, np.sqrt(2 * p) * SIGMA_PLUS],
    }


def _center_kraus(kraus_by_nbhd: dict[tuple[int, int], list[np.ndarray]]
                  ) -> list[np.ndarray]:
    """Three-site Kraus list kron(P_a, K, P_b) of a center rule: the center
    set K of each (left, right) neighborhood, read through projectors."""
    proj = {0: P0, 1: P1}
    ops = []
    for (a, b), kraus in kraus_by_nbhd.items():
        if kraus_completeness_residual(kraus) > TOL.channel:
            raise ValueError(f"neighborhood {(a, b)} Kraus set is not complete")
        ops += [_kron3(proj[a], K, proj[b]) for K in kraus]
    return ops


def fuks_neighborhood_channel(p: float) -> np.ndarray:
    return sum(doubled(K) for K in _center_kraus(fuks_kraus_sets(p)))


@lru_cache(maxsize=None)
def center_windows(n_sites: int, phase_order: str) -> tuple[int, ...]:
    """Leftmost site of every 3-site window of a center rule, in application
    order: all even 1-based centers, then all odd ones ("even_first"), or
    the reverse ("odd_first"); each window reads one site either side.

    Within a phase, centers at ring distance >= 2 commute; for odd N the
    wrap pair (site N, site 1) does not, so the application order inside a
    phase is pinned to descending site index.  With that order the single
    isolated-one worked example relaxes onto the continuum fixed point.
    """
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites, got {n_sites}")
    if phase_order not in ("even_first", "odd_first"):
        raise ValueError(f"unknown phase_order {phase_order!r}")
    # 0-based site j is the 1-based center j + 1
    first = 1 if phase_order == "even_first" else 0
    return tuple((j - 1) % n_sites for parity in (first, 1 - first)
                 for j in range(n_sites - 1, -1, -1) if j % 2 == parity)


def _window(start: int, n_sites: int) -> tuple[int, int, int]:
    return start, (start + 1) % n_sites, (start + 2) % n_sites


def _product(factors: Iterable[sp.csr_matrix]) -> sp.csr_matrix:
    """``... @ factors[1] @ factors[0]``, indices sorted: the first factor
    acts first."""
    factors = iter(factors)
    mat = next(factors)
    for factor in factors:
        mat = factor @ mat
    mat.sort_indices()
    return mat


@dataclass(frozen=True, eq=False)
class DiscreteRule:
    """A discrete rule's step: the weighted sum of its branches, each a
    weight, a 3-site local channel and the window starts it is applied at,
    first start first.  A rule of one branch is its product alone, with no
    weight applied."""

    n_sites: int
    branches: tuple[tuple[float, np.ndarray, tuple[int, ...]], ...]

    def matrix(self, blocks: Iterator[sp.csr_matrix]) -> sp.csr_matrix:
        """The step from ``blocks``: one window factor per window start,
        branch by branch, on the codes :meth:`reachable` restricts them to
        (every doubled index, or the closure of a support).

        On those codes each block is the 4^N window factor restricted to
        them, so the blocks multiply, one by one, to the restricted product
        with the same summands in the same order.
        """
        parts = [_product(islice(blocks, len(starts)))
                 for _, _, starts in self.branches]
        if len(parts) == 1:
            return parts[0]
        mat = self.branches[0][0] * parts[0]
        for (weight, _, _), part in zip(self.branches[1:], parts[1:]):
            mat = mat + weight * part
        mat = mat.tocsr()
        mat.sort_indices()
        return mat

    def step(self) -> SuperOp:
        """The step on the 4^N doubled space: :meth:`reachable` from every
        index."""
        _, mat = self.reachable(np.arange(4 ** self.n_sites))
        return SuperOp(self.n_sites, mat, "step")

    def reachable(self, support: np.ndarray, cap: float = np.inf
                  ) -> tuple[np.ndarray | None, sp.csr_matrix]:
        """``(codes, sub)``: the closure of the doubled indices ``support``
        under every window's local channel, ascending, and the step on it,
        equal to ``step().matrix[codes][:, codes]`` bit for bit.  A set
        closed under every window is closed under their products and sums,
        so the step keeps a vector on ``codes``.  When the closure is every
        index, ``codes`` is None and ``sub`` is the 4^N step
        (:func:`superop._closed_blocks` makes that choice, and refuses a
        closure of more than ``cap`` indices)."""
        windows = [(local, _window(s, self.n_sites))
                   for _, local, starts in self.branches for s in starts]
        codes, blocks = _closed_blocks(windows, support, self.n_sites, cap)
        return codes, self.matrix(blocks)


def _rule_local(rule: int | str) -> np.ndarray:
    """The local channel of a :func:`rule_kraus` rule."""
    return sum(doubled(K) for K in rule_kraus(rule))


def fuks_rule(params: FuksParams, n_sites: int,
              phase_order: str = "even_first") -> DiscreteRule:
    """One full discrete update (both center phases) of the probabilistic
    rule."""
    return DiscreteRule(n_sites, ((1.0, fuks_neighborhood_channel(params.p),
                                   center_windows(n_sites, phase_order)),))


def fuks_step(params: FuksParams, n_sites: int,
              phase_order: str = "even_first") -> SuperOp:
    """:func:`fuks_rule` on the 4^N doubled space."""
    return fuks_rule(params, n_sites, phase_order).step()


def fuks_lindblad(params: FuksParams, n_sites: int) -> LindbladSpec:
    """Six neighborhood-conditioned jumps per site, rates gamma and gamma/2."""
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites, got {n_sites}")
    g = params.gamma
    jumps = []
    for j in range(n_sites):
        sites = ((j - 1) % n_sites, j, (j + 1) % n_sites)
        def op(left, center, right):
            return LocalOperator(sites, np.kron(np.kron(left, center), right))
        jumps += [
            (op(P0, SIGMA_MINUS, P0), g),
            (op(P0, SIGMA_MINUS, P1), g / 2),
            (op(P0, SIGMA_PLUS, P1), g / 2),
            (op(P1, SIGMA_MINUS, P0), g / 2),
            (op(P1, SIGMA_PLUS, P0), g / 2),
            (op(P1, SIGMA_PLUS, P1), g),
        ]
    return LindbladSpec(n_sites, (), tuple(jumps))


def dephasing_lindblad(params: DephasingParams, n_sites: int) -> LindbladSpec:
    """Per bond: four projector jumps (00, Bell+, Bell-, 11) and optionally
    the XX+YY hopping Hamiltonian."""
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites, got {n_sites}")
    ham = []
    jumps = []
    hop = np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)
    for j in range(n_sites):
        sites = (j, (j + 1) % n_sites)
        for proj in (P00, BELL_PLUS, BELL_MINUS, P11):
            jumps.append((LocalOperator(sites, proj), params.gamma))
        if params.omega != 0.0:
            ham.append((LocalOperator(sites, hop), params.omega))
    return LindbladSpec(n_sites, tuple(ham), tuple(jumps))


# ---------------------------------------------------------------------------
# majority voting: spreading and consensus triples


# A full layer applies the phases in this order in time: the operator
# product (phase 1)(phase 2)(phase 3).
MV_PHASE_ORDER = (3, 2, 1)

# the jumps of each majority-voting rule on one (left, middle, right) window
_MV_JUMPS = {
    "spread": (_kron3(P1, SIGMA_MINUS, SIGMA_PLUS),),      # 110 -> 101
    "consensus": (_kron3(P0, SIGMA_MINUS, P0),             # 010 -> 000
                  _kron3(P1, P1, SIGMA_PLUS),              # 110 -> 111
                  _kron3(SIGMA_PLUS, P1, P1)),             # 011 -> 111
}


def rule_kraus(rule: int | str) -> list[np.ndarray]:
    """Three-site Kraus list of a partitioned rule.

    A majority-voting rule ("spread", "consensus") is its jumps plus the
    passive remainder I - sum J^dag J; a branch of the traffic/majority
    mixture (184, 232) is its center update read through neighbor
    projectors.
    """
    if rule in _MV_JUMPS:
        jumps = [J.copy() for J in _MV_JUMPS[rule]]
        return jumps + [np.eye(8, dtype=complex)
                        - sum(J.conj().T @ J for J in jumps)]
    if rule in (184, 232):
        return _center_kraus(fates_kraus_sets(rule))
    raise ValueError(f"unknown partitioned rule {rule!r}")


def mv_windows(n_sites: int, phase: int | None = None) -> tuple[int, ...]:
    """Leftmost site of every window of a majority-voting sublayer, in
    application order.

    Phase x holds the disjoint triples starting at sites = x-1 mod 3; a
    full layer (phase None) is the phases in :data:`MV_PHASE_ORDER`, so
    phase 3 acts first in time and sublayer counting follows that order.
    """
    if n_sites < 3 or n_sites % 3 != 0:
        raise ValueError(f"triple partition needs n_sites % 3 == 0, got {n_sites}")
    if phase is None:
        return sum((mv_windows(n_sites, x) for x in MV_PHASE_ORDER), ())
    if phase not in (1, 2, 3):
        raise ValueError(f"phase must be 1, 2 or 3, got {phase}")
    return tuple(range(phase - 1, n_sites, 3))


def mv_rule(rule: str, n_sites: int, phase: int | None = None
            ) -> DiscreteRule:
    """A majority-voting rule ("spread" or "consensus") on one sublayer, or
    on a full layer when phase is None."""
    return DiscreteRule(n_sites, ((1.0, _rule_local(rule),
                                   mv_windows(n_sites, phase)),))


def mv_spread_step(n_sites: int, phase: int | None = None) -> SuperOp:
    """Popcount-preserving sublayer (or full layer when phase is None)."""
    return mv_rule("spread", n_sites, phase).step()


def mv_consensus_step(n_sites: int, phase: int | None = None) -> SuperOp:
    """Cluster-growing / isolated-one-deleting sublayer (or full layer)."""
    return mv_rule("consensus", n_sites, phase).step()


def mv_lindblads(n_sites: int) -> tuple[LindbladSpec, LindbladSpec]:
    """Continuous generators of the spreading and consensus dynamics: each
    rule's jumps on every window, at unit rate."""
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites, got {n_sites}")

    def spec(rule: str) -> LindbladSpec:
        return LindbladSpec(n_sites, (), tuple(
            (LocalOperator(((j - 1) % n_sites, j, (j + 1) % n_sites), J), 1.0)
            for j in range(n_sites) for J in _MV_JUMPS[rule]))

    return spec("spread"), spec("consensus")


def mv_layer_counts(n_sites: int) -> tuple[int, int, int]:
    """Worst-case sublayer budget (spread, consensus, total)."""
    if n_sites % 3 != 0:
        raise ValueError(
            f"n_sites={n_sites} is not a multiple of 3; pad the input first")
    tau_a = 4 * (n_sites // 2) - 5
    tau_b = 2 * n_sites // 3
    return tau_a, tau_b, tau_a + tau_b


def mv_pad(bits: str) -> str:
    """Pad to a multiple of three sites without changing the majority.

    Appends "01" (N mod 3 = 1) or "0101" (N mod 3 = 2) at the end of the
    chain; balanced blocks keep the sign of the majority.
    """
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bitstring must be over 0/1, got {bits!r}")
    r = len(bits) % 3
    return bits + {0: "", 1: "01", 2: "0101"}[r]


# ---------------------------------------------------------------------------
# traffic/majority stochastic mixture


def fates_kraus_sets(rule: int) -> dict[tuple[int, int], list[np.ndarray]]:
    """Deterministic center channels of elementary rule 184 or 232."""
    if rule not in (184, 232):
        raise ValueError(f"rule must be 184 or 232, got {rule}")
    ten = [PAULI_X] if rule == 184 else [ID2]
    return {
        (0, 0): [P0, SIGMA_MINUS],
        (0, 1): [ID2],
        (1, 0): ten,
        (1, 1): [P1, SIGMA_PLUS],
    }


def fates_rule(p: float, n_sites: int) -> DiscreteRule:
    """Average map p * step(184) + (1-p) * step(232), each branch a full
    partitioned center update in the odd-first order of
    :func:`center_windows`.

    Odd centers go first because with even-first phases the traffic branch
    pumps the reference seven-site majority input straight to all-ones,
    which contradicts the documented failure of this mixture.

    Trajectory sampling draws one global coin per time step instead; see
    ``classical.fates_classical_trajectory``.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    starts = center_windows(n_sites, "odd_first")
    return DiscreteRule(n_sites, ((p, _rule_local(184), starts),
                                  (1 - p, _rule_local(232), starts)))


def fates_step(p: float, n_sites: int) -> SuperOp:
    """:func:`fates_rule` on the 4^N doubled space."""
    return fates_rule(p, n_sites).step()


# ---------------------------------------------------------------------------
# weighted eight-jump family

_ML_JUMP_PATTERN = [
    (0, SIGMA_PLUS, 0), (0, SIGMA_MINUS, 0),
    (0, SIGMA_PLUS, 1), (0, SIGMA_MINUS, 1),
    (1, SIGMA_PLUS, 0), (1, SIGMA_MINUS, 0),
    (1, SIGMA_PLUS, 1), (1, SIGMA_MINUS, 1),
]


def ml_lindblad(weights: MLWeights, n_sites: int) -> LindbladSpec:
    """Neighborhood-conditioned raising/lowering jumps with given weights."""
    proj = {0: P0, 1: P1}
    jumps = []
    for j in range(n_sites):
        sites = ((j - 1) % n_sites, j, (j + 1) % n_sites)
        for k, (a, op, b) in enumerate(_ML_JUMP_PATTERN):
            w = weights.w[k]
            if w == 0.0:
                continue
            mat = np.kron(np.kron(proj[a], op), proj[b])
            jumps.append((LocalOperator(sites, mat), w))
    return LindbladSpec(n_sites, (), tuple(jumps))


# ---------------------------------------------------------------------------
# reference states


def steady_family_state(alpha: float, beta: complex, n_sites: int) -> np.ndarray:
    """Fixed-point family: alpha on all-zeros, 1-alpha on all-ones, beta on
    the extreme off-diagonal pair.  Physical iff |beta| <= sqrt(a(1-a))."""
    dim = 2 ** n_sites
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = alpha
    rho[-1, -1] = 1 - alpha
    rho[0, -1] = beta
    rho[-1, 0] = np.conj(beta)
    return rho
