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
projectors, ``kron(P_a, K, P_b)``, and the majority-voting triples are
written out directly.  Its local channel is ``sum(doubled(K))``, its
classical table is probed from the same list (see ``classical``), and both
are applied window by window in the block order of a
:class:`PartitionSchedule`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .superop import (
    ID2, P0, P1, PAULI_X, PAULI_Y, SIGMA_MINUS, SIGMA_PLUS,
    LindbladSpec, LocalOperator, SuperOp, doubled, embed_local,
    kraus_completeness_residual,
)

__all__ = [
    "FuksParams", "DephasingParams", "MLWeights", "PartitionSchedule",
    "fuks_kraus_sets", "fuks_neighborhood_channel", "fuks_schedule",
    "fuks_step", "fuks_lindblad", "dephasing_lindblad",
    "mv_schedule", "mv_spread_step", "mv_consensus_step", "mv_lindblads",
    "mv_layer_counts", "mv_pad", "fates_kraus_sets", "fates_rule_step",
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


@dataclass(frozen=True)
class PartitionSchedule:
    """Ordered update phases on the ring.

    Each phase lists the starting (leftmost) site of every written block;
    blocks of ``block_width`` sites within one phase must not overlap.
    Read-only overlap between blocks of the same phase is fine.
    """

    phases: tuple[tuple[int, ...], ...]
    block_width: int
    n_sites: int

    def __post_init__(self):
        for phase in self.phases:
            written: set[int] = set()
            for start in phase:
                block = {(start + i) % self.n_sites for i in range(self.block_width)}
                if written & block:
                    raise ValueError(
                        f"phase {phase} writes site(s) {sorted(written & block)} twice"
                    )
                written |= block
        covered = {
            (start + i) % self.n_sites
            for phase in self.phases for start in phase
            for i in range(self.block_width)
        }
        if covered != set(range(self.n_sites)):
            missing = sorted(set(range(self.n_sites)) - covered)
            raise ValueError(f"schedule never updates site(s) {missing}")


# ---------------------------------------------------------------------------
# three-site Kraus lists and their block order


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
        if kraus_completeness_residual(kraus) > 1e-12:
            raise ValueError(f"neighborhood {(a, b)} Kraus set is not complete")
        ops += [np.kron(np.kron(proj[a], K), proj[b]) for K in kraus]
    return ops


def fuks_neighborhood_channel(p: float) -> np.ndarray:
    return sum(doubled(K) for K in _center_kraus(fuks_kraus_sets(p)))


def _center_windows(phases, n_sites: int) -> tuple[int, ...]:
    """Leftmost site of every 3-site window of a center schedule, in
    application order: phase by phase, centers in descending site order
    (see :func:`fuks_schedule`), each window reading one site either side."""
    return tuple((c - 1) % n_sites
                 for phase in phases for c in sorted(phase, reverse=True))


def _compose(local: np.ndarray, starts, n_sites: int) -> SuperOp:
    """Product of the 3-site channel ``local`` embedded at each window start,
    the first start acting first."""
    mat = sp.identity(4 ** n_sites, dtype=complex, format="csr")
    for s in starts:
        support = (s, (s + 1) % n_sites, (s + 2) % n_sites)
        mat = embed_local(local, support, n_sites) @ mat
    mat.sort_indices()
    return SuperOp(n_sites, mat, "step")


def fuks_schedule(n_sites: int, phase_order: str = "even_first") -> PartitionSchedule:
    """Center-update phases: all even 1-based centers, then all odd ones.

    Within a phase, centers at ring distance >= 2 commute; for odd N the
    wrap pair (site N, site 1) does not, so the application order inside a
    phase is pinned to descending site index.  With that order the single
    isolated-one worked example relaxes onto the continuum fixed point.
    """
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites, got {n_sites}")
    evens = tuple(j for j in range(n_sites) if (j + 1) % 2 == 0)
    odds = tuple(j for j in range(n_sites) if (j + 1) % 2 == 1)
    if phase_order == "even_first":
        phases = (evens, odds)
    elif phase_order == "odd_first":
        phases = (odds, evens)
    else:
        raise ValueError(f"unknown phase_order {phase_order!r}")
    return PartitionSchedule(phases, block_width=1, n_sites=n_sites)


def fuks_step(params: FuksParams, n_sites: int,
              schedule: PartitionSchedule | None = None) -> SuperOp:
    """One full discrete update (all phases) of the probabilistic rule."""
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites, got {n_sites}")
    if schedule is None:
        schedule = fuks_schedule(n_sites)
    return _compose(fuks_neighborhood_channel(params.p),
                    _center_windows(schedule.phases, schedule.n_sites),
                    schedule.n_sites)


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


def _mv_spread_kraus(sites: tuple[int, int, int]) -> list[LocalOperator]:
    """K0 relocates the middle of a 1,1,0 triple; K1 passes everything else."""
    k0 = np.kron(np.kron(P1, SIGMA_MINUS), SIGMA_PLUS)
    k1 = np.eye(8, dtype=complex) - np.kron(np.kron(P1, P1), P0)
    return [LocalOperator(sites, k0), LocalOperator(sites, k1)]


def _mv_consensus_kraus(sites: tuple[int, int, int]) -> list[LocalOperator]:
    """Deletes isolated ones and grows clusters one site left or right."""
    k0 = np.kron(np.kron(P0, SIGMA_MINUS), P0)
    k1 = np.kron(np.kron(P1, P1), SIGMA_PLUS)
    k2 = np.kron(np.kron(SIGMA_PLUS, P1), P1)
    k3 = np.eye(8, dtype=complex) - (
        np.kron(np.kron(P0, P1), P0)
        + np.kron(np.kron(P1, P1), P0)
        + np.kron(np.kron(P0, P1), P1)
    )
    return [LocalOperator(sites, k) for k in (k0, k1, k2, k3)]


def mv_schedule(n_sites: int) -> PartitionSchedule:
    """Three phases of disjoint triples; phase x starts at sites = x-1 mod 3.

    A full layer is the operator product (phase 1)(phase 2)(phase 3), so
    phase 3 acts first in time; sublayer counting follows that order.
    """
    if n_sites < 3 or n_sites % 3 != 0:
        raise ValueError(f"triple partition needs n_sites % 3 == 0, got {n_sites}")
    phases = tuple(tuple(range(off, n_sites, 3)) for off in range(3))
    return PartitionSchedule(phases, block_width=3, n_sites=n_sites)


def _mv_phase_step(kraus_fn, n_sites: int, phase: int) -> SuperOp:
    schedule = mv_schedule(n_sites)
    if phase not in (1, 2, 3):
        raise ValueError(f"phase must be 1, 2 or 3, got {phase}")
    local = sum(doubled(op.matrix) for op in kraus_fn((0, 1, 2)))
    return _compose(local, schedule.phases[phase - 1], n_sites)


def _mv_layer(kraus_fn, n_sites: int) -> SuperOp:
    mat = None
    for phase in (3, 2, 1):          # phase 3 earliest in time
        step = _mv_phase_step(kraus_fn, n_sites, phase)
        mat = step.matrix if mat is None else step.matrix @ mat
    mat.sort_indices()
    return SuperOp(n_sites, mat, "step")


def mv_spread_step(n_sites: int, phase: int | None = None) -> SuperOp:
    """Popcount-preserving sublayer (or full layer when phase is None)."""
    if phase is None:
        return _mv_layer(_mv_spread_kraus, n_sites)
    return _mv_phase_step(_mv_spread_kraus, n_sites, phase)


def mv_consensus_step(n_sites: int, phase: int | None = None) -> SuperOp:
    """Cluster-growing / isolated-one-deleting sublayer (or full layer)."""
    if phase is None:
        return _mv_layer(_mv_consensus_kraus, n_sites)
    return _mv_phase_step(_mv_consensus_kraus, n_sites, phase)


def mv_lindblads(n_sites: int) -> tuple[LindbladSpec, LindbladSpec]:
    """Continuous generators of the spreading and consensus dynamics."""
    if n_sites < 3:
        raise ValueError(f"need at least 3 sites, got {n_sites}")
    spread = []
    consensus = []
    for j in range(n_sites):
        sites = ((j - 1) % n_sites, j, (j + 1) % n_sites)
        spread.append((LocalOperator(
            sites, np.kron(np.kron(P1, SIGMA_MINUS), SIGMA_PLUS)), 1.0))
        consensus += [
            (LocalOperator(sites, np.kron(np.kron(P0, SIGMA_MINUS), P0)), 1.0),
            (LocalOperator(sites, np.kron(np.kron(P1, P1), SIGMA_PLUS)), 1.0),
            (LocalOperator(sites, np.kron(np.kron(SIGMA_PLUS, P1), P1)), 1.0),
        ]
    return (
        LindbladSpec(n_sites, (), tuple(spread)),
        LindbladSpec(n_sites, (), tuple(consensus)),
    )


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


def fates_rule_step(rule: int, n_sites: int,
                    schedule: PartitionSchedule | None = None) -> SuperOp:
    """Full partitioned center update of one mixture branch rule.

    Default phase order is odd centers first: with even-first phases the
    traffic branch pumps the reference seven-site majority input straight to
    all-ones, which contradicts the documented failure of this mixture, so
    the failure demo pins the other order.
    """
    if schedule is None:
        schedule = fuks_schedule(n_sites, "odd_first")
    local = sum(doubled(K) for K in _center_kraus(fates_kraus_sets(rule)))
    return _compose(local, _center_windows(schedule.phases, schedule.n_sites),
                    schedule.n_sites)


def fates_step(p: float, n_sites: int,
               schedule: PartitionSchedule | None = None) -> SuperOp:
    """Average map p * step(184) + (1-p) * step(232).

    Trajectory sampling draws one global coin per time step instead; see
    ``evolve.discrete_run`` with a step provider.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    s184 = fates_rule_step(184, n_sites, schedule)
    s232 = fates_rule_step(232, n_sites, schedule)
    mat = (p * s184.matrix + (1 - p) * s232.matrix).tocsr()
    mat.sort_indices()
    return SuperOp(n_sites, mat, "step")


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
