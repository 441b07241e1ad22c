"""Expectation values, densities and physicality diagnostics on VecStates.

Diagonal quantities read the 2^N doubled-space entries whose per-site digits
are 0 or 3 (ket bit equal to bra bit).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import TOL
from .superop import VecState, devectorize, diag_indices

__all__ = [
    "AlphaBeta", "PhysicalityReport", "diag_indices", "diag_probabilities",
    "trace_of", "herm_residual", "expval_sz", "density_n",
    "project_alpha_beta", "physicality_check", "trace_distance",
]


@lru_cache(maxsize=None)
def _popcounts(n_sites: int) -> np.ndarray:
    bits = np.arange(2 ** n_sites, dtype=np.int64)
    out = np.zeros(2 ** n_sites, dtype=np.int64)
    for j in range(n_sites):
        out += (bits >> j) & 1
    return out


def diag_probabilities(state: VecState) -> np.ndarray:
    """Real parts of the density matrix diagonal, basis order 00..0 to 11..1."""
    return state.diagonal.real


def trace_of(state: VecState) -> complex:
    return complex(state.diagonal.sum())


def herm_residual(state: VecState) -> float:
    """Max deviation of the devectorized matrix from its adjoint.

    Computed by the per-site digit swap (a, b) -> (b, a) plus conjugation
    on the 4^N vector (a block state's, scattered), so it never
    materializes the 2^N x 2^N matrix twice.
    """
    n = state.n_sites
    t = state.full().amplitudes.reshape((4,) * n)
    swap = np.array([0, 2, 1, 3])
    flipped = t
    for axis in range(n):
        flipped = np.take(flipped, swap, axis=axis)
    return float(np.abs(t - flipped.conj()).max())


def expval_sz(state: VecState) -> float:
    """Tr(S_z rho) with S_z = half the sum of Pauli-Z over sites."""
    p = diag_probabilities(state)
    n = state.n_sites
    return float(np.dot(n / 2 - _popcounts(n), p))


def density_n(state: VecState) -> float:
    """Total occupation: expectation of the number of one-sites."""
    return float(np.dot(_popcounts(state.n_sites), diag_probabilities(state)))


@dataclass(frozen=True)
class AlphaBeta:
    """Coordinates of the extreme-state fixed-point family.

    alpha is the zero-site fraction of the input (and the all-zeros weight
    of the fixed point); beta the extreme off-diagonal amplitude.  Physical
    states satisfy |beta| <= sqrt(alpha (1 - alpha)).
    """

    alpha: float
    beta: complex

    def __post_init__(self):
        if not -1e-9 <= self.alpha <= 1 + 1e-9:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        bound = np.sqrt(max(self.alpha * (1 - self.alpha), 0.0))
        if abs(self.beta) > bound + 1e-9:
            raise ValueError(
                f"|beta|={abs(self.beta):.3e} exceeds sqrt(a(1-a))={bound:.3e}")


def project_alpha_beta(state: VecState) -> AlphaBeta:
    """Predict the extreme-state fixed point reached from this input."""
    n = state.n_sites
    alpha = 1.0 - density_n(state) / n
    # all-site digit 1 = |0><1| on every site = the |0..0><1..1| component
    beta_idx = (4 ** n - 1) // 3
    beta = complex(state.amplitudes_on(np.array([beta_idx]))[0])
    return AlphaBeta(float(np.clip(alpha, 0.0, 1.0)), beta)


@dataclass(frozen=True)
class PhysicalityReport:
    trace: complex
    herm_residual: float
    min_eigenvalue: float
    trace_ok: bool
    herm_ok: bool
    positive_ok: bool

    @property
    def ok(self) -> bool:
        return self.trace_ok and self.herm_ok and self.positive_ok


def physicality_check(state: VecState) -> PhysicalityReport:
    tol = TOL.physical
    tr = trace_of(state)
    hres = herm_residual(state)
    rho = devectorize(state)
    mineig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    return PhysicalityReport(
        trace=tr,
        herm_residual=hres,
        min_eigenvalue=mineig,
        trace_ok=abs(tr - 1) <= tol,
        herm_ok=hres <= tol,
        positive_ok=mineig >= -tol,
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    diff = (rho - sigma + (rho - sigma).conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
