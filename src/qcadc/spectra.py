"""Generator spectra, steady-state kernels, gap scans and power-law fits.

Dense mode splits the 4^N generator twice before diagonalizing.  Both
number-conserving model families commute with doubled-space occupation
counts (jointly per ket/bra copy, or their difference); the grading is
detected from the sparsity pattern, not assumed per model, by
:func:`superop.conserved_grading`, the detector time evolution also uses.
Every model here is also invariant under the ring shift, and
:func:`superop.translation_sectors` splits the space into N momentum
sectors (Buca & Prosen, New J. Phys. 14, 073007, 2012) when the generator
commutes with it numerically, or gives one identity sector when it does
not.  The sectors are built lazily, one as it is read: for a real
generator sector N-k is the conjugate of sector k, so only k <= N/2 are
built.  Each sector's generator is projected once, and every graded block
is cut out of its entries in one pass and diagonalized on its own: about
N^2 less work than the graded blocks alone, so N = 8 takes seconds.

The gap is min |lambda| over eigenvalues that do not count as zero; an
eigenvalue counts as zero below ``TOL.null`` times the max-column-sum norm
of the generator.  Dissipativity (no nonzero eigenvalue with positive real
part) is reported separately so complex drift would be caught.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .config import DENSE_SUPEROP_CAP, TOL
from .superop import (LindbladSpec, SuperOp, VecState, assemble_lindbladian,
                      conserved_grading, translation_sectors)

__all__ = [
    "SpectrumReport", "FitReport", "SpectrumError", "spectrum",
    "steady_state_basis", "gap_scan", "loglog_fit",
]


_SHIFT = -1e-3          # "arnoldi" shift-invert: just left of the kernel


class SpectrumError(RuntimeError):
    pass


@dataclass(frozen=True)
class SpectrumReport:
    n_sites: int
    eigenvalues: np.ndarray
    null_dim: int
    gap: float
    method: str
    norm: float
    max_re_nonzero: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitReport:
    c: float
    d: float
    stderr_c: float
    stderr_d: float
    n_points: int


# ---------------------------------------------------------------------------
# spectrum


def _as_generator(obj: "LindbladSpec | SuperOp") -> SuperOp:
    if isinstance(obj, LindbladSpec):
        return assemble_lindbladian(obj)
    if obj.kind != "generator":
        raise ValueError("spectrum expects a generator, not a discrete step")
    return obj


def spectrum(obj: "LindbladSpec | SuperOp", mode: str = "dense",
             k: int = 12, want_vectors: bool = False):
    """Eigenvalues, zero-mode count and spectral gap of a generator.

    mode "dense" computes the full spectrum, block by block over the
    momentum sectors and conserved gradings; "arnoldi" computes the k
    eigenvalues nearest zero by shift-inverted iteration at shift -1e-3
    and is valid as long as k exceeds the kernel dimension.  Kernel vectors
    (``want_vectors``) come from dense mode only.
    """
    gen = _as_generator(obj)
    n = gen.n_sites
    dim = 4 ** n
    norm = float(np.abs(gen.matrix).sum(axis=0).max())
    if norm == 0.0:
        ev = np.zeros(dim, dtype=complex)
        report = SpectrumReport(n, ev, dim, float("nan"), mode, 0.0, 0.0)
        return (report, [VecState(n, e) for e in np.eye(dim, dtype=complex)]) \
            if want_vectors else report

    vectors: list[np.ndarray] = []
    if mode == "dense":
        if dim > DENSE_SUPEROP_CAP:
            raise ValueError(f"dense mode refused above 4^N={DENSE_SUPEROP_CAP}")
        kind, grading = conserved_grading(gen.matrix, n)
        count, sectors = translation_sectors(gen.matrix, n)
        # a real generator's sector N-k is the conjugate of sector k, and
        # sectors 0 and N/2 are real; the identity sector (no ring
        # symmetry) keeps complex arithmetic
        real = count > 1 and not gen.matrix.data.imag.any()
        stop = count // 2 + 1 if real else count
        eigenvalues, twins = [], []
        for q, (basis, reps) in zip(range(stop), sectors):
            paired = real and 0 < 2 * q < count
            # h is block diagonal in the grading labels: rank each column
            # within the stable order of its label, so block b holds ranks
            # starts[b] to starts[b + 1]; every block is cut out of h's
            # entries, sorted by row rank, in one pass
            labels = grading[reps]
            order = np.argsort(labels, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            starts = np.concatenate(
                ([0], np.cumsum(np.unique(labels, return_counts=True)[1])))
            h = (basis.conj().T @ gen.matrix @ basis).tocoo()
            row, col = rank[h.row], rank[h.col]
            by_row = np.argsort(row, kind="stable")
            row, col, vals = row[by_row], col[by_row], h.data[by_row]
            cuts = np.searchsorted(row, starts)
            for a, end, lo, hi in zip(starts, starts[1:], cuts, cuts[1:]):
                sub = np.zeros((end - a, end - a), dtype=h.dtype)
                sub[row[lo:hi] - a, col[lo:hi] - a] = vals[lo:hi]
                if real and not paired:
                    sub = sub.real
                if want_vectors:
                    w, v = np.linalg.eig(sub)
                    null = np.abs(w) < TOL.null * norm
                    for i in np.flatnonzero(null):
                        full = basis[:, order[a:end]] @ v[:, i]
                        vectors += [full, full.conj()] if paired else [full]
                else:
                    w = np.linalg.eigvals(sub)
                eigenvalues.append(w)
                if paired:
                    twins.append(w.conj())
        ev = np.concatenate(eigenvalues + twins).astype(complex)
        method = f"dense/{kind}"
    elif mode == "arnoldi":
        if k >= dim - 1:
            raise ValueError(f"arnoldi needs k < dim-1, got k={k}, dim={dim}")
        if want_vectors:
            raise ValueError("kernel vectors come from dense mode only")
        try:
            ev = spla.eigs(gen.matrix.tocsc(), k=k, sigma=_SHIFT, which="LM",
                           return_eigenvectors=False)
        except spla.ArpackNoConvergence as err:
            raise SpectrumError(
                f"shift-invert iteration did not converge: {err}") from err
        method = "arnoldi"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    null_mask = np.abs(ev) < TOL.null * norm
    null_dim = int(null_mask.sum())
    nonzero = ev[~null_mask]
    if len(nonzero) == 0:
        gap = float("nan")
        max_re = 0.0
    else:
        gap = float(np.abs(nonzero).min())
        max_re = float(nonzero.real.max())
    warnings = []
    border = np.abs(ev[(np.abs(ev) >= 0.1 * TOL.null * norm)
                       & (np.abs(ev) <= 10 * TOL.null * norm)])
    if len(border):
        warnings.append(
            f"{len(border)} eigenvalue(s) within a decade of the zero "
            f"threshold {TOL.null * norm:.3e}; smallest {border.min():.3e}")
    report = SpectrumReport(n, ev, null_dim, gap, method, norm, max_re,
                            tuple(warnings))
    if want_vectors:
        return report, [VecState(n, w) for w in vectors]
    return report


def steady_state_basis(obj: "LindbladSpec | SuperOp") -> list[VecState]:
    """Orthonormal basis of the generator kernel from the dense spectrum,
    residual-checked."""
    gen = _as_generator(obj)
    report, raw = spectrum(gen, want_vectors=True)
    if not raw:
        return []
    stack = np.column_stack([v.amplitudes for v in raw])
    q, _ = np.linalg.qr(stack)
    out = []
    norm = report.norm
    for i in range(q.shape[1]):
        vec = q[:, i]
        residual = np.linalg.norm(gen.matrix @ vec)
        if residual > 1e-9 * norm:
            raise SpectrumError(
                f"kernel candidate has residual {residual:.3e} "
                f"(> 1e-9 * {norm:.3e})")
        out.append(VecState(gen.n_sites, vec))
    return out


# ---------------------------------------------------------------------------
# scans and fits


def gap_scan(family, n_values, mode: str = "dense"):
    """Per-size spectrum reports for ``family(N) -> LindbladSpec``.

    Failures are recorded per N (entry value None plus the error string) and
    the scan continues.
    """
    results = []
    for n in n_values:
        try:
            rep = spectrum(family(n), mode=mode)
            results.append((int(n), rep, None))
        except Exception as err:    # recorded, not raised: partial scans stay usable
            results.append((int(n), None, f"{type(err).__name__}: {err}"))
    return results


def loglog_fit(points, exclude=()) -> FitReport:
    """OLS fit log(gap) = c log(N) + d with residual-variance errors."""
    pts = [(n, g) for n, g in points if n not in set(exclude)]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    gs = np.array([p[1] for p in pts], dtype=float)
    if np.any(gs <= 0) or np.any(ns <= 0):
        raise ValueError("all sizes and gaps must be positive")
    x = np.log(ns)
    y = np.log(gs)
    X = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(len(pts) - 2, 1)
    var = float(resid @ resid) / dof
    cov = var * np.linalg.inv(X.T @ X)
    return FitReport(c=float(coef[0]), d=float(coef[1]),
                     stderr_c=float(np.sqrt(cov[0, 0])),
                     stderr_d=float(np.sqrt(cov[1, 1])),
                     n_points=len(pts))
