"""Time evolution: discrete stepping, continuous Lindblad flows, the
diagonal classical fast path, and fixed-point detection.

Every run builds its flow of states (repeated application of one step, or
the one-pass uniformized diagonal flow) and hands it to one sampling driver,
:func:`_run`, which stops the run when its stop rule fires and raises
``FloatingPointError`` on the first non-finite state.

Method selection for continuous evolution:

* ``diagonal``  -- the generator is basis preserving and the state diagonal;
                   the 2^N probability vector follows the classical rate
                   matrix (exactly the restriction of the Lindbladian) in
                   one uniformization pass over the whole sample grid.
* ``dense``     -- one dense exponential of the generator per run.
* ``krylov``    -- Arnoldi approximation of exp(L dt) v per sample, with
                   adaptive substepping.
* ``auto``      -- diagonal when admissible, dense up to 4^N = 4096, else
                   krylov.

``dense`` and ``krylov`` run on the conserved sector of the initial state:
the graded blocks of the generator (:func:`superop.conserved_grading`, read
off its sparsity pattern) that the state's support touches.  The generator
never joins two blocks, so amplitudes outside them are zero at t = 0 and
stay exactly zero; each sample is scattered back to 4^N.  A state touching
every block, or a generator with no grading, runs on the full matrix.
``auto`` still decides on 4^N, not on the sector size, so a config's method
label does not depend on its initial state; on a sector both methods are
cheap (the N = 7 half-filled-pair sector has 441 entries).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
# not called; perfbench/tracer.py patches this name and fails without it
from scipy.sparse.linalg import expm_multiply  # noqa: F401

from .config import DENSE_EXPM_CAP, DENSE_SUPEROP_CAP
from .observables import density_n, diag_indices, expval_sz, trace_of
from .superop import (LindbladSpec, SuperOp, VecState, assemble_lindbladian,
                      basis_moves, conserved_grading)

__all__ = [
    "EvolutionResult", "KrylovError", "NotBasisPreservingError",
    "discrete_run", "continuous_evolve",
    "diagonal_rate_matrix", "is_basis_preserving", "DiagonalDynamics",
    "converge_to_fixed_point", "krylov_expmv", "crossing_time",
    "uniformized_rows", "mean_occupancy",
]

DEFAULT_SAMPLES = 64
DEFAULT_EXACT_CAP = 40_000  # reachable states solved exactly, not sampled
_KRYLOV_TOL = 1e-10         # Krylov error budget relative to |v|, over t
_KRYLOV_DIM = 40            # Arnoldi basis size per Krylov substep
_MV_SAMPLES = 600           # time-grid points of each mv worst-case run
_MV_THRESHOLD = 0.99        # the fraction at which that run is done
_MOVE_CHUNK = 1 << 20       # move rows x codes matched in one broadcast


class KrylovError(RuntimeError):
    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"Krylov expmv did not converge "
                                    f"(residual estimate {residual:.3e})")


class NotBasisPreservingError(ValueError):
    """A jump maps some basis state to a non-basis state (or H is present)."""


@dataclass
class EvolutionResult:
    final_state: "VecState | np.ndarray"
    time_reached: float
    converged: bool
    method_used: str
    trajectory: np.ndarray | None = None   # rows: (t, n/N, S_z, trace)


def _sample_row(t: float, state: VecState) -> tuple[float, float, float, float]:
    return (t, density_n(state) / state.n_sites, expval_sz(state),
            trace_of(state).real)


# ---------------------------------------------------------------------------
# the run driver and discrete stepping

StopRule = Callable[[VecState, VecState, int], bool]


def _iterate(step: Callable[[np.ndarray], np.ndarray],
             state: VecState) -> Iterator[VecState]:
    """The states after one, two, ... applications of ``step``."""
    v = state.amplitudes.copy()
    while True:
        v = step(v)
        yield VecState(state.n_sites, v)


def _run(state: VecState, times: Iterable[float], flow: Iterator[VecState],
         record: bool, stop: StopRule | None = None):
    """Sample ``state`` at t = 0, then the states of ``flow`` at ``times``.

    Returns (final state, time reached, whether ``stop`` fired, trajectory
    or None).  ``stop(previous, current, index)`` is asked after the
    ``index``-th state (from 1) and ends the run when it returns True.  A
    non-finite state raises ``FloatingPointError``.
    """
    rows = [_sample_row(0.0, state)] if record else None
    current, reached = state, 0.0
    # times first: the flow computes no state past the last time
    for index, (tk, new) in enumerate(zip(times, flow), start=1):
        if not np.all(np.isfinite(new.amplitudes)):
            raise FloatingPointError(f"non-finite amplitudes at t = {tk:g}")
        if record:
            rows.append(_sample_row(tk, new))
        previous, current, reached = current, new, float(tk)
        if stop is not None and stop(previous, current, index):
            return current, reached, True, (np.array(rows) if record else None)
    return current, reached, False, (np.array(rows) if record else None)


def discrete_run(step: SuperOp, state: VecState, max_steps: int,
                 stop: StopRule | None = None,
                 record: bool = True) -> EvolutionResult:
    """Apply ``step`` up to ``max_steps`` times; ``stop(previous, current,
    index)`` ends the run early when it returns True."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if step.matrix.shape[0] != len(state.amplitudes):
        raise ValueError("step dimension does not match state")
    final, reached, stopped, rows = _run(
        state, map(float, range(1, max_steps + 1)),
        _iterate(lambda v: step.matrix @ v, state), record, stop)
    return EvolutionResult(final, reached, stopped, "discrete", rows)


# ---------------------------------------------------------------------------
# Krylov matrix exponential action


def krylov_expmv(A: sp.spmatrix, v: np.ndarray, t: float,
                 max_substeps: int = 10000) -> np.ndarray:
    """Arnoldi approximation of exp(A t) v with adaptive substepping.

    The Arnoldi basis is kept as contiguous rows and orthogonalized by two
    classical Gram-Schmidt passes.  The per-substep error is Expokit's phi_1
    estimate (Sidje, ACM TOMS 24:130, 1998): the exponential F of the
    Hessenberg matrix augmented by its last subdiagonal element gives the
    step in its first m entries of column 0 and the error as beta |F[m, 0]|.
    A substep over the tolerance budget is retried with half the step; one
    still over budget at the smallest step ``|t| / max_substeps`` raises
    :class:`KrylovError`.
    """
    if t == 0:
        return v.copy()
    w = v.astype(complex).copy()
    remaining = float(t)
    dt = remaining
    substeps = 0
    scale = max(np.linalg.norm(v), 1e-300)
    while remaining > 0:
        if substeps >= max_substeps:
            raise KrylovError(float("nan"), "substep budget exhausted")
        dt = min(dt, remaining)
        beta = np.linalg.norm(w)
        if beta == 0:
            return w
        V = np.zeros((_KRYLOV_DIM + 1, len(w)), dtype=complex)
        H = np.zeros((_KRYLOV_DIM + 1, _KRYLOV_DIM + 1), dtype=complex)
        V[0] = w / beta
        m = _KRYLOV_DIM
        for j in range(_KRYLOV_DIM):
            u = A @ V[j]
            basis = V[:j + 1]
            for _ in range(2):           # the second pass restores orthogonality
                h = (basis @ u.conj()).conj()
                u -= h @ basis
                H[:j + 1, j] += h
            norm = np.linalg.norm(u)
            if norm < 1e-14 * scale:
                m = j + 1                # invariant subspace: the step is exact
                break
            H[j + 1, j] = norm
            V[j + 1] = u / norm
        while True:                      # the basis serves every retry
            F = expm(H[:m + 1, :m + 1] * dt)
            err = abs(beta * F[m, 0])
            budget = _KRYLOV_TOL * scale * (dt / abs(t))
            if err <= budget:
                break
            if dt <= abs(t) / max_substeps:
                raise KrylovError(
                    err, f"Krylov expmv error estimate {err:.3e} exceeds "
                         f"budget {budget:.3e} at the smallest substep "
                         f"{dt:.3e}")
            dt /= 2
            substeps += 1
        w = beta * (F[:m, 0] @ V[:m])
        remaining -= dt
        substeps += 1
        if err < 0.1 * budget:
            dt *= 2
    return w


# ---------------------------------------------------------------------------
# diagonal (classical Markov) fast path


def is_basis_preserving(spec: LindbladSpec) -> bool:
    """Whether the diagonal path applies: exactly when
    :class:`DiagonalDynamics` accepts ``spec``."""
    try:
        DiagonalDynamics(spec)
    except NotBasisPreservingError:
        return False
    return True


@dataclass
class _MoveTable:
    """The moves on whole-ring codes: a state s is enabled for move m when
    s & mask[m] == match[m], and goes to (s & ~mask[m]) | put[m] at rate
    rate[m]."""
    mask: np.ndarray
    match: np.ndarray
    put: np.ndarray
    rate: np.ndarray


def _code_of(bits: np.ndarray) -> int:
    """Basis code of a bit string; site 0 is the most significant bit."""
    code = 0
    for b in bits:
        code = (code << 1) | int(b)
    return code


class DiagonalDynamics:
    """Classical continuous-time Markov chain restriction of a generator.

    Valid only for basis-preserving specs: no Hamiltonian, and every jump
    maps each computational basis state to a scalar multiple of a basis
    state.  Provides the full 2^N rate matrix, a reachable-subspace
    restriction, and exact-jump (Gillespie) trajectory sampling.
    """

    def __init__(self, spec: LindbladSpec):
        if spec.hamiltonian_terms:
            raise NotBasisPreservingError(
                "spec has Hamiltonian terms; the diagonal restriction "
                "only exists for pure-jump basis-preserving generators")
        self.n_sites = spec.n_sites
        widths = set()
        rows = []
        for op, rate in spec.jumps:
            if rate == 0.0:
                continue
            probed = basis_moves(op.matrix)
            if probed is None:
                raise NotBasisPreservingError(
                    f"jump on sites {op.sites} maps a basis state to a "
                    f"superposition; no diagonal restriction exists")
            widths.add(op.width)
            for in_code, out_code, weight in probed:
                if in_code != out_code:
                    rows.append((op.sites, in_code, out_code, rate * weight))
        width = max(widths) if widths else 1
        if widths and len(widths) != 1:
            raise NotBasisPreservingError("mixed jump widths are unsupported")
        sites = np.array([r[0] for r in rows],
                         dtype=np.int64).reshape(len(rows), width)
        in_code = np.array([r[1] for r in rows], dtype=np.int64)
        out_code = np.array([r[2] for r in rows], dtype=np.int64)
        # pattern bit w of a move sits at ring bit n-1-sites[:, w] (site 0
        # is the most significant bit)
        place = np.int64(1) << (self.n_sites - 1 - sites)
        pattern_bit = np.int64(1) << (width - 1 - np.arange(width))

        def on_ring(pattern):
            return ((((pattern[:, None] & pattern_bit) != 0) * place)
                    .sum(axis=1, dtype=np.int64))

        self._table = _MoveTable(
            mask=place.sum(axis=1, dtype=np.int64),
            match=on_ring(in_code),
            put=on_ring(out_code),
            rate=np.array([r[3] for r in rows], dtype=float),
        )

    # -- enabled moves ------------------------------------------------------

    def enabled_moves(self, codes: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every move enabled in the basis states ``codes``.

        Returns flat arrays ``(src, dst, rate)``, ordered by move-table row
        and, within a row, as the states appear in ``codes``.  The moves are
        matched a chunk of table rows at a time, against every code at once.
        """
        codes = np.asarray(codes, dtype=np.int64)
        t = self._table
        chunk = max(1, _MOVE_CHUNK // max(len(codes), 1))
        src, dst, rate = [codes[:0]], [codes[:0]], [np.empty(0)]
        for lo in range(0, len(t.rate), chunk):
            hi = lo + chunk
            move, at = np.nonzero(
                (codes & t.mask[lo:hi, None]) == t.match[lo:hi, None])
            move += lo
            hit = codes[at]
            src.append(hit)
            dst.append((hit & ~t.mask[move]) | t.put[move])
            rate.append(t.rate[move])
        return np.concatenate(src), np.concatenate(dst), np.concatenate(rate)

    # -- full rate matrix --------------------------------------------------

    def rate_matrix(self) -> sp.csr_matrix:
        dim = 2 ** self.n_sites
        src, dst, rate = self.enabled_moves(np.arange(dim, dtype=np.int64))
        Q = sp.coo_matrix((rate, (dst, src)), shape=(dim, dim)).tocsr()
        Q = Q - sp.diags(np.asarray(Q.sum(axis=0)).ravel())
        Q.sort_indices()
        return Q

    # -- reachable subspace -------------------------------------------------

    def reachable(self, bits0: np.ndarray, cap: int = 3_000_000):
        """(codes, Q_sub) for the subspace reachable from one basis state.

        Breadth-first: ``codes`` lists the states in discovery order, the
        start first; states found from one frontier are ordered by their
        first move, taking the frontier's states in order and each state's
        moves in move-table order.  A set of more than ``cap`` states raises
        ``MemoryError``.
        """
        frontier = np.array([_code_of(bits0)], dtype=np.int64)
        levels = [frontier]
        seen = frontier                  # sorted
        edges = []
        while len(frontier):
            src, dst, rate = self.enabled_moves(frontier)
            by_state = np.argsort(frontier, kind="stable")
            at = by_state[np.searchsorted(frontier[by_state], src)]
            order = np.argsort(at, kind="stable")
            src, dst, rate = src[order], dst[order], rate[order]
            edges.append((src, dst, rate))
            pos = np.minimum(np.searchsorted(seen, dst), len(seen) - 1)
            fresh = dst[seen[pos] != dst]
            _, first = np.unique(fresh, return_index=True)
            frontier = fresh[np.sort(first)]
            if len(seen) + len(frontier) > cap:
                raise MemoryError(f"reachable set exceeds cap {cap}")
            levels.append(frontier)
            seen = np.union1d(seen, frontier)
        codes = np.concatenate(levels)
        src, dst, rate = (np.concatenate(col) for col in zip(*edges))
        by_code = np.argsort(codes)          # codes[by_code] == seen
        rows = by_code[np.searchsorted(seen, dst)]
        cols = by_code[np.searchsorted(seen, src)]
        dim = len(codes)
        Q = sp.coo_matrix((rate, (rows, cols)), shape=(dim, dim)).tocsr()
        Q = Q - sp.diags(np.asarray(Q.sum(axis=0)).ravel())
        return codes, Q

    # -- Gillespie sampling ---------------------------------------------------

    def gillespie_mean_occupancy(self, bits0: np.ndarray, t_grid: np.ndarray,
                                 n_traj: int, rng: np.random.Generator
                                 ) -> np.ndarray:
        """Trajectory-averaged per-site occupation on a fixed time grid.

        Each visited code's bits, enabled moves, cumulative rates and total
        rate are computed once per call; after each jump, the grid points
        the state held through are filled in one slice.  Times and moves
        are looked up by bisection in Python lists.
        """
        from bisect import bisect_left
        n = self.n_sites
        t = self._table
        mask, put = t.mask.tolist(), t.put.tolist()
        grid = np.asarray(t_grid, dtype=float).tolist()
        acc = np.zeros((len(grid), n))
        shifts = n - 1 - np.arange(n)
        start = _code_of(bits0)
        seen = {}
        for _ in range(n_traj):
            code, now, gi = start, 0.0, 0
            while gi < len(grid):
                if code not in seen:
                    match = np.flatnonzero((code & t.mask) == t.match)
                    rates = t.rate[match]
                    seen[code] = ((code >> shifts) & 1, match.tolist(),
                                  np.cumsum(rates).tolist(), rates.sum())
                bits, match, cum_rates, total = seen[code]
                if not match:
                    acc[gi:] += bits
                    break
                now += rng.exponential(1.0 / total)
                gj = bisect_left(grid, now)
                if gj > gi:
                    acc[gi:gj] += bits
                    gi = gj
                pick = match[bisect_left(cum_rates, rng.random() * total)]
                code = (code & ~mask[pick]) | put[pick]
        return acc / n_traj


def diagonal_rate_matrix(spec: LindbladSpec) -> sp.csr_matrix:
    """Classical generator Q with Q[s', s] = sum_k |<s'|L_k|s>|^2 off the
    diagonal and columns summing to zero."""
    return DiagonalDynamics(spec).rate_matrix()


# ---------------------------------------------------------------------------
# continuous evolution


def _diagonal_part(state: VecState) -> np.ndarray:
    """Probabilities of a diagonal state; rejects states with coherences."""
    n = state.n_sites
    probs = state.amplitudes[diag_indices(n)]
    if abs(probs.real.sum() - 1) > 1e-8:
        raise ValueError("state trace is not 1")
    off_mass = np.abs(state.amplitudes).sum() - np.abs(probs).sum()
    if off_mass > 1e-12:
        raise ValueError("state has off-diagonal weight; diagonal path invalid")
    return probs.real


def _lift_diagonal(probs: np.ndarray, n_sites: int) -> VecState:
    v = np.zeros(4 ** n_sites, dtype=complex)
    v[diag_indices(n_sites)] = probs
    return VecState(n_sites, v)


def _auto_method(spec: LindbladSpec, state: VecState) -> str:
    """What ``auto`` stands for: diagonal when admissible for ``state``,
    else dense up to ``DENSE_EXPM_CAP`` and krylov above."""
    if is_basis_preserving(spec):
        try:
            _diagonal_part(state)
            return "diagonal"
        except ValueError:
            pass
    return "dense" if 4 ** spec.n_sites <= DENSE_EXPM_CAP else "krylov"


def _sector(gen: sp.spmatrix, state: VecState) -> np.ndarray | None:
    """Doubled indices of the graded blocks of the generator ``gen`` that
    the support of ``state`` touches, ascending; None when that is every
    index."""
    _kind, grading = conserved_grading(gen, state.n_sites)
    touched = grading[np.flatnonzero(state.amplitudes)]
    idx = np.flatnonzero(np.isin(grading, touched))
    return None if len(idx) == len(grading) else idx


def _step(gen: sp.csr_matrix, dt: float, method: str,
          idx: np.ndarray | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """v -> exp(L dt) v for the 4^N generator ``gen``, built once: a dense
    expm for "dense", a Krylov action per call for "krylov".

    With ``idx`` (a union of graded blocks of ``gen``, holding the support
    of every v passed in) both act on ``gen[idx, idx]`` and the result is
    scattered back to 4^N; the entries outside ``idx`` stay exactly zero.
    """
    sub = gen if idx is None else gen[idx][:, idx]
    if method == "dense":
        if sub.shape[0] > DENSE_SUPEROP_CAP:
            raise ValueError(f"dense path refused above dimension "
                             f"{DENSE_SUPEROP_CAP}")
        prop = expm(sub.toarray() * dt)
        act = lambda w: prop @ w
    elif method == "krylov":
        act = lambda w: krylov_expmv(sub, w, dt)
    else:
        raise ValueError(f"unknown method {method!r}")
    if idx is None:
        return act

    def step(v: np.ndarray) -> np.ndarray:
        out = np.zeros(len(v), dtype=complex)
        out[idx] = act(v[idx])
        return out
    return step


def continuous_evolve(spec: LindbladSpec, state: VecState, t: float,
                      method: str = "auto", samples: int = DEFAULT_SAMPLES,
                      record: bool = True) -> EvolutionResult:
    """state -> exp(L t)[state] with trajectory sampling.

    ``samples`` evenly spaced intermediate states are recorded (the paper-
    style coarse profiles need no more); sampling is exact, not interpolated.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    n = spec.n_sites
    method = _auto_method(spec, state) if method == "auto" else method

    if t == 0:
        row = np.array([_sample_row(0.0, state)])
        return EvolutionResult(state, 0.0, True, method,
                               row if record else None)

    n_steps = max(1, samples)
    dt = t / n_steps
    times = dt * np.arange(1, n_steps + 1)
    if method == "diagonal":
        Q, probs = diagonal_rate_matrix(spec), _diagonal_part(state)
        flow = (_lift_diagonal(p, n) for p in uniformized_rows(
            Q, probs, sp.identity(2 ** n, format="csr"), times))
    else:
        gen = assemble_lindbladian(spec).matrix
        flow = _iterate(_step(gen, dt, method, _sector(gen, state)), state)
    final, _, _, rows = _run(state, times, flow, record)
    return EvolutionResult(final, t, True, method, rows)


# ---------------------------------------------------------------------------
# fixed points


def converge_to_fixed_point(spec: LindbladSpec, state: VecState,
                            tol: float = 1e-9, horizon: float = 1000.0,
                            method: str = "auto") -> EvolutionResult:
    """Advance by unit time, with a propagator built once, until successive
    states differ by less than ``tol`` in 2-norm; ``ceil(horizon)`` units
    without that flag non-convergence."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not 0 <= horizon < np.inf:
        raise ValueError(f"horizon must be finite and non-negative, "
                         f"got {horizon}")
    n = state.n_sites
    method = _auto_method(spec, state) if method == "auto" else method
    if method == "diagonal":
        _diagonal_part(state)               # rejects states with coherences
        Q = diagonal_rate_matrix(spec)
        idx, ident = diag_indices(n), sp.identity(2 ** n, format="csr")
        advance = lambda v: _lift_diagonal(uniformized_rows(
            Q, v[idx].real, ident, [1.0])[0], n).amplitudes
    else:
        gen = assemble_lindbladian(spec).matrix
        advance = _step(gen, 1.0, method, _sector(gen, state))
    final, reached, converged, rows = _run(
        state, map(float, range(1, math.ceil(horizon) + 1)),
        _iterate(advance, state), True,
        lambda previous, current, _index: np.linalg.norm(
            current.amplitudes - previous.amplitudes) < tol)
    return EvolutionResult(final, reached, converged, "continuous", rows)


def crossing_time(t_grid: np.ndarray, values: np.ndarray,
                  threshold: float) -> float:
    """First grid time at which values exceed the threshold; NaN if never."""
    hit = values > threshold
    idx = np.argmax(hit)
    if not hit[idx]:
        return float("nan")
    return float(t_grid[idx])


# ---------------------------------------------------------------------------
# majority-voting worst-case convergence times (continuous track)


_POISSON_TAIL = 1e-16
_PROJECT_CHUNK = 64
_SMALL_K = 15
# most expected jumps (exit rate x time) a uniformized pass streams: about
# that many sparse products and 1/64 as many blocks of Poisson weights
_MAX_JUMPS = 1e8
_FACTORIAL = np.cumprod(np.r_[1.0, np.arange(1.0, _SMALL_K + 1)])


def _poisson_cutoff(mean: float) -> int:
    """Smallest K with P(X > K) <= 1e-16 for X ~ Poisson(mean)."""
    # K is at least floor(mean), below which the tail exceeds 1/2, and
    # Bernstein's inequality puts it below mean + 9 sqrt(mean) + 30.  The
    # tail is summed from the far end, mean + 14 sqrt(mean) + 80, past
    # which the weights are below 1e-32
    ks = np.arange(int(mean), int(mean + 14.0 * np.sqrt(mean)) + 81)
    w = _poisson_pmf(ks, np.array([mean]))[:, 0]
    tail = np.cumsum(w[::-1])[::-1][1:]           # P(X > k), k in ks[:-1]
    return int(ks[np.flatnonzero(tail <= _POISSON_TAIL)[0]])


def _stirling_error(k: np.ndarray) -> np.ndarray:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for k > 15, by its series."""
    inv2 = 1.0 / (k * k)
    return (1 / 12 - inv2 * (1 / 360 - inv2 * (
        1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / k


def _poisson_pmf(k: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Pois(k; mean) for every k (rows) and mean (columns).

    exp(-mean) mean^k / k! for k <= 15.  Above, Loader's saddle-point form
    exp(-stirling_error(k) - bd0) / sqrt(2 pi k), with bd0 = k log(k/mean)
    + mean - k summed as a series near k = mean, where the direct form
    cancels.  Neither takes a large logarithm, so the error stays a few
    units in the last place of the largest weight, whatever the mean.  Each
    form is evaluated only on the rows it serves.
    """
    k = np.asarray(k, dtype=float)
    m = np.asarray(means, dtype=float)[None, :]
    out = np.empty((len(k), m.shape[1]))
    small = k <= _SMALL_K
    x = k[small][:, None]
    out[small] = np.exp(-m) * m ** x / _FACTORIAL[x.astype(np.int64)]
    xs, ms = k[~small][:, None], np.where(m > 0, m, 1.0)
    diff, both = np.broadcast_arrays(xs - ms, xs + ms)
    bd0 = xs * np.log(xs / ms) - diff
    near = np.abs(diff) < 0.25 * both
    v = diff[near] / both[near]
    total = diff[near] * v
    term = 2.0 * np.broadcast_to(xs, near.shape)[near] * v
    for j in range(1, 15):       # |v| < 1/4: each term is 1/16 of the last
        term = term * (v * v)
        total = total + term / (2 * j + 1)
    bd0[near] = total
    saddle = np.exp(-_stirling_error(xs) - bd0) / np.sqrt(2.0 * np.pi * xs)
    out[~small] = np.where(m > 0, saddle, 0.0)
    return out


def _uniformized_blocks(Q: sp.spmatrix, p0: np.ndarray, obs: np.ndarray,
                        t_grid: np.ndarray
                        ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of :func:`uniformized_rows` as they become final.

    Yields ``(idx, rows)``: the grid indices whose rows are final after a
    block of 64 powers, in order of their time, and those rows.  The row of
    mean m = L t takes the Poisson weights of the blocks from the one that
    reaches k = m - 9 sqrt(m) (the lower tail below it is under 3e-18) to
    the one that reaches k = m + 9 sqrt(m) + 30, Bernstein's bound for an
    upper tail under 1e-16, and is then final; weights are evaluated only
    for those live rows.  The stream stops at the cutoff K of the latest
    time, where every row left is final.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and t_grid.min() < 0:
        raise ValueError("times must be non-negative")
    rate = max(float(-Q.diagonal().min()), 0.0) if Q.shape[0] else 0.0
    if t_grid.size and not np.isfinite(rate * t_grid.max()):
        raise FloatingPointError(f"exit rate {rate:g} over time "
                                 f"{t_grid.max():g} is not finite")
    if t_grid.size and rate * t_grid.max() > _MAX_JUMPS:
        raise ValueError(f"exit rate {rate:g} x time {t_grid.max():g} = "
                         f"{rate * t_grid.max():g} expected jumps is too "
                         f"large to stream by uniformization (at most "
                         f"{_MAX_JUMPS:g})")
    order = np.argsort(t_grid, kind="stable")
    means = rate * t_grid[order]
    width = 9.0 * np.sqrt(means)
    # m - 9 sqrt(m) falls below 0 before it rises; the running maximum
    # keeps the live rows a prefix of the unfinished ones
    first = np.maximum.accumulate(means - width)
    last = means + width + 30.0
    K = _poisson_cutoff(means[-1]) if means.size else 0
    step = sp.identity(Q.shape[0], format="csr") + Q / rate if rate else None
    rows = np.zeros((len(means), obs.shape[1]))
    weight = np.zeros(len(means))
    done = 0                  # rows [0, done) of the sorted grid are out
    v = np.asarray(p0, dtype=float)
    block = np.empty((_PROJECT_CHUNK, len(v)))
    for k in range(K + 1):
        j = k % _PROJECT_CHUNK
        block[j] = v
        if j == _PROJECT_CHUNK - 1 or k == K:
            live = int(np.searchsorted(first, k, side="right"))
            if live > done:
                w = _poisson_pmf(np.arange(k - j, k + 1), means[done:live])
                rows[done:live] += w.T @ (block[:j + 1] @ obs)
                weight[done:live] += w.sum(axis=0)
            final = (len(means) if k == K
                     else int(np.searchsorted(last, k, side="right")))
            if final > done:
                yield (order[done:final],
                       rows[done:final] / weight[done:final, None])
                done = final
        if k < K:
            v = step @ v


def uniformized_rows(Q: sp.spmatrix, p0: np.ndarray, obs: np.ndarray,
                     t_grid: np.ndarray) -> np.ndarray:
    """Rows ``obs^T exp(Q t) p0`` for every time of ``t_grid``, in one pass.

    ``Q`` is a rate matrix (columns sum to zero, off-diagonal entries
    non-negative).  Uniformization (Jensen's method): with the largest exit
    rate L and P = I + Q/L, exp(Q t) = sum_k Pois(k; L t) P^k.  The vectors
    P^k p0 are streamed once, up to the K at which the Poisson tail at the
    latest time is below 1e-16, and projected onto ``obs`` 64 at a time.
    Each block's Poisson weights are built for it alone, and only for the
    live times: those whose window k in [m - 9 sqrt(m), m + 9 sqrt(m) + 30],
    m = L t, the block reaches and has not passed (Fox & Glynn's truncation
    window, Commun. ACM 31:440, 1988).  A time's row is final once the
    stream passes its window, normalized to unit weight over the k it took
    (:func:`_uniformized_blocks`).  Time is linear in K, about
    L * max(t_grid) sparse matrix-vector products; memory is that of 64
    vectors and 64 rows of weights, whatever K is.  More than 1e8 expected
    jumps (L * max(t_grid)) is refused with a ValueError.
    """
    rows = np.empty((len(t_grid), obs.shape[1]))
    for idx, final in _uniformized_blocks(Q, p0, obs, t_grid):
        rows[idx] = final
    return rows


def _reachable_chain(spec: LindbladSpec, bits0: np.ndarray, exact_cap: int):
    """``(dyn, chain)``: the :class:`DiagonalDynamics` of ``spec``, and the
    arguments ``(Q, p0, bits_of)`` of :func:`uniformized_rows` on the set
    reachable from ``bits0``, or None when that holds more than
    ``exact_cap`` states."""
    dyn = DiagonalDynamics(spec)
    n = spec.n_sites
    try:
        codes, Q = dyn.reachable(bits0, cap=exact_cap)
    except MemoryError:
        return dyn, None
    bits_of = ((codes[:, None] >> (n - 1 - np.arange(n))) & 1).astype(float)
    p0 = np.zeros(len(codes))
    p0[0] = 1.0
    return dyn, (Q, p0, bits_of)


def mean_occupancy(spec: LindbladSpec, bits0: np.ndarray, t_grid: np.ndarray,
                   n_traj: int, rng: np.random.Generator,
                   exact_cap: int) -> tuple[np.ndarray, str]:
    """Per-site occupation curves from the basis state ``bits0``.

    Exact on the reachable subspace, by :func:`uniformized_rows`, when that
    holds at most ``exact_cap`` states ("diagonal-exact"); else the mean of
    ``n_traj`` Gillespie trajectories drawn from ``rng`` ("gillespie").
    Every time of ``t_grid`` is computed; :func:`_first_crossing` stops at
    the first time a function of the curves crosses 0.99.
    """
    dyn, chain = _reachable_chain(spec, bits0, exact_cap)
    if chain is None:
        return (dyn.gillespie_mean_occupancy(bits0, t_grid, n_traj, rng),
                "gillespie")
    return uniformized_rows(*chain, t_grid), "diagonal-exact"


def _first_crossing(spec: LindbladSpec, bits0: np.ndarray,
                    t_grid: np.ndarray,
                    reduce: Callable[[np.ndarray], np.ndarray], n_traj: int,
                    rng: np.random.Generator, exact_cap: int
                    ) -> tuple[float, str]:
    """``(tau, method)``: the first time of the ascending ``t_grid`` at which
    ``reduce`` of the :func:`mean_occupancy` rows exceeds 0.99, or NaN.

    The exact path stops streaming at the block that makes that row final;
    the Gillespie path fills every row and applies :func:`crossing_time`.
    """
    dyn, chain = _reachable_chain(spec, bits0, exact_cap)
    if chain is None:
        occ = dyn.gillespie_mean_occupancy(bits0, t_grid, n_traj, rng)
        return crossing_time(t_grid, reduce(occ), _MV_THRESHOLD), "gillespie"
    for idx, rows in _uniformized_blocks(*chain, t_grid):
        hit = np.flatnonzero(reduce(rows) > _MV_THRESHOLD)
        if len(hit):
            return float(t_grid[idx[hit[0]]]), "diagonal-exact"
    return float("nan"), "diagonal-exact"


def mv_worst_case_times(n_sites: int, n_traj: int = 400,
                        rng: np.random.Generator | None = None,
                        exact_cap: int = DEFAULT_EXACT_CAP) -> dict:
    """Worst-case spreading and consensus times on one ring.

    Spreading starts from the single half-filling cluster and stops when the
    mean occupation of the separated-target sites (the classical spreading
    endpoint) exceeds 0.99 of the achievable count.  Consensus starts from
    the maximal alternation with one minimal cluster and stops when the
    total density exceeds 0.99.  Each phase is computed only up to that
    first crossing (:func:`_first_crossing`).
    """
    from .classical import (mv_separated_target, mv_worst_consensus_input,
                            mv_worst_spread_input)
    from .models import mv_lindblads
    rng = rng or np.random.default_rng(0)
    spread_spec, consensus_spec = mv_lindblads(n_sites)

    bits_a = mv_worst_spread_input(n_sites)
    target = np.flatnonzero(mv_separated_target(bits_a))
    tau_spread, method_a = _first_crossing(
        spread_spec, bits_a, np.linspace(0.0, 4.0 * n_sites, _MV_SAMPLES),
        lambda occ: occ[:, target].sum(axis=1) / len(target), n_traj, rng,
        exact_cap)

    bits_b = mv_worst_consensus_input(n_sites)
    tau_consensus, method_b = _first_crossing(
        consensus_spec, bits_b, np.linspace(0.0, 3.0 * n_sites, _MV_SAMPLES),
        lambda occ: occ.sum(axis=1) / n_sites, n_traj, rng, exact_cap)

    return {
        "n_sites": n_sites,
        "tau_spread": tau_spread,
        "tau_consensus": tau_consensus,
        "tau_total": tau_spread + tau_consensus,
        "method_spread": method_a,
        "method_consensus": method_b,
    }
