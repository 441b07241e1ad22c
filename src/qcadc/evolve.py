"""Time evolution: discrete stepping, continuous Lindblad flows, the
diagonal classical fast path, and fixed-point detection.

Every run builds its flow of vectors on the block of doubled indices the
state reaches (repeated application of one step, or the propagator) and
hands it to one sampling driver, :func:`_run`.  The driver checks each
vector on its block, raising ``FloatingPointError`` on the first non-finite
one, and stops a fixed-point search on that block.  A recorded sample and
the final state stay block states (:class:`superop.VecState` with
``codes``), read through their 2^N diagonal; only a run given a 4^N state
scatters its final state back to 4^N.  A state that reaches more than
``_MAX_REACHED`` doubled indices is refused with a ValueError.

A discrete run steps the closure of the state's support under every window
of its rule (:meth:`models.DiscreteRule.reachable`), with the step built
once on that set by the one block product every step uses; when the
closure is every index, that product is the 4^N step and the run steps the
4^N vector.  A run on the closure gives the same vectors to the bit as the
4^N step: the set is closed under each window factor, so the restricted
factors multiply to the restricted step with the same summands in the same
order, and a step of the vector drops only terms whose vector entry is
exactly 0.

Continuous runs and the fixed-point search share one propagator,
:func:`_propagate`.  It runs on the set of doubled indices the initial
state can reach (:func:`superop.reachable_generator`): the closure of its
support under the stored entries of the local terms, with the generator's
columns built on that set alone, never the 4^N matrix.  The generator
never leaves the set, so amplitudes outside it are zero at t = 0 and stay
exactly zero.  ``auto`` picks the method from the block:

* ``diagonal``  -- the block is a classical rate matrix: every reached
                   index is diagonal (ket digit equal to bra digit at every
                   site), every entry real and every off-diagonal entry
                   non-negative.  The probabilities on the block follow it
                   in one uniformization pass over the whole time grid; a
                   fixed-point search streams its horizon in passes of at
                   most ``_MAX_JUMPS`` expected jumps, each from the last
                   state of the one before.
* ``dense``     -- otherwise, up to 4^N = ``DENSE_EXPM_CAP`` = 4096: one
                   dense exponential of the block per run.
* ``krylov``    -- otherwise, above that: Arnoldi approximation of
                   exp(L dt) v per sample, with adaptive substepping.

Off the diagonal path ``auto`` decides on 4^N, not on the set's size, so a
config's method label does not depend on how far its initial state
reaches; on a small set both methods are cheap (the N = 7 dephasing run
from two adjacent particles reaches 441 indices).  A caller may force
``dense`` (on a block of at most ``DENSE_EXPM_CAP`` indices) or ``krylov``,
the two reference kernels that tests compare against.

The majority-voting runs read per-site occupation curves from one stream,
:func:`_occupancy`: exact on the ascending reachable set of
:meth:`DiagonalDynamics.reachable`, by uniformization, or one block of
Gillespie means when that set holds more than ``exact_cap`` states, drawn
from the moves the capped search matched before it stopped.

Both kinds of reachable set, doubled indices and the classical chain's
basis codes, come from one kernel: :func:`superop.closure` on a move table
of local matrices (:func:`superop.move_table`, radix 4 or 2).
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

from .config import DENSE_EXPM_CAP
from .models import DiscreteRule
from .observables import density_n, expval_sz, trace_of
# not called; perfbench/tracer.py patches this name and fails without it
from .superop import assemble_lindbladian  # noqa: F401
from .superop import (LindbladSpec, VecState, _is_diagonal, basis_moves,
                      closure, match_moves, move_table, reachable_generator)

__all__ = [
    "EvolutionResult", "KrylovError", "NotBasisPreservingError",
    "discrete_run", "continuous_evolve",
    "diagonal_rate_matrix", "is_basis_preserving", "DiagonalDynamics",
    "converge_to_fixed_point", "krylov_expmv", "crossing_time",
    "mean_occupancy",
]

DEFAULT_SAMPLES = 64
DEFAULT_EXACT_CAP = 40_000  # reachable states solved exactly, not sampled
_KRYLOV_TOL = 1e-10         # Krylov error budget relative to |v|, over t
_KRYLOV_DIM = 40            # Arnoldi basis size per Krylov substep
_MV_SAMPLES = 600           # time-grid points of each mv worst-case run
_MV_THRESHOLD = 0.99        # the fraction at which that run is done
# most doubled indices a run's state reaches: a discrete, continuous or
# converge run from a state that reaches more is refused (ValueError)
_MAX_REACHED = 1 << 20


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


def _iterate(step: Callable[[np.ndarray], np.ndarray],
             v: np.ndarray) -> Iterator[np.ndarray]:
    """The vectors after one, two, ... applications of ``step`` to ``v``."""
    while True:
        v = step(v)
        yield v


def _run(state: VecState, times: Iterable[float], codes: np.ndarray | None,
         flow: Iterator[np.ndarray], record: bool, tol: float | None = None):
    """Sample ``state`` at t = 0, then the vectors of ``flow`` at ``times``.

    ``flow`` yields amplitudes on the doubled indices ``codes`` (zero off
    them), or on every index when ``codes`` is None.  Each vector is
    checked on its block, and a recorded row reads it as a block state on
    ``codes``.  Returns (final state, time reached, whether the run
    converged, trajectory or None); the final state is a block state on
    ``codes``, or a 4^N one when ``state`` is.  With ``tol`` the run
    converges, and stops, at the first vector within ``tol`` in 2-norm of
    the one before it (the first is compared with ``state``).  A non-finite
    vector raises ``FloatingPointError``.
    """
    n = state.n_sites

    def at(block: np.ndarray) -> VecState:   # a diagonal flow's are real
        return VecState(n, np.asarray(block, dtype=complex), codes)

    rows = [_sample_row(0.0, state)] if record else None
    previous = state.amplitudes_on(codes)
    block, reached, converged = None, 0.0, False
    # times first: the flow computes no state past the last time
    for tk, block in zip(times, flow):
        if not np.all(np.isfinite(block)):
            raise FloatingPointError(f"non-finite amplitudes at t = {tk:g}")
        if record:
            rows.append(_sample_row(tk, at(block)))
        reached = float(tk)
        if tol is not None and np.linalg.norm(block - previous) < tol:
            converged = True
            break
        previous = block
    final = state if block is None else at(block)
    if state.codes is None:
        final = final.full()
    return final, reached, converged, (np.array(rows) if record else None)


def discrete_run(rule: DiscreteRule, state: VecState, max_steps: int,
                 record: bool = True) -> EvolutionResult:
    """Apply the step of ``rule`` ``max_steps`` times, on the block of
    doubled indices the state reaches (:meth:`DiscreteRule.reachable`), or
    on the 4^N step when that block is every index."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if rule.n_sites != state.n_sites:
        raise ValueError("step dimension does not match state")
    codes, step = rule.reachable(state.support(), _MAX_REACHED)
    final, reached, _, rows = _run(
        state, map(float, range(1, max_steps + 1)), codes,
        _iterate(lambda v: step @ v, state.amplitudes_on(codes)), record)
    return EvolutionResult(final, reached, False, "discrete", rows)


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
    """Whether :class:`DiagonalDynamics` accepts ``spec``: no Hamiltonian
    terms, and every jump of nonzero rate, of any width, maps each basis
    state of its support to a scaled basis state or to zero.  It guards the
    classical-shadow tools (the mv scan, Gillespie sampling, the ML rate
    matrices).  Continuous runs do not ask it; their diagonal path applies
    when the reachable block is a rate matrix (:func:`_propagate`)."""
    try:
        DiagonalDynamics(spec)
    except NotBasisPreservingError:
        return False
    return True


def _code_of(bits) -> int:
    """Basis code of a bit string; site 0 is the most significant bit."""
    code = 0
    for b in bits:
        code = (code << 1) | int(b)
    return code


def _by_source(parts: list[tuple[np.ndarray, np.ndarray]], rows: int
               ) -> tuple[np.ndarray, ...]:
    """``(codes, starts, ends, move)`` of the per-frontier ``(move, src)``
    matches of a capped :func:`superop.closure` on a table of ``rows``
    rows: ``codes`` ascending, and the rows ``codes[i]`` matches are
    ``move[starts[i]:ends[i]]``, in row order.

    A code's matches all come from the one frontier that held it, in row
    order, so a stable sort of each frontier by source keeps the order that
    :func:`superop.match_moves` gives for the code alone.  Only compact
    arrays outlive a frontier, and the frontiers' arrays are never joined,
    so a capped run's peak memory stays that of its search.
    """
    row_type = np.min_scalar_type(rows)
    codes, counts, moves = [], [], []
    for move, src in parts:
        code, count = np.unique(src, return_counts=True)
        codes.append(code)
        counts.append(count)
        moves.append(move[np.argsort(src, kind="stable")].astype(row_type))
    codes, counts, move = map(np.concatenate, (codes, counts, moves))
    ends = np.cumsum(counts)
    order = np.argsort(codes)
    return codes[order], (ends - counts)[order], ends[order], move


class DiagonalDynamics:
    """Classical continuous-time Markov chain restriction of a generator.

    Valid only for basis-preserving specs (:func:`is_basis_preserving`),
    whose jumps may differ in width.  Each jump's local rate matrix, rate
    |<out|L|in>|^2 at (out, in) for in != out, goes into one radix-2 move
    table in spec order, and its matcher (:func:`superop.match_moves`)
    gives the full 2^N rate matrix, the reachable-subspace restriction and
    the moves of exact-jump (Gillespie) trajectory sampling.  Each distinct
    jump matrix is probed (:func:`superop.basis_moves`) once.
    """

    def __init__(self, spec: LindbladSpec):
        if spec.hamiltonian_terms:
            raise NotBasisPreservingError(
                "spec has Hamiltonian terms; the diagonal restriction "
                "only exists for pure-jump basis-preserving generators")
        self.n_sites = spec.n_sites
        terms, probes = [], {}
        for op, rate in spec.jumps:
            if rate == 0.0:
                continue
            matrix = op.matrix
            key = (matrix.dtype.str, matrix.shape, matrix.tobytes())
            if key not in probes:
                probes[key] = basis_moves(matrix)
            probed = probes[key]
            if probed is None:
                raise NotBasisPreservingError(
                    f"jump on sites {op.sites} maps a basis state to a "
                    f"superposition; no diagonal restriction exists")
            local = np.zeros(op.matrix.shape)
            for in_code, out_code, weight in probed:
                if in_code != out_code:
                    local[out_code, in_code] = rate * weight
            terms.append((local, op.sites))
        self._table = move_table(terms, self.n_sites, 2)
        # the matches of a capped reachable search, by source code
        # (_by_source); Gillespie sampling starts from them
        self._known = (np.empty(0, dtype=np.int64),) * 4

    def _rate_matrix(self, codes: np.ndarray, move: np.ndarray,
                     src: np.ndarray, dst: np.ndarray) -> sp.csr_matrix:
        """The rate matrix on the ascending ``codes`` from their moves."""
        dim = len(codes)
        Q = sp.coo_matrix((self._table.value[move],
                           (np.searchsorted(codes, dst),
                            np.searchsorted(codes, src))),
                          shape=(dim, dim)).tocsr()
        return Q - sp.diags(np.asarray(Q.sum(axis=0)).ravel())

    # -- full rate matrix --------------------------------------------------

    def rate_matrix(self) -> sp.csr_matrix:
        codes = np.arange(2 ** self.n_sites, dtype=np.int64)
        Q = self._rate_matrix(codes, *match_moves(self._table, codes))
        Q.sort_indices()
        return Q

    # -- reachable subspace -------------------------------------------------

    def reachable(self, bits0: np.ndarray, cap: int = 3_000_000):
        """(codes, Q_sub) for the subspace reachable from one basis state:
        ``codes`` holds every state reached, ascending (:func:`closure`),
        and ``Q_sub`` is the rate matrix on them, built from the moves the
        closure matched.  A set of more than ``cap`` states raises
        ``MemoryError``; the moves matched until then are kept, grouped by
        code, for :meth:`gillespie_mean_occupancy` to start from.
        """
        codes, found = closure(self._table, [_code_of(bits0)], cap)
        if codes is None:
            self._known = _by_source(found, len(self._table.mask))
            raise MemoryError(f"reachable set exceeds cap {cap}")
        return codes, self._rate_matrix(codes, *found)

    # -- Gillespie sampling ---------------------------------------------------

    def gillespie_mean_occupancy(self, bits0: np.ndarray, t_grid: np.ndarray,
                                 n_traj: int, rng: np.random.Generator
                                 ) -> np.ndarray:
        """Trajectory-averaged per-site occupation on a fixed time grid.

        Each visited code's moves, cumulative rates and total rate are
        found once per call: among the moves of a capped :meth:`reachable`
        search when it matched that code, else by matching the code alone.
        Times and moves are looked up by bisection in Python lists.  Each
        stay of a trajectory that holds grid points is recorded as (first
        grid index, end grid index, code); the occupations are summed once
        from those stays, as a difference array over the grid.  The counts
        are whole numbers, so the sums are exact.
        """
        from array import array
        from bisect import bisect_left
        n, table = self.n_sites, self._table
        known, starts, ends, known_move = self._known
        keep, put = (~table.mask).tolist(), table.put.tolist()
        grid = np.asarray(t_grid, dtype=float).tolist()
        start = _code_of(bits0)
        seen, visited = {}, []
        stays = array("q")          # (first, end, visited index) triples
        for _ in range(n_traj):
            code, now, gi = start, 0.0, 0
            while gi < len(grid):
                if code not in seen:
                    i = known.searchsorted(code)
                    if i < len(known) and known[i] == code:
                        move = known_move[starts[i]:ends[i]]
                    else:
                        move = match_moves(table, [code])[0]
                    rates = table.value[move]
                    seen[code] = (len(visited),
                                  [(code & keep[m]) | put[m]
                                   for m in move.tolist()],
                                  np.cumsum(rates).tolist(),
                                  float(rates.sum()))
                    visited.append(code)
                index, dst, cum_rates, total = seen[code]
                if not dst:
                    stays.extend((gi, len(grid), index))
                    break
                now += rng.exponential(1.0 / total)
                gj = bisect_left(grid, now)
                if gj > gi:
                    stays.extend((gi, gj, index))
                    gi = gj
                code = dst[bisect_left(cum_rates, rng.random() * total)]
        first, end, index = np.frombuffer(stays, dtype=np.int64).reshape(
            -1, 3).T
        bits = (np.array(visited, dtype=np.int64)[:, None]
                >> (n - 1 - np.arange(n))) & 1
        ones = np.ones(len(index))
        # row g: the stays that begin at grid index g less those that end
        change = sp.coo_matrix((np.r_[ones, -ones],
                                (np.r_[first, end], np.r_[index, index])),
                               shape=(len(grid) + 1, len(visited)))
        return np.cumsum(change.tocsr() @ bits, axis=0)[:-1] / n_traj


def diagonal_rate_matrix(spec: LindbladSpec) -> sp.csr_matrix:
    """Classical generator Q with Q[s', s] = sum_k |<s'|L_k|s>|^2 off the
    diagonal and columns summing to zero."""
    return DiagonalDynamics(spec).rate_matrix()


# ---------------------------------------------------------------------------
# continuous evolution


def _is_rate_matrix(codes: np.ndarray, sub: sp.csr_matrix,
                    n_sites: int) -> bool:
    """Whether the generator ``sub`` on the doubled indices ``codes`` is a
    classical rate matrix: every index diagonal, no entry with a nonzero
    imaginary part and no negative off-diagonal entry.  A non-finite entry
    is not held against it; the run reports that as a numerical failure."""
    if not _is_diagonal(codes, n_sites).all():
        return False
    coo = sub.tocoo()
    off = coo.data.real[coo.row != coo.col]
    return not (np.any(np.abs(coo.data.imag) > 0) or np.any(off < 0))


def _propagate(spec: LindbladSpec, state: VecState, dt: float, count: int,
               method: str, passes: bool = False
               ) -> tuple[str, np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """``(method, times, codes, flow)``: the method ``method`` stands for,
    the times k dt for k = 1..count, the doubled indices ``state`` can
    reach, and the flow of exp(L t)[state] on those indices at those times.
    The generator and the propagator are built once, on ``codes``; see the
    module docstring.  ``passes`` streams a diagonal flow in passes of at
    most ``_MAX_JUMPS`` expected jumps (:func:`_uniformized_flow`)."""
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    n = state.n_sites
    codes, sub = reachable_generator(spec, state.support(), _MAX_REACHED)
    if method == "auto":
        method = ("diagonal" if _is_rate_matrix(codes, sub, n) else
                  "dense" if 4 ** n <= DENSE_EXPM_CAP else "krylov")
    w = state.amplitudes_on(codes)
    if method == "diagonal":
        flow = _uniformized_flow(sub.real, w.real, dt, count, passes)
    elif method == "dense":
        if len(codes) > DENSE_EXPM_CAP:
            raise ValueError(f"the dense method takes at most "
                             f"{DENSE_EXPM_CAP:,} reached doubled indices; "
                             f"the state reaches {len(codes):,}")
        prop = expm(sub.toarray() * dt)
        flow = _iterate(lambda v: prop @ v, w)
    else:
        flow = _iterate(lambda v: krylov_expmv(sub, v, dt), w)
    return method, dt * np.arange(1, count + 1), codes, flow


def continuous_evolve(spec: LindbladSpec, state: VecState, t: float,
                      method: str = "auto", samples: int = DEFAULT_SAMPLES,
                      record: bool = True) -> EvolutionResult:
    """state -> exp(L t)[state] with trajectory sampling.

    ``samples`` evenly spaced intermediate states are recorded (the paper-
    style coarse profiles need no more); sampling is exact, not interpolated.
    At t = 0 the method is still resolved and checked, and the run is the
    single t = 0 row.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    method, times, codes, flow = _propagate(spec, state, t / samples,
                                            samples if t else 0, method)
    final, _, _, rows = _run(state, times, codes, flow, record)
    return EvolutionResult(final, t, True, method, rows)


# ---------------------------------------------------------------------------
# fixed points


def converge_to_fixed_point(spec: LindbladSpec, state: VecState,
                            tol: float = 1e-9, horizon: float = 1000.0,
                            method: str = "auto") -> EvolutionResult:
    """Advance by unit time, on one propagator (:func:`_propagate`), until
    successive states differ by less than ``tol`` in 2-norm; ``ceil(horizon)``
    units without that flag non-convergence.  The test is taken on the
    block of doubled indices the state reaches; a diagonal run streams the
    horizon in passes of bounded length, so one that converges early is
    not refused for the length of its horizon."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not 0 <= horizon < np.inf:
        raise ValueError(f"horizon must be finite and non-negative, "
                         f"got {horizon}")
    method, times, codes, flow = _propagate(
        spec, state, 1.0, math.ceil(horizon), method, passes=True)
    final, reached, converged, rows = _run(state, times, codes, flow, True,
                                           tol)
    return EvolutionResult(final, reached, converged, method, rows)


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


def _poisson_block(k0: int, count: int, means: np.ndarray) -> np.ndarray:
    """Pois(k; mean) for k = k0..k0 + count - 1 (rows) and every mean
    (columns): :func:`_poisson_pmf` at k0, then the ratio recursion
    w(k) = w(k - 1) mean / k down the block, as one running product."""
    means = np.asarray(means, dtype=float)
    factors = np.empty((count, len(means)))
    factors[0] = _poisson_pmf(np.array([k0]), means)[0]
    factors[1:] = means / np.arange(k0 + 1.0, k0 + count)[:, None]
    return np.cumprod(factors, axis=0)


def _uniformized_blocks(Q: sp.spmatrix, p0: np.ndarray, obs: np.ndarray,
                        t_grid: np.ndarray
                        ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows ``obs^T exp(Q t) p0`` for every time of ``t_grid``, in one pass,
    yielded as they become final.

    ``Q`` is a rate matrix (columns sum to zero, off-diagonal entries
    non-negative).  Uniformization (Jensen's method): with the largest exit
    rate L and P = I + Q/L, exp(Q t) = sum_k Pois(k; L t) P^k.  The vectors
    P^k p0 are streamed once, up to the cutoff K at which the Poisson tail
    at the latest time is below 1e-16, and projected onto ``obs`` 64 at a
    time.  Yields ``(idx, rows)``: the grid indices whose rows are final
    after a block of 64 powers, in order of their time, and those rows.

    Each block's Poisson weights are built for it alone, and only for the
    live times: those whose window k in [m - 9 sqrt(m), m + 9 sqrt(m) + 30],
    m = L t, the block reaches and has not passed (Fox & Glynn's truncation
    window, Commun. ACM 31:440, 1988; the lower tail below it is under
    3e-18, and Bernstein's bound puts the upper tail under 1e-16).  A live
    time's weights are seeded at the block's first power by the point form
    :func:`_poisson_pmf` and carried down the block by Fox & Glynn's ratio
    recursion w(k) = w(k - 1) m / k (:func:`_poisson_block`).  Re-seeding
    every block bounds the rounding to 63 recursion steps, each of two
    roundings, on top of the seed's own error: a few units in the last place
    of the largest weight.  A time's row is final once the stream passes its
    window, normalized to unit weight over the k it took.  The stream stops
    at K, where every row left is final.

    Time is linear in K, about L * max(t_grid) sparse matrix-vector
    products; memory is that of 64 vectors and 64 rows of weights, whatever
    K is.  More than 1e8 expected jumps (L * max(t_grid)) is refused with a
    ValueError.
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
                w = _poisson_block(k - j, j + 1, means[done:live])
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


def _uniformized_flow(Q: sp.spmatrix, p0: np.ndarray, dt: float, count: int,
                      passes: bool) -> Iterator[np.ndarray]:
    """exp(Q k dt) p0 for k = 1..count, by uniformization: one pass over
    every time, or with ``passes`` passes of at most ``_MAX_JUMPS`` expected
    jumps (one step at least), each from the last vector of the one before.
    :func:`_uniformized_blocks` refuses a pass over that budget."""
    eye = sp.identity(Q.shape[0], format="csr")
    jumps = max(float(-Q.diagonal().min()), 0.0) * dt if Q.shape[0] else 0.0
    span = (max(1, int(_MAX_JUMPS / jumps))
            if passes and jumps * count > _MAX_JUMPS else max(count, 1))
    for start in range(0, count, span):
        times = dt * np.arange(1, min(span, count - start) + 1)
        for _, rows in _uniformized_blocks(Q, p0, eye, times):
            yield from rows
        p0 = rows[-1]


def _occupancy(spec: LindbladSpec, bits0: np.ndarray, t_grid: np.ndarray,
               n_traj: int, rng: np.random.Generator, exact_cap: int
               ) -> tuple[str, Iterable[tuple[np.ndarray, np.ndarray]]]:
    """``(method, blocks)``: the per-site occupation curves from the basis
    state ``bits0`` on the ascending ``t_grid``, as ``(idx, rows)`` blocks
    whose grid indices ``idx`` come in order of time.

    Exact on the reachable subspace, streamed by
    :func:`_uniformized_blocks`, when that holds at most ``exact_cap``
    states ("diagonal-exact"); else one block of every row, the mean of
    ``n_traj`` Gillespie trajectories drawn from ``rng`` ("gillespie"),
    which start from the moves the capped search matched.
    """
    dyn = DiagonalDynamics(spec)
    try:
        codes, Q = dyn.reachable(bits0, cap=exact_cap)
    except MemoryError:
        occ = dyn.gillespie_mean_occupancy(bits0, t_grid, n_traj, rng)
        return "gillespie", [(np.arange(len(t_grid)), occ)]
    n = spec.n_sites
    bits_of = ((codes[:, None] >> (n - 1 - np.arange(n))) & 1).astype(float)
    p0 = np.zeros(len(codes))
    p0[np.searchsorted(codes, _code_of(bits0))] = 1.0
    return "diagonal-exact", _uniformized_blocks(Q, p0, bits_of, t_grid)


def mean_occupancy(spec: LindbladSpec, bits0: np.ndarray, t_grid: np.ndarray,
                   n_traj: int, rng: np.random.Generator,
                   exact_cap: int) -> tuple[np.ndarray, str]:
    """Per-site occupation curves from the basis state ``bits0``: every
    block of :func:`_occupancy`, collected.  :func:`_first_crossing` reads
    the same stream and stops at the first time a function of the curves
    crosses 0.99.
    """
    method, blocks = _occupancy(spec, bits0, t_grid, n_traj, rng, exact_cap)
    occ = np.empty((len(t_grid), spec.n_sites))
    for idx, rows in blocks:
        occ[idx] = rows
    return occ, method


def _first_crossing(spec: LindbladSpec, bits0: np.ndarray,
                    t_grid: np.ndarray,
                    reduce: Callable[[np.ndarray], np.ndarray], n_traj: int,
                    rng: np.random.Generator, exact_cap: int
                    ) -> tuple[float, str]:
    """``(tau, method)``: the first time of the ascending ``t_grid`` at which
    ``reduce`` of the :func:`mean_occupancy` rows exceeds 0.99, or NaN.

    The blocks of :func:`_occupancy` are scanned in order of time, so the
    exact stream stops at the block that makes that row final.
    """
    method, blocks = _occupancy(spec, bits0, t_grid, n_traj, rng, exact_cap)
    for idx, rows in blocks:
        hit = np.flatnonzero(reduce(rows) > _MV_THRESHOLD)
        if len(hit):
            return float(t_grid[idx[hit[0]]]), method
    return float("nan"), method


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
