"""Time evolution: discrete stepping, continuous Lindblad flows, Trotter
splitting, the diagonal classical fast path, and fixed-point detection.

Method selection for continuous evolution:

* ``diagonal``  -- the generator is basis preserving and the state diagonal;
                   evolve the 2^N probability vector under the classical
                   rate matrix (exactly the restriction of the Lindbladian).
* ``dense``     -- dense matrix exponential of the 4^N generator.
* ``krylov``    -- Arnoldi approximation of exp(L t) v with adaptive
                   substepping.
* ``auto``      -- diagonal when admissible, dense up to 4^N = 4096, else
                   krylov.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .config import DENSE_EXPM_CAP, TOL
from .observables import (density_n, diag_indices, diag_probabilities,
                          expval_sz, trace_of)
from .superop import LindbladSpec, SuperOp, VecState, assemble_lindbladian

__all__ = [
    "EvolutionResult", "KrylovError", "NotBasisPreservingError",
    "discrete_run", "continuous_evolve", "trotter_even_odd",
    "diagonal_rate_matrix", "is_basis_preserving", "DiagonalDynamics",
    "converge_to_fixed_point", "krylov_expmv", "crossing_time",
]

DEFAULT_SAMPLES = 64


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
    meta: dict = field(default_factory=dict)


def _sample_row(t: float, state: VecState) -> tuple[float, float, float, float]:
    return (t, density_n(state) / state.n_sites, expval_sz(state),
            trace_of(state).real)


# ---------------------------------------------------------------------------
# discrete stepping


def discrete_run(step: "SuperOp | Sequence[SuperOp] | Callable[[int], SuperOp]",
                 state: VecState, max_steps: int,
                 stop: Callable[[VecState, VecState, int], bool] | None = None,
                 record: bool = True) -> EvolutionResult:
    """Apply steps in order, optionally stopping early.

    ``step`` may be a single map, a fixed schedule applied cyclically, or a
    provider called with the step index (used for coin-flip mixtures).
    ``stop(previous, current, index)`` ends the run when it returns True.
    """
    if isinstance(step, SuperOp):
        provider = lambda k: step
    elif callable(step):
        provider = step
    else:
        schedule = list(step)
        provider = lambda k: schedule[k % len(schedule)]

    rows = [_sample_row(0.0, state)] if record else None
    current = state
    steps_done = 0
    converged = False
    for k in range(max_steps):
        op = provider(k)
        if op.matrix.shape[0] != len(current.amplitudes):
            raise ValueError("step dimension does not match state")
        new = VecState(current.n_sites, op.matrix @ current.amplitudes)
        if not np.all(np.isfinite(new.amplitudes)):
            raise FloatingPointError(f"non-finite amplitudes at step {k + 1}")
        steps_done = k + 1
        if record:
            rows.append(_sample_row(float(steps_done), new))
        prev, current = current, new
        if stop is not None and stop(prev, current, steps_done):
            converged = True
            break
    return EvolutionResult(
        final_state=current, time_reached=float(steps_done),
        converged=converged, method_used="discrete",
        trajectory=np.array(rows) if record else None)


# ---------------------------------------------------------------------------
# Krylov matrix exponential action


def krylov_expmv(A: sp.spmatrix, v: np.ndarray, t: float, tol: float = 1e-10,
                 max_dim: int = 40, max_substeps: int = 10000) -> np.ndarray:
    """Arnoldi approximation of exp(A t) v with adaptive substepping.

    The per-substep error is estimated from the last subdiagonal element of
    the Hessenberg matrix; a substep is retried with half the step when the
    estimate exceeds the tolerance budget.
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
        V = np.zeros((len(w), max_dim + 1), dtype=complex)
        H = np.zeros((max_dim + 1, max_dim), dtype=complex)
        V[:, 0] = w / beta
        m_used = max_dim
        happy = False
        for j in range(max_dim):
            u = A @ V[:, j]
            for i in range(j + 1):
                H[i, j] = np.vdot(V[:, i], u)
                u -= H[i, j] * V[:, i]
            # one re-orthogonalization pass keeps the basis clean
            for i in range(j + 1):
                c = np.vdot(V[:, i], u)
                H[i, j] += c
                u -= c * V[:, i]
            H[j + 1, j] = np.linalg.norm(u)
            if H[j + 1, j] < 1e-14 * scale:
                m_used = j + 1
                happy = True
                break
            V[:, j + 1] = u / H[j + 1, j]
        Hm = H[:m_used, :m_used]
        expH = expm(Hm * dt)
        if happy:
            err = 0.0
        else:
            err = abs(beta * H[m_used, m_used - 1] * dt * expH[m_used - 1, 0])
        budget = tol * scale * (dt / abs(t))
        if err > budget and dt > abs(t) / max_substeps:
            dt /= 2
            substeps += 1
            continue
        w = beta * (V[:, :m_used] @ expH[:, 0])
        remaining -= dt
        substeps += 1
        if err < 0.1 * budget:
            dt *= 2
    return w


# ---------------------------------------------------------------------------
# diagonal (classical Markov) fast path


def _probe_jump(op_matrix: np.ndarray, width: int):
    """Action of a jump on each basis pattern of its support.

    Returns a list of (in_code, out_code, weight) with weight = |amplitude|^2,
    or raises if some column is not a scaled basis vector.
    """
    moves = []
    for code in range(2 ** width):
        col = op_matrix[:, code]
        nz = np.flatnonzero(np.abs(col) > 1e-14)
        if len(nz) == 0:
            continue
        if len(nz) > 1:
            return None
        moves.append((code, int(nz[0]), float(abs(col[nz[0]]) ** 2)))
    return moves


def is_basis_preserving(spec: LindbladSpec) -> bool:
    if spec.hamiltonian_terms:
        return False
    return all(_probe_jump(op.matrix, op.width) is not None
               for op, _rate in spec.jumps)


@dataclass
class _MoveTable:
    sites: np.ndarray       # (n_moves, width) site indices
    in_code: np.ndarray     # (n_moves,)
    out_code: np.ndarray    # (n_moves,)
    rate: np.ndarray        # (n_moves,)
    width: int


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
            probed = _probe_jump(op.matrix, op.width)
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
        self._table = _MoveTable(
            sites=np.array([r[0] for r in rows], dtype=np.int64).reshape(len(rows), width),
            in_code=np.array([r[1] for r in rows], dtype=np.int64),
            out_code=np.array([r[2] for r in rows], dtype=np.int64),
            rate=np.array([r[3] for r in rows], dtype=float),
            width=width,
        )

    # -- full rate matrix --------------------------------------------------

    def rate_matrix(self) -> sp.csr_matrix:
        n = self.n_sites
        dim = 2 ** n
        t = self._table
        states = np.arange(dim, dtype=np.int64)
        rows_out, cols_in, vals = [], [], []
        shifts = n - 1 - t.sites          # bit positions, site 0 = MSB
        for m in range(len(t.in_code)):
            code = np.zeros(dim, dtype=np.int64)
            for w in range(t.width):
                code = (code << 1) | ((states >> shifts[m, w]) & 1)
            match = code == t.in_code[m]
            src = states[match]
            dst = src.copy()
            for w in range(t.width):
                bit = (t.out_code[m] >> (t.width - 1 - w)) & 1
                dst = np.where(bit, dst | (1 << shifts[m, w]),
                               dst & ~(1 << shifts[m, w]))
            rows_out.append(dst)
            cols_in.append(src)
            vals.append(np.full(len(src), t.rate[m]))
        if rows_out:
            rows_all = np.concatenate(rows_out)
            cols_all = np.concatenate(cols_in)
            vals_all = np.concatenate(vals)
        else:
            rows_all = cols_all = np.array([], dtype=np.int64)
            vals_all = np.array([], dtype=float)
        Q = sp.coo_matrix((vals_all, (rows_all, cols_all)), shape=(dim, dim)).tocsr()
        Q = Q - sp.diags(np.asarray(Q.sum(axis=0)).ravel())
        Q.sort_indices()
        return Q

    # -- reachable subspace -------------------------------------------------

    def _state_moves(self, code: int) -> list[tuple[int, float]]:
        n = self.n_sites
        t = self._table
        out = []
        for m in range(len(t.in_code)):
            c = 0
            for w in range(t.width):
                c = (c << 1) | ((code >> (n - 1 - int(t.sites[m, w]))) & 1)
            if c != t.in_code[m]:
                continue
            dst = code
            for w in range(t.width):
                bit = (t.out_code[m] >> (t.width - 1 - w)) & 1
                pos = n - 1 - int(t.sites[m, w])
                dst = dst | (1 << pos) if bit else dst & ~(1 << pos)
            out.append((dst, float(t.rate[m])))
        return out

    def reachable(self, bits0: np.ndarray, cap: int = 3_000_000):
        """(codes, Q_sub) for the subspace reachable from one basis state."""
        n = self.n_sites
        start = 0
        for b in bits0:
            start = (start << 1) | int(b)
        index = {start: 0}
        order = [start]
        edges: list[tuple[int, int, float]] = []
        frontier = [start]
        while frontier:
            nxt = []
            for code in frontier:
                for dst, rate in self._state_moves(code):
                    if dst not in index:
                        if len(index) >= cap:
                            raise MemoryError(
                                f"reachable set exceeds cap {cap}")
                        index[dst] = len(order)
                        order.append(dst)
                        nxt.append(dst)
                    edges.append((index[dst], index[code], rate))
            frontier = nxt
        dim = len(order)
        if edges:
            r, c, v = zip(*edges)
        else:
            r = c = v = ()
        Q = sp.coo_matrix((v, (r, c)), shape=(dim, dim)).tocsr()
        Q = Q - sp.diags(np.asarray(Q.sum(axis=0)).ravel())
        return np.array(order, dtype=np.int64), Q

    # -- Gillespie sampling ---------------------------------------------------

    def gillespie_mean_occupancy(self, bits0: np.ndarray, t_grid: np.ndarray,
                                 n_traj: int, rng: np.random.Generator
                                 ) -> np.ndarray:
        """Trajectory-averaged per-site occupation on a fixed time grid."""
        n = self.n_sites
        t = self._table
        acc = np.zeros((len(t_grid), n))
        shifts = n - 1 - t.sites
        out_bits = np.array(
            [[(t.out_code[m] >> (t.width - 1 - w)) & 1 for w in range(t.width)]
             for m in range(len(t.in_code))], dtype=np.uint8
        ).reshape(len(t.in_code), t.width)
        for _ in range(n_traj):
            bits = np.asarray(bits0, dtype=np.uint8).copy()
            now = 0.0
            gi = 0
            while gi < len(t_grid):
                codes = np.zeros(len(t.in_code), dtype=np.int64)
                for w in range(t.width):
                    codes = (codes << 1) | bits[t.sites[:, w]]
                match = np.flatnonzero(codes == t.in_code)
                if len(match) == 0:
                    acc[gi:] += bits
                    break
                rates = t.rate[match]
                total = rates.sum()
                dt = rng.exponential(1.0 / total)
                while gi < len(t_grid) and t_grid[gi] < now + dt:
                    acc[gi] += bits
                    gi += 1
                now += dt
                pick = match[np.searchsorted(np.cumsum(rates),
                                             rng.random() * total)]
                bits[t.sites[pick]] = out_bits[pick]
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


def continuous_evolve(spec: LindbladSpec, state: VecState, t: float,
                      method: str = "auto", samples: int = DEFAULT_SAMPLES,
                      record: bool = True) -> EvolutionResult:
    """state -> exp(L t)[state] with trajectory sampling.

    ``samples`` evenly spaced intermediate states are recorded (the paper-
    style coarse profiles need no more); sampling is exact, not interpolated.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    n = spec.n_sites
    dim = 4 ** n
    if method == "auto":
        try:
            _diagonal_part(state)
            diag_ok = is_basis_preserving(spec)
        except ValueError:
            diag_ok = False
        if diag_ok:
            method = "diagonal"
        elif dim <= DENSE_EXPM_CAP:
            method = "dense"
        else:
            method = "krylov"

    if t == 0:
        row = np.array([_sample_row(0.0, state)])
        return EvolutionResult(state, 0.0, True, method,
                               row if record else None)

    n_steps = max(1, samples)
    dt = t / n_steps
    rows = [_sample_row(0.0, state)] if record else None

    if method == "dense":
        gen = assemble_lindbladian(spec).dense()
        prop = expm(gen * dt)
        v = state.amplitudes.copy()
        for k in range(n_steps):
            v = prop @ v
            if record:
                rows.append(_sample_row((k + 1) * dt, VecState(n, v)))
        final = VecState(n, v)
    elif method == "krylov":
        gen = assemble_lindbladian(spec).matrix
        v = state.amplitudes.copy()
        for k in range(n_steps):
            v = krylov_expmv(gen, v, dt)
            if record:
                rows.append(_sample_row((k + 1) * dt, VecState(n, v)))
        final = VecState(n, v)
    elif method == "diagonal":
        if not is_basis_preserving(spec):
            raise NotBasisPreservingError(
                "diagonal method requested for a non-basis-preserving spec")
        probs = _diagonal_part(state)
        Q = diagonal_rate_matrix(spec)
        if Q.shape[0] <= 1024:
            prop = expm(Q.toarray() * dt)
            step = lambda p: prop @ p
        else:
            step = lambda p: expm_multiply(Q * dt, p)
        p = probs
        for k in range(n_steps):
            p = step(p)
            if record:
                st = _lift_diagonal(p, n)
                rows.append(_sample_row((k + 1) * dt, st))
        final = _lift_diagonal(p, n)
    else:
        raise ValueError(f"unknown method {method!r}")

    return EvolutionResult(final, t, True, method,
                           np.array(rows) if record else None)


def trotter_even_odd(spec_even: LindbladSpec, spec_odd: LindbladSpec,
                     tau: float, n_steps: int, state: VecState,
                     record: bool = True) -> EvolutionResult:
    """Alternate exact sub-exponentials exp(L_even tau) exp(L_odd tau)."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = spec_even.n_sites
    dim = 4 ** n
    if dim <= DENSE_EXPM_CAP:
        pe = expm(assemble_lindbladian(spec_even).dense() * tau)
        po = expm(assemble_lindbladian(spec_odd).dense() * tau)
        apply_pair = lambda v: pe @ (po @ v)
    else:
        ge = assemble_lindbladian(spec_even).matrix
        go = assemble_lindbladian(spec_odd).matrix
        apply_pair = lambda v: krylov_expmv(ge, krylov_expmv(go, v, tau), tau)
    v = state.amplitudes.copy()
    rows = [_sample_row(0.0, state)] if record else None
    for k in range(n_steps):
        v = apply_pair(v)
        if record:
            rows.append(_sample_row((k + 1) * tau, VecState(n, v)))
    return EvolutionResult(VecState(n, v), tau * n_steps, True, "trotter",
                           np.array(rows) if record else None)


# ---------------------------------------------------------------------------
# fixed points


def converge_to_fixed_point(obj: "SuperOp | LindbladSpec", state: VecState,
                            tol: float = 1e-9, horizon: float = 1000.0,
                            method: str = "auto") -> EvolutionResult:
    """Advance by unit time (or one step) until successive states differ by
    less than ``tol`` in 2-norm; a exceeded horizon flags non-convergence."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    rows = [_sample_row(0.0, state)]
    current = state
    t = 0.0
    converged = False
    if isinstance(obj, SuperOp):
        advance = lambda s: VecState(s.n_sites, obj.matrix @ s.amplitudes)
        method_used = "discrete"
    else:
        def advance(s):
            return continuous_evolve(obj, s, 1.0, method=method, samples=1,
                                     record=False).final_state
        method_used = "continuous"
    while t < horizon:
        new = advance(current)
        t += 1.0
        rows.append(_sample_row(t, new))
        if np.linalg.norm(new.amplitudes - current.amplitudes) < tol:
            current = new
            converged = True
            break
        current = new
    return EvolutionResult(current, t, converged, method_used, np.array(rows))


def crossing_time(t_grid: np.ndarray, values: np.ndarray,
                  threshold: float, direction: str = "above") -> float:
    """First grid time at which values cross the threshold; NaN if never."""
    hit = values > threshold if direction == "above" else values < threshold
    idx = np.argmax(hit)
    if not hit[idx]:
        return float("nan")
    return float(t_grid[idx])


# ---------------------------------------------------------------------------
# majority-voting worst-case convergence times (continuous track)


def _mean_occupancy(spec: LindbladSpec, bits0: np.ndarray, t_grid: np.ndarray,
                    n_traj: int, rng: np.random.Generator,
                    exact_cap: int) -> tuple[np.ndarray, str]:
    """Per-site occupation curves; exact on the reachable subspace when it
    fits under ``exact_cap`` states, else trajectory-sampled."""
    dyn = DiagonalDynamics(spec)
    n = spec.n_sites
    try:
        codes, Q = dyn.reachable(bits0, cap=exact_cap)
    except MemoryError:
        return (dyn.gillespie_mean_occupancy(bits0, t_grid, n_traj, rng),
                "gillespie")
    bits_of = np.zeros((len(codes), n), dtype=float)
    for j in range(n):
        bits_of[:, j] = (codes >> (n - 1 - j)) & 1
    p = np.zeros(len(codes))
    p[0] = 1.0
    out = np.empty((len(t_grid), n))
    out[0] = p @ bits_of
    dt = float(t_grid[1] - t_grid[0])      # uniform grid
    prop = expm(Q.toarray() * dt) if Q.shape[0] <= 2048 else None
    for i in range(1, len(t_grid)):
        p = prop @ p if prop is not None else expm_multiply(Q * dt, p)
        out[i] = p @ bits_of
    return out, "diagonal-exact"


def mv_worst_case_times(n_sites: int, n_traj: int = 400,
                        rng: np.random.Generator | None = None,
                        exact_cap: int = 40_000, samples: int = 600,
                        threshold: float = 0.99) -> dict:
    """Worst-case spreading and consensus times on one ring.

    Spreading starts from the single half-filling cluster and stops when the
    mean occupation of the separated-target sites (the classical spreading
    endpoint) exceeds ``threshold`` of the achievable count.  Consensus
    starts from the maximal alternation with one minimal cluster and stops
    when the total density exceeds ``threshold``.
    """
    from .classical import (mv_separated_target, mv_worst_consensus_input,
                            mv_worst_spread_input)
    from .models import mv_lindblads
    rng = rng or np.random.default_rng(0)
    spread_spec, consensus_spec = mv_lindblads(n_sites)

    bits_a = mv_worst_spread_input(n_sites)
    target = np.flatnonzero(mv_separated_target(bits_a))
    t_grid = np.linspace(0.0, 4.0 * n_sites, samples)
    occ, method_a = _mean_occupancy(spread_spec, bits_a, t_grid, n_traj, rng,
                                    exact_cap)
    restricted = occ[:, target].sum(axis=1) / len(target)
    tau_spread = crossing_time(t_grid, restricted, threshold)

    bits_b = mv_worst_consensus_input(n_sites)
    t_grid_b = np.linspace(0.0, 3.0 * n_sites, samples)
    occ_b, method_b = _mean_occupancy(consensus_spec, bits_b, t_grid_b,
                                      n_traj, rng, exact_cap)
    density = occ_b.sum(axis=1) / n_sites
    tau_consensus = crossing_time(t_grid_b, density, threshold)

    return {
        "n_sites": n_sites,
        "tau_spread": tau_spread,
        "tau_consensus": tau_consensus,
        "tau_total": tau_spread + tau_consensus,
        "method_spread": method_a,
        "method_consensus": method_b,
    }
