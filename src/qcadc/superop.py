"""Vectorized density matrices and sparse superoperators on a qubit ring.

Index convention (the one convention everything else depends on)
----------------------------------------------------------------
A density matrix on N sites is vectorized site by site: |a><b| on one site
becomes the doubled-space basis vector |a>|b>, and the tensor product over
sites is taken *after* doubling each site.  Each site therefore contributes
one base-4 digit d = 2a + b, and the doubled-space index of the basis
element |a_1..a_N><b_1..b_N| is

    idx = sum_j (2 a_j + b_j) * 4**(N - j)        (site 1 = leftmost digit)

Worked N=2 table (rho entries -> component of the length-16 vector):

    rho[a1 a2, b1 b2]   site digits (d1, d2)   idx
    rho[00, 00]         (0, 0)                  0
    rho[00, 01]         (0, 1)                  1
    rho[01, 00]         (0, 2)                  2
    rho[01, 01]         (0, 3)                  3
    rho[00, 10]         (1, 0)                  4
    rho[00, 11]         (1, 1)                  5
    rho[01, 10]         (1, 2)                  6
    rho[01, 11]         (1, 3)                  7
    rho[10, 00]         (2, 0)                  8
    ...                 ...                    ...
    rho[11, 11]         (3, 3)                 15

Under this mapping a channel K . K^dag acting on k adjacent sites becomes the
matrix K (x) K* with its row/column bits interleaved per site, and an operator
acting on site j embeds with identity digits everywhere else.  Supports wrap
around the ring (site N is adjacent to site 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .config import DENSE_SUPEROP_CAP, TOL

__all__ = [
    "P0", "P1", "SIGMA_MINUS", "SIGMA_PLUS", "PAULI_X", "PAULI_Y", "PAULI_Z", "ID2",
    "VecState", "LocalOperator", "SuperOp", "LindbladSpec",
    "vectorize", "devectorize", "doubled", "embed_local", "embed_physical",
    "basis_moves", "kraus_to_superop", "assemble_lindbladian",
    "conserved_grading", "translation_sectors",
    "apply_adjoint_generator", "kraus_completeness_residual",
    "ChannelInvalidError",
]

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


class ChannelInvalidError(ValueError):
    """Raised when a Kraus set violates trace preservation."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"Kraus set is not trace preserving: residual {residual:.3e}")


@dataclass(frozen=True)
class VecState:
    """Density matrix vectorized in site-local ordering (length 4^N)."""

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (4 ** self.n_sites,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"expected 4^{self.n_sites}"
            )
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True)
class LocalOperator:
    """Dense operator on k adjacent ring sites (2^k x 2^k).

    ``sites`` lists the supported sites in ring order, 0-based; the operator's
    leftmost qubit factor acts on sites[0].  Wrapped supports such as
    (N-1, 0) are allowed; sites must be distinct and consecutive on the ring.
    """

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        k = len(self.sites)
        if len(set(self.sites)) != k:
            raise ValueError(f"support sites must be distinct, got {self.sites}")
        if self.matrix.shape != (2 ** k, 2 ** k):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {k} support sites"
            )
        self.matrix.setflags(write=False)

    @property
    def width(self) -> int:
        return len(self.sites)


def _check_contiguous(sites: Sequence[int], n_sites: int) -> None:
    for s in sites:
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} outside the ring of {n_sites} sites")
    for a, b in zip(sites, sites[1:]):
        if (b - a) % n_sites != 1:
            raise ValueError(f"support {tuple(sites)} is not contiguous on the ring")


@dataclass(frozen=True)
class SuperOp:
    """Sparse matrix on the doubled space.

    kind is "step" for a discrete CPTP map and "generator" for a Lindbladian.
    """

    n_sites: int
    matrix: sp.csr_matrix
    kind: str

    def __post_init__(self):
        dim = 4 ** self.n_sites
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape}, expected ({dim},{dim})")
        if self.kind not in ("step", "generator"):
            raise ValueError(f"kind must be 'step' or 'generator', got {self.kind!r}")

    def __matmul__(self, other):
        if isinstance(other, VecState):
            return VecState(self.n_sites, self.matrix @ other.amplitudes)
        return NotImplemented

    def dense(self) -> np.ndarray:
        if 4 ** self.n_sites > DENSE_SUPEROP_CAP:
            raise ValueError(f"dense path refused above dimension {DENSE_SUPEROP_CAP}")
        return self.matrix.toarray()


@dataclass(frozen=True)
class LindbladSpec:
    """Symbolic generator: Hamiltonian terms and jump operators with rates."""

    n_sites: int
    hamiltonian_terms: tuple[tuple[LocalOperator, float], ...] = ()
    jumps: tuple[tuple[LocalOperator, float], ...] = ()

    def __post_init__(self):
        for op, _coeff in self.hamiltonian_terms:
            _check_contiguous(op.sites, self.n_sites)
        for op, rate in self.jumps:
            _check_contiguous(op.sites, self.n_sites)
            if rate < 0:
                raise ValueError(f"jump rate must be non-negative, got {rate}")


# ---------------------------------------------------------------------------
# vectorization


def _as_square(rho: np.ndarray) -> tuple[np.ndarray, int]:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if dim != 2 ** n or dim < 2:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return rho, n


def vectorize(rho: np.ndarray) -> VecState:
    """Map a 2^N x 2^N matrix to its site-local doubled-space vector."""
    rho, n = _as_square(rho)
    t = rho.reshape((2,) * (2 * n))          # axes a_1..a_N, b_1..b_N
    order = [ax for j in range(n) for ax in (j, n + j)]
    return VecState(n, np.ascontiguousarray(t.transpose(order).reshape(-1)))


def devectorize(state: VecState | np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; bit-exact round trip."""
    if isinstance(state, VecState):
        v, n = state.amplitudes, state.n_sites
    else:
        v = np.asarray(state, dtype=complex)
        n = (v.shape[0].bit_length() - 1) // 2
        if v.shape != (4 ** n,):
            raise ValueError(f"length {v.shape} is not a power of four")
    t = v.reshape((2,) * (2 * n))             # axes a_1,b_1,a_2,b_2,...
    kets = list(range(0, 2 * n, 2))
    bras = list(range(1, 2 * n, 2))
    return np.ascontiguousarray(t.transpose(kets + bras).reshape(2 ** n, 2 ** n))


def doubled(ket_op: np.ndarray, bra_op: np.ndarray | None = None) -> np.ndarray:
    """Local doubled-space matrix for A . B^T terms, site-interleaved.

    Returns the matrix of rho -> A rho B on the doubled local indices; by
    default B = A^dag, i.e. the Kraus sandwich A (x) A*.
    """
    A = np.asarray(ket_op, dtype=complex)
    if bra_op is None:
        B = A.conj()
    else:
        B = np.asarray(bra_op, dtype=complex).T
    k = A.shape[0].bit_length() - 1
    M = np.kron(A, B)
    t = M.reshape((2,) * (4 * k))
    rows = [ax for j in range(k) for ax in (j, k + j)]
    cols = [2 * k + ax for ax in rows]
    return np.ascontiguousarray(t.transpose(rows + cols).reshape(4 ** k, 4 ** k))


# ---------------------------------------------------------------------------
# embedding


def _scatter(m: sp.coo_matrix, sites: Sequence[int], n_sites: int,
             radix: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global (rows, cols, vals) of the local matrix ``m`` placed at ``sites``
    with identity digits everywhere else.

    ``radix`` is 2 for physical indices and 4 for doubled ones; site 0 is
    the most significant digit.  Local digits are ordered as ``sites``, so
    wrapped supports need no permutation.
    """
    place = radix ** (n_sites - 1 - np.arange(n_sites, dtype=np.int64))

    def spread(idx: np.ndarray, positions: Sequence[int]) -> np.ndarray:
        """Global offsets of digit strings ``idx`` over ``positions``."""
        off = np.zeros(len(idx), dtype=np.int64)
        for i, s in enumerate(positions):
            off += (idx // radix ** (len(positions) - 1 - i)) % radix * place[s]
        return off

    rest = [s for s in range(n_sites) if s not in sites]
    base = spread(np.arange(radix ** len(rest), dtype=np.int64), rest)
    rows = (base[:, None] + spread(m.row.astype(np.int64), sites)).reshape(-1)
    cols = (base[:, None] + spread(m.col.astype(np.int64), sites)).reshape(-1)
    vals = np.broadcast_to(m.data, (len(base), len(m.data))).reshape(-1)
    return rows, cols, vals


def embed_local(matrix: np.ndarray | sp.spmatrix, sites: Sequence[int],
                n_sites: int) -> sp.csr_matrix:
    """Embed a doubled-space local matrix (4^k square) at ``sites``.

    Acts as the given matrix on the doubled digits of the support and as the
    identity on every other site; wrapped supports are handled by plain digit
    arithmetic, so no permutation conjugation is needed.
    """
    sites = tuple(int(s) % n_sites for s in sites)
    _check_contiguous(sites, n_sites)
    k = len(sites)
    m = sp.coo_matrix(matrix)
    if m.shape != (4 ** k, 4 ** k):
        raise ValueError(f"matrix shape {m.shape} does not match support {sites}")
    rows, cols, vals = _scatter(m, sites, n_sites, 4)
    dim = 4 ** n_sites
    out = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def embed_physical(op: LocalOperator, n_sites: int) -> np.ndarray:
    """Embed a physical (un-doubled) local operator into the 2^N space."""
    _check_contiguous(op.sites, n_sites)
    rows, cols, vals = _scatter(sp.coo_matrix(op.matrix), op.sites, n_sites, 2)
    full = np.zeros((2 ** n_sites, 2 ** n_sites), dtype=complex)
    np.add.at(full, (rows, cols), vals)
    return full


# ---------------------------------------------------------------------------
# channels and generators


def kraus_completeness_residual(kraus: Iterable[np.ndarray]) -> float:
    mats = [np.asarray(K, dtype=complex) for K in kraus]
    dim = mats[0].shape[0]
    acc = sum(K.conj().T @ K for K in mats)
    return float(np.abs(acc - np.eye(dim)).max())


def basis_moves(matrix: np.ndarray) -> list[tuple[int, int, float]] | None:
    """Action of an operator on each basis state of its support.

    Returns (in_code, out_code, weight) for every input code, ascending,
    that the operator does not annihilate, with weight = |amplitude|^2; None
    if some column is not a scaled basis vector.
    """
    moves = []
    for code in range(matrix.shape[1]):
        col = matrix[:, code]
        nz = np.flatnonzero(np.abs(col) > 1e-14)
        if len(nz) == 0:
            continue
        if len(nz) > 1:
            return None
        moves.append((code, int(nz[0]), float(abs(col[nz[0]]) ** 2)))
    return moves


def kraus_to_superop(kraus: Sequence[LocalOperator], n_sites: int) -> SuperOp:
    """Discrete-step superoperator sum_mu K (x) K* for one shared support."""
    supports = {op.sites for op in kraus}
    if len(supports) != 1:
        raise ValueError(f"Kraus operators must share one support, got {supports}")
    residual = kraus_completeness_residual(op.matrix for op in kraus)
    if residual > TOL.channel:
        raise ChannelInvalidError(residual)
    sites = kraus[0].sites
    local = sum(doubled(op.matrix) for op in kraus)
    mat = embed_local(local, sites, n_sites)
    return SuperOp(n_sites, mat, "step")


def _local_dissipator(L: np.ndarray, rate: float) -> np.ndarray:
    """rate * (L . L^dag - 1/2 {L^dag L, .}) on the doubled local indices."""
    LdL = L.conj().T @ L
    ident = np.eye(L.shape[0], dtype=complex)
    out = doubled(L, L.conj().T)
    out -= 0.5 * (doubled(LdL, ident) + doubled(ident, LdL))
    return rate * out


def _local_hamiltonian(H: np.ndarray, coeff: float) -> np.ndarray:
    """-i coeff [H, .] on the doubled local indices."""
    ident = np.eye(H.shape[0], dtype=complex)
    return -1j * coeff * (doubled(H, ident) - doubled(ident, H))


def assemble_lindbladian(spec: LindbladSpec) -> SuperOp:
    """Sparse vectorized generator for a :class:`LindbladSpec`.

    Terms sharing a support are combined locally before embedding, which keeps
    assembly deterministic and the scatter count low.
    """
    by_support: dict[tuple[int, ...], np.ndarray] = {}

    def add(sites: tuple[int, ...], local: np.ndarray) -> None:
        if sites in by_support:
            by_support[sites] = by_support[sites] + local
        else:
            by_support[sites] = local

    for op, coeff in spec.hamiltonian_terms:
        add(op.sites, _local_hamiltonian(op.matrix, coeff))
    for op, rate in spec.jumps:
        add(op.sites, _local_dissipator(op.matrix, rate))

    dim = 4 ** spec.n_sites
    mat = sp.csr_matrix((dim, dim), dtype=complex)
    for sites in sorted(by_support):
        mat = mat + embed_local(by_support[sites], sites, spec.n_sites)
    mat.sort_indices()
    return SuperOp(spec.n_sites, mat, "generator")


@lru_cache(maxsize=None)
def _digit_counts(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Per doubled index: ket popcount and bra popcount."""
    idx = np.arange(4 ** n_sites, dtype=np.int64)
    kets = np.zeros(len(idx), dtype=np.int64)
    bras = np.zeros(len(idx), dtype=np.int64)
    for j in range(n_sites):
        d = (idx // 4 ** (n_sites - 1 - j)) % 4
        kets += d // 2
        bras += d % 2
    return kets, bras


def conserved_grading(matrix: sp.spmatrix,
                      n_sites: int) -> tuple[str, np.ndarray]:
    """Finest of the (ket, bra) / ket-bra / trivial gradings the sparsity
    pattern of a doubled-space matrix respects.

    Returns ``(kind, grading)``: kind is "joint", "difference" or "none",
    and ``grading[i]`` labels the block of doubled index i.  The matrix is
    block-diagonal in those labels: no stored entry joins two blocks.
    """
    coo = matrix.tocoo()
    kets, bras = _digit_counts(n_sites)
    if len(coo.row) == 0:
        return "joint", kets * (n_sites + 1) + bras
    if (np.array_equal(kets[coo.row], kets[coo.col])
            and np.array_equal(bras[coo.row], bras[coo.col])):
        return "joint", kets * (n_sites + 1) + bras
    diff = kets - bras
    if np.array_equal(diff[coo.row], diff[coo.col]):
        return "difference", diff
    return "none", np.zeros(matrix.shape[0], dtype=np.int64)


def translation_sectors(matrix: sp.spmatrix, n_sites: int
                        ) -> list[tuple[sp.csr_matrix, np.ndarray]]:
    """Momentum sectors of the ring shift T for a doubled-space matrix M.

    T moves every site one step round the ring: doubled index i goes to
    ``i // 4 + (i % 4) * 4**(N-1)``.  When M commutes with T (to
    ``TOL.null`` times its max-column-sum norm: assembly sums the same
    terms in a different order on each site), the result holds one
    ``(P_k, reps_k)`` per momentum k = 0..N-1.  Column c of the sparse
    isometry P_k is ``sum_j omega**(-k j) T^j |r> / sqrt(p)`` (omega =
    exp(2 pi i / N)) for the orbit representative ``r = reps_k[c]``, the
    smallest index of its orbit, of period p; an orbit is kept only where
    k p = 0 mod N, since its sum vanishes otherwise.  ``P_k^H M P_k`` is M
    on sector k, and the sectors' spectra together make up M's.  Every
    orbit member shares the representative's (ket, bra) counts, so each
    sector splits further by :func:`conserved_grading` read at ``reps_k``.

    When M does not commute with T, the result is the single identity
    sector ``[(I, arange(4^N))]``: each index is its own orbit.
    """
    dim = matrix.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    shift = idx // 4 + (idx % 4) * 4 ** (n_sites - 1)
    t = sp.csr_matrix((np.ones(dim), (shift, idx)), shape=(dim, dim))
    comm = abs(t @ matrix - matrix @ t).sum(axis=0).max()
    if comm > TOL.null * abs(matrix).sum(axis=0).max():
        return [(sp.identity(dim, dtype=complex, format="csr"), idx)]
    orbit = [idx]                       # orbit[j][i] = T^j i
    for _ in range(n_sites - 1):
        orbit.append(shift[orbit[-1]])
    orbit = np.array(orbit)
    reps = np.flatnonzero(orbit.min(axis=0) == idx)
    members = orbit[:, reps]
    period = n_sites // (members == reps).sum(axis=0)   # T^j r = r, N/p times
    j = np.arange(n_sites)[:, None]
    sectors = []
    for k in range(n_sites):
        keep = np.flatnonzero(k * period % n_sites == 0)
        on = j < period[keep]
        cols = np.broadcast_to(np.arange(len(keep)), on.shape)[on]
        vals = (np.exp(-2j * np.pi * (k * j % n_sites) / n_sites)
                / np.sqrt(period[keep]))[on]
        basis = sp.csr_matrix((vals, (members[:, keep][on], cols)),
                              shape=(dim, len(keep)))
        sectors.append((basis, reps[keep]))
    return sectors


def apply_adjoint_generator(spec: LindbladSpec,
                            observable: np.ndarray | LocalOperator
                            | Sequence[LocalOperator]) -> np.ndarray:
    """Heisenberg-picture action L^dag[O], returned as a dense 2^N matrix.

    In the site-local vectorization the adjoint generator is exactly the
    conjugate transpose of the assembled generator, since <A, L[B]> uses the
    Hilbert-Schmidt pairing preserved by the per-site doubling.
    """
    if isinstance(observable, LocalOperator):
        obs = embed_physical(observable, spec.n_sites)
    elif isinstance(observable, np.ndarray):
        obs = np.asarray(observable, dtype=complex)
    else:
        obs = sum(embed_physical(op, spec.n_sites) for op in observable)
    gen = assemble_lindbladian(spec)
    out = gen.matrix.conj().T @ vectorize(obs).amplitudes
    return devectorize(VecState(spec.n_sites, out))
