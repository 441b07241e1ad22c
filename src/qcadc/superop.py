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
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .config import DENSE_SUPEROP_CAP, TOL

__all__ = [
    "P0", "P1", "SIGMA_MINUS", "SIGMA_PLUS", "PAULI_X", "PAULI_Y", "PAULI_Z", "ID2",
    "VecState", "LocalOperator", "SuperOp", "LindbladSpec",
    "vectorize", "devectorize", "doubled", "embed_local",
    "basis_moves", "MoveTable", "move_table", "match_moves", "closure",
    "assemble_lindbladian", "reachable_generator",
    "conserved_grading", "rotate_ring", "translation_sectors",
    "kraus_completeness_residual",
]

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class VecState:
    """Density matrix vectorized in site-local ordering.

    With ``codes`` None the state holds all 4^N amplitudes.  Otherwise it
    holds them on the ascending doubled indices ``codes`` alone and is zero
    elsewhere: a block state, as an ``evolve`` run keeps it on the indices
    its initial state reaches.
    """

    n_sites: int
    amplitudes: np.ndarray
    codes: np.ndarray | None = None

    def __post_init__(self):
        if self.codes is None:
            if self.amplitudes.shape != (4 ** self.n_sites,):
                raise ValueError(
                    f"amplitude vector has length {self.amplitudes.shape}, "
                    f"expected 4^{self.n_sites}"
                )
        else:
            codes = self.codes
            if (codes.ndim != 1 or self.amplitudes.shape != codes.shape
                    or len(codes) and not (0 <= codes[0] and codes[-1]
                                           < 4 ** self.n_sites)
                    or np.any(codes[1:] <= codes[:-1])):
                raise ValueError(
                    f"a block state needs as many amplitudes as codes, "
                    f"ascending in [0, 4^{self.n_sites}); got "
                    f"{self.amplitudes.shape} amplitudes on "
                    f"{codes.shape} codes")
            codes.setflags(write=False)
        self.amplitudes.setflags(write=False)

    def support(self) -> np.ndarray:
        """The doubled indices of the nonzero amplitudes, ascending."""
        nonzero = np.flatnonzero(self.amplitudes)
        return nonzero if self.codes is None else self.codes[nonzero]

    def amplitudes_on(self, codes: np.ndarray | None) -> np.ndarray:
        """The amplitudes on the ascending doubled indices ``codes``
        (every index when None), which hold the state's support.  Each is
        the stored value, the sign of a zero included, or 0."""
        if self.codes is None:
            return self.amplitudes if codes is None else self.amplitudes[codes]
        if codes is None:
            out = np.zeros(4 ** self.n_sites, dtype=self.amplitudes.dtype)
            out[self.codes] = self.amplitudes
            return out
        out = np.zeros(len(codes), dtype=self.amplitudes.dtype)
        if len(codes):
            pos = np.minimum(np.searchsorted(codes, self.codes),
                             len(codes) - 1)
            held = codes[pos] == self.codes
            out[pos[held]] = self.amplitudes[held]
        return out

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The density matrix diagonal, basis order 00..0 to 11..1, read-only.

        A block state's diagonal codes are scattered into 2^N zeros: the
        array a 4^N vector of the same state gives, so every reading of it
        is the same to the bit."""
        n, codes = self.n_sites, self.codes
        if codes is None:
            out = self.amplitudes[diag_indices(n)]
        else:
            # a diagonal code's basis code is every other bit
            on = np.flatnonzero(_is_diagonal(codes, n))
            basis = np.zeros(len(on), dtype=np.int64)
            for j in range(n):
                basis |= (codes[on] >> (2 * j) & 1) << j
            out = np.zeros(2 ** n, dtype=self.amplitudes.dtype)
            out[basis] = self.amplitudes[on]
        out.setflags(write=False)
        return out

    def full(self) -> "VecState":
        """The same state on all 4^N indices (itself when it is one)."""
        if self.codes is None:
            return self
        return VecState(self.n_sites, self.amplitudes_on(None))


def _is_diagonal(codes: np.ndarray, n_sites: int) -> np.ndarray:
    """Per doubled index of ``codes``: is it diagonal, |s><s|?  Site j's
    digit 2 ket + bra sits at bits 2j + 1 and 2j, so an index is diagonal
    when every such bit pair agrees."""
    return (((codes >> 1) ^ codes) & ((4 ** n_sites - 1) // 3)) == 0


@lru_cache(maxsize=None)
def diag_indices(n_sites: int) -> np.ndarray:
    """Doubled-space indices of the 2^N diagonal entries |s><s|."""
    bits = np.arange(2 ** n_sites, dtype=np.int64)
    idx = np.zeros(2 ** n_sites, dtype=np.int64)
    for j in range(n_sites):
        bit = (bits >> (n_sites - 1 - j)) & 1
        idx += 3 * bit * 4 ** (n_sites - 1 - j)
    return idx


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
    """Inverse of :func:`vectorize`; bit-exact round trip.  A block state
    is read as its 4^N vector."""
    if isinstance(state, VecState):
        v, n = state.full().amplitudes, state.n_sites
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


def _spread(idx: np.ndarray, positions: Sequence[int],
            n_sites: int) -> np.ndarray:
    """Global doubled-index offsets of the local base-4 digit strings
    ``idx`` placed at ``positions``; site 0 is the most significant
    digit."""
    off = np.zeros(len(idx), dtype=np.int64)
    for i, s in enumerate(positions):
        off += (idx // 4 ** (len(positions) - 1 - i) % 4
                * 4 ** (n_sites - 1 - s))
    return off


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
    rest = [s for s in range(n_sites) if s not in sites]
    base = _spread(np.arange(4 ** len(rest), dtype=np.int64), rest, n_sites)
    rows = (base[:, None] + _spread(m.row.astype(np.int64), sites,
                                    n_sites)).reshape(-1)
    cols = (base[:, None] + _spread(m.col.astype(np.int64), sites,
                                    n_sites)).reshape(-1)
    vals = np.broadcast_to(m.data, (len(base), len(m.data))).reshape(-1)
    dim = 4 ** n_sites
    out = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


# ---------------------------------------------------------------------------
# move tables: the one kernel that matches local patterns against codes


_MOVE_CHUNK = 1 << 20       # table rows x codes matched in one broadcast


class MoveTable(NamedTuple):
    """The stored entries of local matrices, placed on a ring.

    Row m is one stored entry, at row digits r and column digits c, of a
    term's local matrix.  A code s matches it when ``s & mask[m] ==
    match[m]`` (its digits at the term's support are c) and goes to ``(s &
    ~mask[m]) | put[m]`` (those digits set to r) with ``value[m]``.  Rows
    ``starts[t]`` to ``starts[t + 1]`` belong to term t.
    """
    mask: np.ndarray
    match: np.ndarray
    put: np.ndarray
    value: np.ndarray
    starts: np.ndarray


def move_table(terms: Sequence[tuple[np.ndarray, Sequence[int]]],
               n_sites: int, radix: int) -> MoveTable:
    """The :class:`MoveTable` of ``(dense local matrix, support)`` terms,
    term by term and in CSC order within a term.  ``radix`` is 2 for basis
    codes and 4 for doubled indices; site 0 is the most significant
    digit."""
    width = max((len(sites) for _, sites in terms), default=0)
    empty = np.empty(0, dtype=np.int64)
    entries, places = [(empty, empty, np.empty(0))], []
    for local, sites in terms:
        col, row = np.nonzero(local.T)      # column by column: CSC order
        entries.append((col, row, local[row, col]))
        # the place value of each local digit, left-padded to the widest
        places.append([0] * (width - len(sites))
                      + [radix ** (n_sites - 1 - s) for s in sites])
    col, row, value = map(np.concatenate, zip(*entries))
    counts = [len(part[0]) for part in entries]
    place = np.repeat(np.array(places, dtype=np.int64).reshape(
        len(places), width), counts[1:], axis=0)
    digit = radix ** np.arange(width - 1, -1, -1)

    def on_ring(digits):    # a local digit string on each row's support
        return (digits[:, None] // digit % radix * place).sum(axis=1)

    return MoveTable((radix - 1) * place.sum(axis=1), on_ring(col),
                     on_ring(row), value, np.cumsum(counts))


def match_moves(table: MoveTable, codes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(move, src, dst)``: every table row ``move`` that a code ``src`` of
    ``codes`` matches, and the code ``dst`` it goes to, ordered by row and
    within a row as in ``codes``.  Chunks of rows are matched against every
    code at once; one code (Gillespie asks for one at a time) is matched
    against every row in one flat pass.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) == 1:
        move = np.flatnonzero((codes & table.mask) == table.match)
        src = codes.repeat(len(move))
    else:
        chunk = max(1, _MOVE_CHUNK // max(len(codes), 1))
        move, at = [codes[:0]], [codes[:0]]
        for lo in range(0, len(table.mask), chunk):
            m, a = np.nonzero((codes & table.mask[lo:lo + chunk, None])
                              == table.match[lo:lo + chunk, None])
            move.append(m + lo)
            at.append(a)
        move = np.concatenate(move)
        src = codes[np.concatenate(at)]
    return move, src, (src & ~table.mask[move]) | table.put[move]


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, ascending: ``np.unique`` by a sort
    and a neighbour mask (numpy 2.4 dedupes int64 by hashing, several
    times slower)."""
    codes = np.sort(codes)
    return codes[np.r_[True, codes[1:] != codes[:-1]]] if len(codes) else codes


def closure(table: MoveTable, start: np.ndarray, cap: float = np.inf
            ) -> tuple[np.ndarray | None, tuple | list]:
    """``(codes, (move, src, dst))``: every code the table's rows reach
    from the codes ``start``, ascending, and every match
    (:func:`match_moves`) of a reached code, frontier by frontier.  Once
    the set holds more than ``cap`` codes the search stops and returns
    ``(None, parts)``: the ``(move, src)`` matches of each frontier it
    matched, which hold every code reached but the last frontier.

    Breadth-first over sorted frontiers: each frontier is matched at once,
    the destinations not yet seen (found by bisection in the sorted set)
    are the next frontier, and it is merged into the set.  Only ``(move,
    src)`` is kept per frontier; ``dst`` is formed once at the end, as
    :func:`match_moves` forms it.
    """
    codes = frontier = _sorted_unique(np.asarray(start, dtype=np.int64))
    parts = [(codes[:0],) * 2]
    while len(frontier) and len(codes) <= cap:
        move, src, dst = match_moves(table, frontier)
        parts.append((move, src))
        pos = np.minimum(np.searchsorted(codes, dst), len(codes) - 1)
        frontier = _sorted_unique(dst[codes[pos] != dst])
        # two sorted runs with no code in common: a stable sort merges them
        codes = np.sort(np.concatenate((codes, frontier)), kind="stable")
    if len(codes) > cap:
        return None, parts
    move, src = map(np.concatenate, zip(*parts))
    return codes, (move, src, (src & ~table.mask[move]) | table.put[move])


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


def _local_terms(spec: LindbladSpec) -> dict[tuple[int, ...], np.ndarray]:
    """Per support, the sum of the local doubled-space terms of ``spec``:
    the Hamiltonian terms, then the jumps, each in spec order.

    Each distinct local term (the same builder, matrix and coefficient) is
    built once and added wherever it sits: a ring-invariant spec repeats
    one term on every support.  A support's entry may be that shared,
    read-only array.
    """
    by_support: dict[tuple[int, ...], np.ndarray] = {}
    built: dict[tuple, np.ndarray] = {}

    def add(sites: tuple[int, ...], build, matrix: np.ndarray,
            coeff: float) -> None:
        key = (build, matrix.dtype.str, matrix.shape, matrix.tobytes(), coeff)
        if key not in built:
            built[key] = build(matrix, coeff)
            built[key].setflags(write=False)
        local = built[key]
        if sites in by_support:
            by_support[sites] = by_support[sites] + local
        else:
            by_support[sites] = local

    for op, coeff in spec.hamiltonian_terms:
        add(op.sites, _local_hamiltonian, op.matrix, coeff)
    for op, rate in spec.jumps:
        add(op.sites, _local_dissipator, op.matrix, rate)
    return by_support


def assemble_lindbladian(spec: LindbladSpec) -> SuperOp:
    """Sparse vectorized generator for a :class:`LindbladSpec` on the 4^N
    doubled space: :func:`reachable_generator` from every index."""
    n = spec.n_sites
    return SuperOp(n, reachable_generator(spec, np.arange(4 ** n))[1],
                   "generator")


def _closed_blocks(terms: Sequence[tuple[np.ndarray, Sequence[int]]],
                   start: np.ndarray, n_sites: int, cap: float = np.inf
                   ) -> tuple[np.ndarray | None, Iterator[sp.csr_matrix]]:
    """``(codes, blocks)``: the closure of the doubled indices ``start``
    under the stored entries of every ``(local matrix, support)`` term
    (:func:`closure` on their :func:`move_table`), ascending, and each term
    embedded at its support and restricted to those codes, built from that
    term's own matches as ``blocks`` is read.  When the closure is every
    index, ``codes`` is None and each block is the term's 4^N embedding
    (:func:`embed_local`): this is the one place that chooses between the
    two forms.  A closure of more than ``cap`` indices raises ValueError.

    No stored entry of a term joins ``codes`` to an index outside it, so
    sums and products of the terms keep a vector on ``codes``, and the i-th
    block equals ``embed_local(*terms[i], n_sites)[codes][:, codes]`` bit
    for bit.
    """
    table = move_table(terms, n_sites, 4)
    codes, found = closure(table, start, cap=min(cap, 4 ** n_sites - 1))
    if codes is None and 4 ** n_sites > cap:
        raise ValueError(f"the state reaches more than {cap:,} doubled "
                         f"indices, the most a run holds")
    if codes is None:       # the closure is every index
        return None, (embed_local(local, sites, n_sites)
                      for local, sites in terms)
    move, src, dst = found
    row, col = np.searchsorted(codes, dst), np.searchsorted(codes, src)

    def block(t):     # canonical: tocsr sums duplicates and sorts indices
        at = (move >= table.starts[t]) & (move < table.starts[t + 1])
        return sp.coo_matrix((table.value[move[at]], (row[at], col[at])),
                             shape=(len(codes),) * 2).tocsr()

    return codes, map(block, range(len(terms)))


def reachable_generator(spec: LindbladSpec, support: np.ndarray,
                        cap: float = np.inf
                        ) -> tuple[np.ndarray, sp.csr_matrix]:
    """``(codes, sub)``: the doubled indices the generator can reach from
    the doubled indices ``support``, ascending, and the generator on them,
    built from the local terms with no 4^N assembly.

    ``codes`` is the closure of ``support`` under every support's local
    term (:func:`_closed_blocks`, which refuses more than ``cap`` codes),
    so exp(L t) keeps a vector on ``codes``.  Terms sharing a support are
    combined locally before embedding (:func:`_local_terms`), and the
    supports are added in sorted order, so ``sub`` equals the generator
    from every index (:func:`assemble_lindbladian`) restricted to
    ``codes``, bit for bit.
    """
    n = spec.n_sites
    by_support = _local_terms(spec)
    codes, blocks = _closed_blocks(
        [(by_support[s], s) for s in sorted(by_support)], support, n, cap)
    if codes is None:   # every index
        codes = np.arange(4 ** n)
    sub = sp.csr_matrix((len(codes),) * 2, dtype=complex)
    for block in blocks:
        sub = sub + block
    sub.sort_indices()
    return codes, sub


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


def rotate_ring(idx: np.ndarray, n_sites: int, r: int) -> np.ndarray:
    """Doubled indices ``idx`` after every site moves r steps round the ring.

    Site j's digit goes to site (j + r) mod N: the last r digits wrap to
    the front, ``i -> i // 4**r + (i % 4**r) * 4**(N-r)``.  As a map of
    basis vectors this is the ring shift T of :func:`translation_sectors`
    raised to the power r, for 0 <= r <= N.
    """
    low = 4 ** r
    return idx // low + idx % low * 4 ** (n_sites - r)


def translation_sectors(matrix: sp.spmatrix, n_sites: int
                        ) -> tuple[int, Iterator[tuple[sp.csr_matrix,
                                                       np.ndarray]]]:
    """Momentum sectors of the ring shift T for a doubled-space matrix M.

    T moves every site one step round the ring: doubled index i goes to
    ``rotate_ring(i, N, 1) = i // 4 + (i % 4) * 4**(N-1)``.  When M
    commutes with T (to ``TOL.null`` times its max-column-sum norm:
    assembly sums the same terms in a different order on each site), the
    result is ``(N, sectors)``, and ``sectors`` yields one ``(P_k,
    reps_k)`` per momentum k = 0..N-1, in order, each built only when it
    is drawn, so a caller that stops early never builds the rest.  Column
    c of the sparse isometry P_k is ``sum_j omega**(-k j) T^j |r> /
    sqrt(p)`` (omega = exp(2 pi i / N)) for the orbit representative ``r
    = reps_k[c]``, the smallest index of its orbit, of period p; an orbit
    is kept only where k p = 0 mod N, since its sum vanishes otherwise.
    ``P_k^H M P_k`` is M on sector k, and the sectors' spectra together
    make up M's.  Every orbit member shares the representative's (ket,
    bra) counts, so each sector splits further by
    :func:`conserved_grading` read at ``reps_k``.

    When M does not commute with T, the result is ``(1, sectors)`` with
    the single identity sector ``(I, arange(4^N))``: each index is its own
    orbit.
    """
    dim = matrix.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    shift = rotate_ring(idx, n_sites, 1)
    t = sp.csr_matrix((np.ones(dim), (shift, idx)), shape=(dim, dim))
    comm = abs(t @ matrix - matrix @ t).sum(axis=0).max()
    if comm > TOL.null * abs(matrix).sum(axis=0).max():
        return 1, iter([(sp.identity(dim, dtype=complex, format="csr"), idx)])
    orbit = [idx]                       # orbit[j][i] = T^j i
    for _ in range(n_sites - 1):
        orbit.append(shift[orbit[-1]])
    orbit = np.array(orbit)
    reps = np.flatnonzero(orbit.min(axis=0) == idx)
    members = orbit[:, reps]
    period = n_sites // (members == reps).sum(axis=0)   # T^j r = r, N/p times
    j = np.arange(n_sites)[:, None]

    def sectors():
        for k in range(n_sites):
            keep = np.flatnonzero(k * period % n_sites == 0)
            on = j < period[keep]
            cols = np.broadcast_to(np.arange(len(keep)), on.shape)[on]
            vals = (np.exp(-2j * np.pi * (k * j % n_sites) / n_sites)
                    / np.sqrt(period[keep]))[on]
            yield (sp.csr_matrix((vals, (members[:, keep][on], cols)),
                                 shape=(dim, len(keep))), reps[keep])

    return n_sites, sectors()
