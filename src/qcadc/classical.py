"""Exact classical track on periodic bitstrings.

Everything quantum in this package restricted to computational basis states
has a classical shadow; this module implements that shadow directly so large
rings and exhaustive scans stay cheap.  No rule table is hand-coded: the
tables of the partitioned rules (the majority-voting triples and the 184/232
center updates) are derived from the same three-site Kraus lists that build
the quantum steps, by probing all eight basis states, and are applied in the
same window order; agreement tests guard both.

The majority-voting sublayers have one kernel, batched over rings: the
windows of an mv phase are disjoint, so a sublayer is one table lookup over
every window of every ring at once.  :func:`mv_classify` runs a single ring
or a (B, N) batch through it, each ring stopping on its own, which makes
exhaustive verification of the sublayer budget one pass per chunk of
rings.  The center rules and the unpartitioned spreading sweep have
overlapping windows and are applied window by window.

Bitstrings are numpy uint8 arrays, site 1 leftmost; ASCII '0'/'1' strings
are accepted everywhere.  Array inputs must hold exactly 0 or 1 (numeric or
boolean); nothing is rounded.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .models import (MV_PHASE_ORDER, center_windows, mv_layer_counts,
                     mv_windows, rule_kraus)
from .superop import basis_moves

__all__ = [
    "parse_bits", "format_bits", "popcount", "has_adjacent_ones", "is_uniform",
    "eca_step", "fuks_classical_step", "mv_spread_classical",
    "mv_consensus_classical", "mv_sublayer_sequence", "mv_classify",
    "tau_formula", "gamma_p_relation", "p_from_gamma_tau",
    "partitioned_rule_step", "fates_classical_trajectory",
    "absorption_time_trials", "mv_worst_spread_input",
    "mv_worst_consensus_input", "ClassificationFailureError",
]

SUPPORTED_RULES = (170, 184, 232, 240)


class ClassificationFailureError(RuntimeError):
    """The sublayer budget elapsed without reaching a uniform state."""


def parse_bits(bits) -> np.ndarray:
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise ValueError(f"bitstring must be over 0/1, got {bits!r}")
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        return arr.copy()
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d array of 0/1 values")
    return _zero_one(arr)


def _zero_one(arr: np.ndarray) -> np.ndarray:
    """uint8 copy of a numeric array whose values are exactly 0 or 1; 0.5,
    2, -1 and NaN are refused, not rounded."""
    bad = (arr[arr != arr.astype(bool)] if arr.dtype.kind in "biuf"
           else arr.ravel())
    if bad.size:
        raise ValueError(f"expected 0/1 values, got {bad[:1].tolist()[0]!r}")
    return arr.astype(np.uint8)


def format_bits(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def popcount(bits) -> int:
    return int(parse_bits(bits).sum())


def has_adjacent_ones(bits) -> bool:
    return bool(_adjacent_ones(parse_bits(bits)))


def is_uniform(bits) -> bool:
    return not _mixed(parse_bits(bits))


def _adjacent_ones(rings: np.ndarray) -> np.ndarray:
    """Per ring of site-major ``rings`` (sites along axis 0): does some site
    share a one with its right neighbor, wrap included?"""
    return (rings & np.roll(rings, -1, axis=0)).any(axis=0)


def _mixed(rings: np.ndarray) -> np.ndarray:
    """Per ring of site-major ``rings``: is it neither all 0 nor all 1?"""
    return (rings != rings[0]).any(axis=0)


# ---------------------------------------------------------------------------
# elementary rules


def eca_step(rule: int, bits) -> np.ndarray:
    """Synchronous radius-1 update with periodic boundary."""
    if rule not in SUPPORTED_RULES:
        raise ValueError(f"unsupported rule {rule}; supported: {SUPPORTED_RULES}")
    arr = parse_bits(bits)
    left = np.roll(arr, 1)
    right = np.roll(arr, -1)
    nbhd = (left.astype(np.int64) << 2) | (arr.astype(np.int64) << 1) | right
    table = np.array([(rule >> i) & 1 for i in range(8)], dtype=np.uint8)
    return table[nbhd]


# ---------------------------------------------------------------------------
# partitioned rules, derived from the quantum Kraus lists


@lru_cache(maxsize=None)
def _rule_table(rule: int | str) -> np.ndarray:
    """Deterministic 8-entry lookup, basis triple in -> basis triple out, of
    a partitioned rule: a majority-voting triple map ("spread",
    "consensus") or a center update (184, 232).

    Probes the rule's three-site Kraus list with every basis state; exactly
    one operator must act on each input, yielding one basis state with unit
    weight.
    """
    table = np.full(8, -1, dtype=np.int64)
    for K in rule_kraus(rule):
        moves = basis_moves(K)
        if moves is None:
            raise RuntimeError(f"rule {rule} Kraus set is not basis-deterministic")
        for s, t, weight in moves:
            if table[s] != -1 or abs(weight - 1.0) > 1e-12:
                raise RuntimeError(f"rule {rule} table ambiguous on input {s:03b}")
            table[s] = t
    if (table < 0).any():
        raise RuntimeError(f"rule {rule} table has no image for some input")
    table = table.astype(np.uint8)
    table.setflags(write=False)
    return table


def _apply_table(arr: np.ndarray, table: np.ndarray, starts) -> np.ndarray:
    """Apply a triple table in place to the window starting at each of
    ``starts`` in turn; each window sees the updates of the earlier ones."""
    n = len(arr)
    for i in starts:
        j, k = (i + 1) % n, (i + 2) % n
        t = table[(int(arr[i]) << 2) | (int(arr[j]) << 1) | int(arr[k])]
        arr[i], arr[j], arr[k] = (t >> 2) & 1, (t >> 1) & 1, t & 1
    return arr


def partitioned_rule_step(rule: int, bits,
                          phase_order: str = "odd_first") -> np.ndarray:
    """Center-update partitioned step of a deterministic rule.

    Mirrors the quantum discrete convention exactly: the windows of
    :func:`models.center_windows`, two center phases, each applied in
    descending site order with updates visible to later centers of the same
    phase.  The traffic/majority mixture pins odd centers first (see
    :func:`models.fates_rule` for why).
    """
    if rule not in (184, 232):
        raise ValueError(f"unsupported partitioned rule {rule}")
    arr = parse_bits(bits)
    return _apply_table(arr, _rule_table(rule),
                        center_windows(len(arr), phase_order))


def fates_classical_trajectory(p: float, bits, n_steps: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Global-coin mixture run: each step applies the full partitioned
    update of rule 184 (probability p) or rule 232.  Returns the final
    configuration."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    arr = parse_bits(bits)
    if len(arr) < 3:    # the partitioned update's windows need three sites
        raise ValueError(f"need at least 3 sites, got {len(arr)}")
    for _ in range(n_steps):
        rule = 184 if rng.random() < p else 232
        arr = partitioned_rule_step(rule, arr)
    return arr


def fuks_classical_step(p: float, bits, rng: np.random.Generator) -> np.ndarray:
    """Synchronous probabilistic update; flip odds scale with disagreeing
    neighbors (p per boundary, 2p when both neighbors disagree)."""
    if not 0 < p <= 0.5:
        raise ValueError(f"p must lie in (0, 0.5], got {p}")
    arr = parse_bits(bits)
    return (rng.random(arr.shape) < _prob_one(p, arr)).astype(np.uint8)


def _prob_one(p: float, rings: np.ndarray) -> np.ndarray:
    """Probability that each cell is one after a synchronous update of the
    rings along the last axis: a zero turns on with p per occupied neighbor,
    a one stays on unless p per empty neighbor turns it off."""
    left = np.roll(rings, 1, axis=-1).astype(float)
    right = np.roll(rings, -1, axis=-1).astype(float)
    return np.where(rings == 0, p * (left + right),
                    1.0 - p * ((1 - left) + (1 - right)))


# ---------------------------------------------------------------------------
# majority-voting sublayers


@lru_cache(maxsize=None)
def _mv_sites(n_sites: int, phase: int) -> np.ndarray:
    """A (3, N/3) array: the left, middle and right site of each of the
    disjoint windows of an mv phase (see :func:`models.mv_windows`)."""
    sites = (np.asarray(mv_windows(n_sites, phase))
             + np.arange(3)[:, None]) % n_sites
    sites.setflags(write=False)
    return sites


def _mv_step(rings: np.ndarray, rule: str, phase: int) -> None:
    """One majority-voting sublayer, in place, on site-major ``rings``
    (sites along axis 0, any number of rings along the rest).  The windows
    of a phase are disjoint, so the phase is one lookup of the rule table
    over every window of every ring at once."""
    left, mid, right = _mv_sites(len(rings), phase)
    out = _rule_table(rule)[(rings[left] << 2) | (rings[mid] << 1)
                            | rings[right]]
    rings[left], rings[mid], rings[right] = out >> 2, (out >> 1) & 1, out & 1


def _mv_run(rings: np.ndarray, rule: str, count: int, going,
            seen=None) -> np.ndarray:
    """Up to ``count`` sublayers of ``rule``, in place, on site-major rings
    (N, B), phases in :func:`mv_sublayer_sequence` order.  A ring stops
    before the first sublayer at which the per-ring predicate ``going`` is
    false for it; only the rings still active are stepped, and ``seen``,
    when given, is called with them after each sublayer.  Returns the
    sublayers each ring used."""
    used = np.zeros(rings.shape[1], dtype=np.int64)
    active = np.arange(rings.shape[1])
    live = rings
    sequence = mv_sublayer_sequence(count)
    for k, phase in enumerate(sequence):
        go = going(live)
        if not go.all():
            stop = active[~go]
            rings[:, stop] = live[:, ~go]
            used[stop] = k
            live, active = live[:, go], active[go]
            if not active.size:
                break
        _mv_step(live, rule, phase)
        if seen is not None:
            seen(live)
    if live is not rings:
        rings[:, active] = live
    used[active] = len(sequence)
    return used


def _mv_sublayer(bits, phase: int, rule: str) -> np.ndarray:
    if phase not in (1, 2, 3):
        raise ValueError(f"phase must be 1, 2 or 3, got {phase}")
    arr = parse_bits(bits)
    _mv_step(arr, rule, phase)
    return arr


def mv_spread_classical(bits, phase: int) -> np.ndarray:
    """One spreading sublayer: relocates the middle one of phase-aligned
    1,1,0 triples; conserves popcount."""
    return _mv_sublayer(bits, phase, "spread")


def mv_consensus_classical(bits, phase: int) -> np.ndarray:
    """One consensus sublayer: kills phase-aligned isolated ones, grows
    clusters over a neighboring zero on either side."""
    return _mv_sublayer(bits, phase, "consensus")


def mv_sublayer_sequence(count: int):
    """Phase indices in application order; a full layer is the phases of
    :data:`models.MV_PHASE_ORDER`."""
    return [MV_PHASE_ORDER[i % 3] for i in range(count)]


def mv_spread_sweep(bits) -> np.ndarray:
    """Unpartitioned spreading sweep: every center once, site N down to 1.

    One sweep splits a cluster by inserting a zero after its leftmost one
    and shifting the remaining ones right, wrap included; updates are
    visible to later centers of the same sweep.
    """
    arr = parse_bits(bits)
    n = len(arr)
    return _apply_table(arr, _rule_table("spread"),
                        [(j - 1) % n for j in range(n - 1, -1, -1)])


def mv_separated_target(bits) -> np.ndarray:
    """Endpoint of repeated spreading sweeps (no two ones adjacent).

    Only exists in the n <= N/2 sector; raises otherwise.
    """
    arr = parse_bits(bits)
    if popcount(arr) > len(arr) // 2:
        raise ValueError("majority-of-ones inputs cannot be fully separated")
    for _ in range(4 * len(arr)):
        if not has_adjacent_ones(arr):
            return arr
        arr = mv_spread_sweep(arr)
    raise RuntimeError("spreading sweeps failed to separate a minority input")


def tau_formula(n_sites: int) -> int:
    """Closed-form worst-case sublayer count for a multiple-of-three ring."""
    if n_sites % 3 != 0:
        raise ValueError(f"n_sites={n_sites} is not a multiple of 3")
    return 4 * (n_sites // 2) + 2 * n_sites // 3 - 5


def mv_classify(bits):
    """Run spreading until no two ones are adjacent (or its budget ends),
    then consensus until uniform.

    ``bits`` is one ring (a 0/1 string or 1-d array), for which the result
    is (majority label, sublayers used) as ints, or a (B, N) batch of
    rings, for which it is (labels, sublayers used) as int arrays.  Both go
    through one batched kernel, in which every ring stops on its own.

    Raises :class:`ClassificationFailureError` if the budget of
    :func:`tau_formula` sublayers does not yield a uniform state for some
    ring; that would falsify the closed-form bound.
    """
    return _mv_classify(bits)


def _mv_classify(bits, seen=None):
    """:func:`mv_classify`, calling ``seen`` with the site-major rings still
    running after each sublayer (:func:`_mv_run`)."""
    batch = np.ndim(bits) == 2
    start = _zero_one(np.asarray(bits)) if batch else parse_bits(bits)[None]
    rings = np.ascontiguousarray(start.T)
    n = len(rings)
    if n == 0 or n % 3 != 0:
        raise ValueError(f"length {n} is not a positive multiple of 3; "
                         f"apply mv_pad first")
    tau_a, tau_b, _total = mv_layer_counts(n)
    used = (_mv_run(rings, "spread", tau_a, _adjacent_ones, seen)
            + _mv_run(rings, "consensus", tau_b, _mixed, seen))
    failed = np.flatnonzero(_mixed(rings))
    if failed.size:
        i = failed[0]
        raise ClassificationFailureError(
            f"ring {format_bits(start[i])} (index {i}) at state "
            f"{format_bits(rings[:, i])} not uniform after {used[i]} "
            f"sublayers")
    labels = rings[0].astype(np.int64)
    if batch:
        return labels, used
    return int(labels[0]), int(used[0])


# ---------------------------------------------------------------------------
# rate/probability dictionary between the discrete and continuous pictures


def gamma_p_relation(p: float) -> float:
    """gamma * tau implementing one discrete update of flip scale p."""
    if not 0 < p < 0.5:
        if p == 0.5:
            return float("inf")
        raise ValueError(f"p must lie in (0, 0.5), got {p}")
    return -np.log(1 - 2 * p)


def p_from_gamma_tau(gamma_tau: float) -> float:
    if gamma_tau < 0:
        raise ValueError(f"gamma*tau must be non-negative, got {gamma_tau}")
    return (1 - np.exp(-gamma_tau)) / 2


# ---------------------------------------------------------------------------
# Monte-Carlo absorption and worst-case inputs


def absorption_time_trials(p: float, n_sites: int, n_trials: int,
                           density: float, rng: np.random.Generator
                           ) -> np.ndarray:
    """Steps until all-zeros/all-ones under the probabilistic rule, batched.

    Initial configurations draw each cell one with probability ``density``;
    a trial still mixed after 400 N^2 steps raises.
    """
    max_steps = 400 * n_sites ** 2
    state = (rng.random((n_trials, n_sites)) < density).astype(np.uint8)
    times = np.full(n_trials, -1, dtype=np.int64)
    alive = np.ones(n_trials, dtype=bool)
    for step in range(1, max_steps + 1):
        sub = state[alive]
        sub = (rng.random(sub.shape) < _prob_one(p, sub)).astype(np.uint8)
        state[alive] = sub
        row = sub.sum(axis=1)
        done = (row == 0) | (row == n_sites)
        idx = np.flatnonzero(alive)
        times[idx[done]] = step
        alive[idx[done]] = False
        if not alive.any():
            break
    if alive.any():
        raise RuntimeError(f"{alive.sum()} trials unabsorbed after {max_steps} steps")
    return times


def mv_worst_spread_input(n_sites: int) -> np.ndarray:
    """Single cluster of floor(N/2) ones: the spreading worst case."""
    n = n_sites // 2
    return np.array([1] * n + [0] * (n_sites - n), dtype=np.uint8)


def mv_worst_consensus_input(n_sites: int) -> np.ndarray:
    """Maximal alternation plus a minimal cluster in the majority sector."""
    bits = np.zeros(n_sites, dtype=np.uint8)
    bits[0::2] = 1
    if n_sites % 2 == 0:
        bits[1] = 1  # forms the smallest cluster 1,1,1 at sites 1..3
    # odd N: sites N and 1 are both one and adjacent on the ring already
    return bits
