"""Classical bitstring track: rules, sampling, majority-vote layers."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcadc.classical import (
    ClassificationFailureError, absorption_time_trials, eca_step,
    fates_classical_trajectory, format_bits, fuks_classical_step,
    gamma_p_relation, has_adjacent_ones, is_uniform, mv_classify,
    mv_consensus_classical, mv_spread_classical, mv_sublayer_sequence,
    mv_worst_consensus_input, mv_worst_spread_input, p_from_gamma_tau,
    parse_bits, partitioned_rule_step, popcount, tau_formula,
)
from qcadc.models import mv_layer_counts, mv_pad


# ---------------------------------------------------------------------------
# elementary rules


def test_rule_170_shifts_left():
    assert format_bits(eca_step(170, "100")) == "001"


def test_rule_240_shifts_right():
    assert format_bits(eca_step(240, "100")) == "010"


def test_rule_232_is_local_majority():
    # independent truth-table oracle: majority of the three neighbors
    for bits in itertools.product((0, 1), repeat=5):
        got = eca_step(232, list(bits))
        for j in range(5):
            window = bits[(j - 1) % 5] + bits[j] + bits[(j + 1) % 5]
            assert got[j] == (1 if window >= 2 else 0)


def test_rule_184_truth_table():
    # enumerated truth table of the traffic rule
    table = {(1, 1, 1): 1, (1, 1, 0): 0, (1, 0, 1): 1, (1, 0, 0): 1,
             (0, 1, 1): 1, (0, 1, 0): 0, (0, 0, 1): 0, (0, 0, 0): 0}
    for (l, c, r), want in table.items():
        got = eca_step(184, [l, c, r])
        assert got[1] == want


def test_rule_232_on_110_wraps():
    # on the 3-ring the zero site sees two one-neighbors, so it flips too
    assert format_bits(eca_step(232, "110")) == "111"
    # without the wrap pressure the same window is stable
    assert format_bits(eca_step(232, "01100")) == "01100"


def test_rule_184_on_1100():
    assert format_bits(eca_step(184, "1100")) == "1010"


def test_unsupported_rule_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        eca_step(30, "101")


def test_rule_184_conserves_ones_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        bits = (rng.random(12) < 0.5).astype(np.uint8)
        assert popcount(eca_step(184, bits)) == popcount(bits)


# ---------------------------------------------------------------------------
# probabilistic rule


def test_fuks_classical_absorbing_states():
    rng = np.random.default_rng(0)
    for bits in ("0000", "1111"):
        out = fuks_classical_step(0.3, bits, rng)
        assert format_bits(out) == bits


def test_fuks_classical_center_damps_with_certainty_at_half():
    # 2p = 1 makes the 0_0 damping row deterministic for the center cell;
    # the outer cells still flip with probability p on a 3-ring
    rng = np.random.default_rng(0)
    for _ in range(200):
        out = fuks_classical_step(0.5, "010", rng)
        assert out[1] == 0


def test_fuks_classical_transition_frequencies():
    # Monte-Carlo vs the transition table, 3-sigma bands per neighborhood
    rng = np.random.default_rng(42)
    p = 0.3
    n_samples = 100_000
    for a, c, b in itertools.product((0, 1), repeat=3):
        state = np.tile([a, c, b], (n_samples, 1)).astype(np.uint8)
        left, right = state[:, 0].astype(float), state[:, 2].astype(float)
        prob = np.where(state[:, 1] == 0, p * (left + right),
                        1 - p * ((1 - left) + (1 - right)))
        got = (rng.random(n_samples) < prob).mean()
        want = prob[0]
        sigma = np.sqrt(max(want * (1 - want), 1e-12) / n_samples)
        assert abs(got - want) <= max(3 * sigma, 1e-12), (a, c, b)


def test_fuks_classical_mean_expectation_is_conserved():
    # the synchronous rule conserves the ones count in expectation
    rng = np.random.default_rng(7)
    bits = parse_bits("0011010110")
    acc = 0.0
    runs = 4000
    for _ in range(runs):
        acc += popcount(fuks_classical_step(0.4, bits, rng))
    mean = acc / runs
    sigma = np.sqrt(10 / 4) / np.sqrt(runs)
    assert abs(mean - popcount(bits)) < 5 * sigma + 0.05


# ---------------------------------------------------------------------------
# majority-vote layers (derived from the quantum Kraus sets)


def test_spread_sweep_reproduces_cluster_splitting_trace():
    from qcadc.classical import mv_spread_sweep
    seq = ["000011111110000", "000010111111000", "000010101111100",
           "000010101011110", "000010101010111", "010010101010101"]
    bits = parse_bits(seq[0])
    for want in seq[1:]:
        bits = mv_spread_sweep(bits)
        assert format_bits(bits) == want


def test_partitioned_spread_layer_moves_right_edge():
    # frozen oracle of the mechanically derived triple maps: one partitioned
    # layer relocates the phase-aligned right edge of the cluster
    bits = parse_bits("000011111110000")
    for phase in mv_sublayer_sequence(3):
        bits = mv_spread_classical(bits, phase)
    assert format_bits(bits) == "000011111101000"


def test_spread_leaves_alternating_untouched():
    bits = parse_bits("010101")
    for phase in (3, 2, 1):
        assert format_bits(mv_spread_classical(bits, phase)) == "010101"


def test_spread_conserves_popcount_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        bits = (rng.random(9) < rng.random()).astype(np.uint8)
        phase = rng.integers(1, 4)
        assert popcount(mv_spread_classical(bits, phase)) == popcount(bits)


def test_consensus_grows_cluster_and_kills_isolated():
    # isolated ones die; the single cluster expands to cover the ring
    bits = parse_bits("101010101010101110101010101010")
    assert popcount(bits) == 16
    dens = [popcount(bits) / 30]
    k = 0
    for phase in mv_sublayer_sequence(60):
        if is_uniform(bits):
            break
        bits = mv_consensus_classical(bits, phase)
        dens.append(popcount(bits) / 30)
        k += 1
    assert is_uniform(bits) and bits[0] == 1
    assert min(dens) < dens[0]          # density dips first
    assert dens[-1] == 1.0              # then the cluster wins


def test_classify_tie_goes_to_zero():
    label, _ = mv_classify("111111000000")
    assert label == 0


def test_classify_padding_preserves_majority():
    # 7 ones of 13 is a ones-majority; the balanced pad keeps it that way
    padded = mv_pad("1111111000000")        # 13 -> 15 sites, 8 ones of 15
    assert popcount(padded) == 8
    label, _ = mv_classify(padded)
    assert label == 1
    # and a zeros-majority stays a zeros-majority
    padded = mv_pad("1100000")              # 7 -> 9 sites, 3 ones of 9
    label, _ = mv_classify(padded)
    assert label == 0


@pytest.mark.parametrize("n", [6, 9])
def test_classify_exhaustive_within_budget(n):
    tau = tau_formula(n)
    worst = 0
    for code in range(2 ** n):
        bits = [(code >> (n - 1 - i)) & 1 for i in range(n)]
        want = 1 if sum(bits) > n / 2 else 0
        label, used = mv_classify(bits)
        assert label == want, format_bits(np.array(bits, dtype=np.uint8))
        worst = max(worst, used)
    assert worst <= tau
    assert worst >= tau - 3      # the bound is tight up to the slack terms


def test_classify_rejects_unpadded_length():
    with pytest.raises(ValueError, match="multiple of 3"):
        mv_classify("10110")


# ---------------------------------------------------------------------------
# batched classification against the per-ring reference


def _reference_classify(bits):
    """The per-ring classifier the batched kernel replaced: window by
    window through ``_apply_table`` in the windows of ``mv_windows``,
    phases 3, 2, 1 repeating, each stage restarting at phase 3.  Returns
    (label, sublayers used), or None if the budget leaves the ring mixed."""
    from qcadc.classical import _apply_table, _rule_table
    from qcadc.models import mv_windows
    arr = parse_bits(bits)
    n = len(arr)
    tau_a, tau_b, _ = mv_layer_counts(n)
    used = 0
    for rule, count, going in (
            ("spread", tau_a, lambda a: np.any(a & np.roll(a, -1))),
            ("consensus", tau_b, lambda a: np.any(a != a[0]))):
        for i in range(count):
            if not going(arr):
                break
            _apply_table(arr, _rule_table(rule),
                         mv_windows(n, (3, 2, 1)[i % 3]))
            used += 1
    return (int(arr[0]), used) if np.all(arr == arr[0]) else None


def _all_rings(n):
    codes = np.arange(2 ** n)
    return ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_batch_matches_per_ring_reference_on_every_ring(n):
    rings = _all_rings(n)
    labels, used = mv_classify(rings)
    assert labels.shape == used.shape == (2 ** n,)
    assert np.issubdtype(labels.dtype, np.integer)
    assert np.issubdtype(used.dtype, np.integer)
    want = np.array([_reference_classify(r) for r in rings])
    assert np.array_equal(labels, want[:, 0])
    assert np.array_equal(used, want[:, 1])


@given(st.sampled_from([3, 6, 9, 12, 15]).flatmap(lambda n: st.tuples(
           st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                    min_size=1, max_size=32),
           st.lists(st.integers(0, 31), max_size=32))))
@settings(max_examples=60, deadline=None)
def test_batch_matches_reference_on_random_batches(case):
    rows, repeats = case
    batch = rows + [rows[i % len(rows)] for i in repeats]    # duplicates
    want = [_reference_classify(row) for row in batch]
    if None in want:
        # some 3-site rings are not classified within their budget
        first = want.index(None)
        ring = "".join(map(str, batch[first]))
        with pytest.raises(ClassificationFailureError,
                           match=rf"ring {ring} \(index {first}\)"):
            mv_classify(np.array(batch, dtype=np.uint8))
        return
    labels, used = mv_classify(np.array(batch, dtype=np.uint8))
    assert list(zip(labels.tolist(), used.tolist())) == want


def test_single_ring_and_batch_of_one_agree():
    for bits in ("111111000000", "010101", "110110100", "000", "111"):
        label, used = mv_classify(bits)
        assert type(label) is int and type(used) is int
        labels, useds = mv_classify(parse_bits(bits)[None])
        assert (labels.tolist(), useds.tolist()) == ([label], [used])
        assert mv_classify([int(c) for c in bits]) == (label, used)


def test_batch_failure_names_first_unclassified_ring(monkeypatch):
    import qcadc.classical as classical
    monkeypatch.setattr(classical, "mv_layer_counts", lambda n: (1, 1, 2))
    batch = np.array([parse_bits(b) for b in
                      ("000000", "111111", "110000", "101010")])
    with pytest.raises(ClassificationFailureError,
                       match=r"ring 110000 \(index 2\) .* after 2 sublayers"):
        mv_classify(batch)


@pytest.mark.parametrize("bits", [
    np.array([[1, 1, 0], [1, 2, 0]]), np.array([[1, 1, 0.5]]),
    np.ones((2, 4), dtype=np.uint8), np.ones((2, 0), dtype=np.uint8)])
def test_batch_rejects_bad_rings(bits):
    with pytest.raises(ValueError):
        mv_classify(bits)


@pytest.mark.parametrize("bits", [
    [1, 1, 0.5, 0, 0.9, 0], [1.0, 1.7, 0], [1, 2, 0], [1, -1, 0],
    [1, float("nan"), 0], [1, None, 0]])
def test_parse_bits_refuses_values_other_than_0_and_1(bits):
    with pytest.raises(ValueError, match="0/1"):
        parse_bits(bits)
    with pytest.raises(ValueError, match="0/1"):
        popcount(bits)


def test_parse_bits_takes_exact_zeros_and_ones_of_any_numeric_type():
    for bits in ([1, 0, 1], [1.0, 0.0, 1.0], [True, False, True],
                 np.array([1, 0, 1], dtype=np.int8), "101"):
        got = parse_bits(bits)
        assert got.dtype == np.uint8 and format_bits(got) == "101"


def test_quantum_classical_agreement_n6():
    # the quantum discrete track restricted to basis states equals the
    # classical triple maps, sublayer by sublayer, for all 64 inputs
    from qcadc.models import mv_consensus_step, mv_spread_step
    from qcadc.superop import vectorize
    from conftest import basis_density
    n = 6
    spread_steps = {ph: mv_spread_step(n, ph) for ph in (1, 2, 3)}
    consensus_steps = {ph: mv_consensus_step(n, ph) for ph in (1, 2, 3)}
    for code in range(2 ** n):
        bits = np.array([(code >> (n - 1 - i)) & 1 for i in range(n)], np.uint8)
        qbits = vectorize(basis_density(list(bits))).amplitudes
        cbits = bits.copy()
        for phase in mv_sublayer_sequence(8):
            qbits = spread_steps[phase].matrix @ qbits
            cbits = mv_spread_classical(cbits, phase)
        for phase in mv_sublayer_sequence(5):
            qbits = consensus_steps[phase].matrix @ qbits
            cbits = mv_consensus_classical(cbits, phase)
        nz = np.flatnonzero(np.abs(qbits) > 1e-9)
        assert len(nz) == 1
        want = vectorize(basis_density(list(cbits))).amplitudes
        assert abs(qbits[nz[0]] - 1) < 1e-9
        assert want[nz[0]] == 1.0


# ---------------------------------------------------------------------------
# closed-form counts and the rate/probability dictionary


@pytest.mark.parametrize("n,want", [(30, 75), (6, 11), (9, 17)])
def test_tau_formula(n, want):
    assert tau_formula(n) == want


def test_tau_formula_matches_layer_counts():
    for n in (6, 9, 12, 15, 30):
        assert tau_formula(n) == mv_layer_counts(n)[2]


def test_gamma_p_relation_values():
    assert abs(gamma_p_relation(0.25) - np.log(2)) < 1e-14
    assert p_from_gamma_tau(0.0) == 0.0
    assert gamma_p_relation(0.5) == float("inf")


@given(st.floats(min_value=1e-6, max_value=0.499))
@settings(max_examples=50, deadline=None)
def test_gamma_p_round_trip(p):
    assert abs(p_from_gamma_tau(gamma_p_relation(p)) - p) < 1e-14


# ---------------------------------------------------------------------------
# sampling helpers


def test_absorption_times_positive_and_scaling_direction():
    rng = np.random.default_rng(5)
    t10 = absorption_time_trials(0.3, 10, 60, 0.3, rng).mean()
    t20 = absorption_time_trials(0.3, 20, 60, 0.3, rng).mean()
    assert 0 < t10 < t20


def test_worst_case_inputs():
    a = mv_worst_spread_input(12)
    assert popcount(a) == 6 and format_bits(a).startswith("111111000000")
    b = mv_worst_consensus_input(12)
    assert popcount(b) == 7          # majority by one
    assert has_adjacent_ones(b)
    b9 = mv_worst_consensus_input(9)
    assert popcount(b9) == 5 and b9[0] == 1 and b9[8] == 1


def test_fates_trajectory_endpoint_rules():
    rng = np.random.default_rng(1)
    # p = 0 is pure majority rule partitioned: uniform states absorb
    out = fates_classical_trajectory(0.0, "111", 5, rng)
    assert format_bits(out) == "111"
