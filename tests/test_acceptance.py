"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

One check is left failing deliberately: 10b holds the band [-9.5, -8.5]
to the published three-decimal weights, whose exact cost is -8.405.  06b
compares its band with the ratio of the two fitted gap prefactors
exp(d_deph - d_fuks), not with the per-size gap ratios.  The docstrings
carry the analysis.  Everything else must pass at the stated tolerance.
"""
import itertools
import time

import numpy as np
import pytest
from scipy.linalg import expm

from qcadc import classical, evolve, mlopt, models, observables, spectra
from qcadc.superop import (
    VecState, assemble_lindbladian, devectorize, doubled, vectorize,
)
from conftest import basis_density, ghz_density, random_density


def criterion(k, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {k:2d} {tag}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_channel_validity(rng):
    """Kraus completeness < 1e-12 and step trace drift < 1e-10."""
    t0 = time.time()
    worst_residual = 0.0
    for p in np.linspace(0.025, 0.5, 20):
        for kraus in models.fuks_kraus_sets(p).values():
            worst_residual = max(worst_residual,
                                 models.kraus_completeness_residual(kraus))
    for rule in (184, 232):
        for kraus in models.fates_kraus_sets(rule).values():
            worst_residual = max(worst_residual,
                                 models.kraus_completeness_residual(kraus))
    for kind in ("spread", "consensus"):
        worst_residual = max(worst_residual, models.kraus_completeness_residual(
            models.rule_kraus(kind)))

    steps = [models.fuks_step(models.FuksParams(p), 4)
             for p in np.linspace(0.05, 0.5, 20)]
    steps += [models.fates_step(p, 4) for p in np.linspace(0.0, 1.0, 20)]
    steps += [models.mv_spread_step(3), models.mv_consensus_step(3)]
    worst_drift = 0.0
    count = 0
    for step in steps:
        n = step.n_sites
        for _ in range(100 if len(steps) < 10 else 5):
            v = vectorize(random_density(rng, n))
            out = VecState(n, step.matrix @ v.amplitudes)
            worst_drift = max(worst_drift,
                              abs(observables.trace_of(out) - 1))
            count += 1
    for _ in range(100):
        v = vectorize(random_density(rng, 4))
        out = VecState(4, steps[5].matrix @ v.amplitudes)
        worst_drift = max(worst_drift, abs(observables.trace_of(out) - 1))
    criterion(1, worst_residual < 1e-12 and worst_drift < 1e-10,
              "channel validity (completeness, trace drift)",
              f"residual {worst_residual:.1e}, drift {worst_drift:.1e}, "
              f"{time.time() - t0:.0f}s")


def test_criterion_02_fixed_point_both_paths():
    """|001> relaxes to 2/3 |000><000| + 1/3 |111><111| both ways."""
    target = models.steady_family_state(2 / 3, 0.0, 3)
    state = vectorize(basis_density([0, 0, 1]))

    cont = evolve.continuous_evolve(
        models.fuks_lindblad(models.FuksParams(0.3), 3), state, 200.0,
        method="dense", samples=8)
    d_cont = observables.trace_distance(devectorize(cont.final_state), target)

    rule = models.fuks_rule(models.FuksParams(0.3), 3)
    disc = evolve.discrete_run(rule, state, max_steps=4000, record=False)
    d_disc = observables.trace_distance(devectorize(disc.final_state), target)
    # the oracle: the 4^N step applied to the 4^N vector
    step, v = rule.step().matrix, state.amplitudes
    for _ in range(4000):
        v = step @ v
    assert np.array_equal(disc.final_state.amplitudes, v)

    criterion(2, d_cont < 1e-6 and d_disc < 1e-6,
              "isolated-one fixed point via continuous and discrete paths",
              f"trace distances {d_cont:.1e} / {d_disc:.1e}")


def test_criterion_03_kernel_structure():
    """Four zero modes at N=3,4,5; extreme family in the kernel span."""
    ok = True
    details = []
    for n in (3, 4, 5):
        rep = spectra.spectrum(models.fuks_lindblad(models.FuksParams(0.3), n))
        ok &= rep.null_dim == 4
        details.append(f"N={n}: null={rep.null_dim}")
    basis = spectra.steady_state_basis(
        models.fuks_lindblad(models.FuksParams(0.3), 4))
    span = np.column_stack([b.amplitudes for b in basis])
    proj = span @ span.conj().T
    worst = 0.0
    probes = [ghz_density(4), models.steady_family_state(0.3, 0.2, 4),
              models.steady_family_state(0.5, 0.5, 4)]
    for rho in probes:
        v = vectorize(rho).amplitudes
        v = v / np.linalg.norm(v)
        worst = max(worst, float(np.linalg.norm(proj @ v - v)))
    ok &= worst < 1e-9
    criterion(3, ok, "kernel dimension and extreme-state span",
              "; ".join(details) + f"; span residual {worst:.1e}")


def test_criterion_04_sz_conservation(rng):
    """|<S_z>(t) - <S_z>(0)| < 1e-8 along both number-conserving flows."""
    worst = 0.0
    trace_worst = 0.0
    cases = [(models.fuks_lindblad(models.FuksParams(0.3), 3), 3, 13),
             (models.fuks_lindblad(models.FuksParams(0.3), 4), 4, 12),
             (models.dephasing_lindblad(models.DephasingParams(0.0), 3), 3, 13),
             (models.dephasing_lindblad(models.DephasingParams(0.7), 4), 4, 12)]
    for spec, n, reps in cases:
        gen = assemble_lindbladian(spec).dense()
        prop = expm(gen * (100.0 / 32))
        for _ in range(reps):
            v = vectorize(random_density(rng, n)).amplitudes
            s0 = observables.expval_sz(VecState(n, v))
            for _ in range(32):
                v = prop @ v
                st = VecState(n, v)
                worst = max(worst, abs(observables.expval_sz(st) - s0))
                trace_worst = max(trace_worst,
                                  abs(observables.trace_of(st) - 1))
    criterion(4, worst < 1e-8 and trace_worst < 1e-8,
              "magnetization conserved to t=100 on 50 random states",
              f"max drift {worst:.1e}, trace {trace_worst:.1e}")


def test_criterion_05_discrete_continuous_consistency():
    """Frozen-neighborhood damping: exp(generator t) equals the discrete
    channel at p = (1 - e^{-gamma t})/2, ten values, 1e-10."""
    from qcadc.superop import LindbladSpec, LocalOperator, SIGMA_MINUS
    gen = assemble_lindbladian(LindbladSpec(
        1, (), ((LocalOperator((0,), SIGMA_MINUS), 1.0),))).dense()
    worst = 0.0
    for gt in np.linspace(0.2, 4.0, 10):
        p = classical.p_from_gamma_tau(gt)
        cont = expm(gen * gt)
        disc = sum(doubled(K) for K in models.fuks_kraus_sets(p)[(0, 0)])
        worst = max(worst, float(np.abs(cont - disc).max()))
    criterion(5, worst < 1e-10,
              "frozen-neighborhood channel matches the generator flow",
              f"max channel distance {worst:.1e}")


@pytest.fixture(scope="module")
def desk_gaps():
    fuks = {n: spectra.spectrum(
        models.fuks_lindblad(models.FuksParams(0.3), n)).gap
        for n in (3, 4, 5, 6, 7)}
    deph = {n: spectra.spectrum(
        models.dephasing_lindblad(models.DephasingParams(0.0), n)).gap
        for n in (4, 5, 6, 7)}
    return fuks, deph


def test_criterion_06a_gap_scaling_slopes(desk_gaps):
    """Log-log slopes of both gap families sit in [-2.3, -1.6]."""
    t0 = time.time()
    fuks, deph = desk_gaps
    fit_f = spectra.loglog_fit(sorted(fuks.items()))
    fit_d = spectra.loglog_fit(sorted(deph.items()))
    ok = -2.3 <= fit_f.c <= -1.6 and -2.3 <= fit_d.c <= -1.6
    criterion(6, ok, "gap scaling slopes at desk scale",
              f"slopes {fit_f.c:.3f} / {fit_d.c:.3f}, {time.time() - t0:.0f}s")


def test_criterion_06b_gap_ratio_band(desk_gaps):
    """Ratio of the fitted gap prefactors against the band 1.378 +- 0.15.

    The band is a ratio of exponentiated log-log fit intercepts: with
    gap ~ e^d N^c for each model it is e^{d_deph} / e^{d_fuks}.  It is
    computed here from the same two fits that criterion 06a asserts on
    (three-site rule N = 3..7, bond-projector model N = 4..7), which give
    exp(2.4273 - 2.1080) = 1.376.

    The exact gaps are 2 (1 - cos(pi/N)) for the three-site rule and
    {1, 1 - cos(2pi/N)} for the bond-projector model (the latter reproduce
    the authors' own exact small-size values 1, 1, 0.691, 0.5 digit for
    digit).  Their per-size ratios deph[N] / fuks[N] = 2 cos^2(pi/2N) run
    1.71..1.90 for N = 4..7, but they are a different quantity: they equal
    the intercept ratio only when the two slopes agree, and here the slopes
    are -1.912 and -1.745.  They are printed as detail only.

    The intercept ratio depends on which sizes are fitted.  From the closed
    forms, fitting both models on N = 4..7 gives 1.315, on N = 4..12 gives
    1.484 and on N = 8..20 gives 1.80, approaching 2 as both slopes tend to
    -2.  The sizes therefore stay tied to the ``desk_gaps`` fixture.  The
    sizes behind the published band are not stated in PAPER.md (the
    abstract) or the README; the window used here is inferred from the
    match, 0.002 from the band's centre, not taken from a source.
    """
    fuks, deph = desk_gaps
    fit_f = spectra.loglog_fit(sorted(fuks.items()))
    fit_d = spectra.loglog_fit(sorted(deph.items()))
    ratio = float(np.exp(fit_d.d - fit_f.d))
    per_size = {n: deph[n] / fuks[n] for n in sorted(deph)}
    criterion(6, abs(ratio - 1.378) <= 0.15,
              "fitted gap prefactor ratio in 1.378 +- 0.15",
              f"exp({fit_d.d:.4f} - {fit_f.d:.4f}) = {ratio:.3f}; per-size "
              "ratios " + ", ".join(f"N={n}: {r:.3f}"
                                    for n, r in per_size.items()))


def test_criterion_07_mv_exhaustive():
    """All bitstrings classified within the closed-form sublayer budget for
    N in {6, 9, 12}; quantum and classical tracks agree exactly at N=6."""
    t0 = time.time()
    ok = True
    details = []
    for n in (6, 9, 12):
        budget = classical.tau_formula(n)
        worst = 0
        for code in range(2 ** n):
            bits = [(code >> (n - 1 - i)) & 1 for i in range(n)]
            want = 1 if sum(bits) > n / 2 else 0
            label, used = classical.mv_classify(bits)
            if label != want or used > budget:
                ok = False
            worst = max(worst, used)
        details.append(f"N={n}: worst {worst}/{budget}")

    n = 6
    spread = {ph: models.mv_spread_step(n, ph) for ph in (1, 2, 3)}
    consensus = {ph: models.mv_consensus_step(n, ph) for ph in (1, 2, 3)}
    agree = True
    for code in range(2 ** n):
        bits = np.array([(code >> (n - 1 - i)) & 1 for i in range(n)],
                        dtype=np.uint8)
        q = vectorize(basis_density(list(bits))).amplitudes
        c = bits.copy()
        for phase in classical.mv_sublayer_sequence(7):
            q = spread[phase].matrix @ q
            c = classical.mv_spread_classical(c, phase)
        for phase in classical.mv_sublayer_sequence(4):
            q = consensus[phase].matrix @ q
            c = classical.mv_consensus_classical(c, phase)
        want_vec = vectorize(basis_density(list(c))).amplitudes
        if np.abs(q - want_vec).max() > 1e-9:
            agree = False
    criterion(7, ok and agree, "majority voting exhaustive + track agreement",
              "; ".join(details) + f"; quantum=classical at N=6: {agree}; "
              f"{time.time() - t0:.0f}s")


def test_criterion_08_mv_continuous_scaling():
    """Worst-case continuous times fit tau = b N + q with b = 2.40 +- 0.3."""
    t0 = time.time()
    rows = []
    seeds = np.random.SeedSequence(2024).spawn(9)
    for i, n in enumerate(range(6, 31, 3)):
        rows.append(evolve.mv_worst_case_times(
            n, n_traj=300, rng=np.random.default_rng(seeds[i])))
    ns = np.array([r["n_sites"] for r in rows], dtype=float)
    tot = np.array([r["tau_total"] for r in rows])
    b, q = np.polyfit(ns, tot, 1)
    criterion(8, abs(b - 2.40) <= 0.3,
              "linear worst-case scaling of the continuous schedule",
              f"b={b:.3f}, q={q:.2f}, {time.time() - t0:.0f}s")


def test_criterion_09_traffic_majority_mixture_fails():
    """The stochastic traffic/majority mixture never reaches all-ones from
    the seven-site majority input (20 seeds, 1000 steps)."""
    bits = "1111100"
    seeds = np.random.SeedSequence(77).spawn(20)
    finals = []
    for s in seeds:
        out = classical.fates_classical_trajectory(
            0.5, bits, 1000, np.random.default_rng(s))
        finals.append(classical.popcount(out) / 7)
    ok = max(finals) < 0.99
    criterion(9, ok, "traffic/majority mixture fails majority voting",
              f"max final density {max(finals):.3f}")


def test_criterion_10a_ml_misclassification_pattern():
    """Published weights misclassify exactly the two-cluster minority state."""
    scores = mlopt.per_state_scores(models.published_ml_weights())
    mis = [s.bits for s in scores if s.misclassified]
    criterion(10, mis == [(1, 1, 0, 0, 0)],
              "published weights misclassify exactly one training state",
              f"misclassified: {mis}")


def test_criterion_10b_ml_cost_band():
    """Cost of the published weights inside [-9.5, -8.5].

    Left failing deliberately.  The published three-decimal weights
    (w2, w3, w5, w7) = (1, 0.043, 0.040, 0.075) have the closed-form cost
    C = -9 + 4 q + 2 r, with
      q = (w3 + w5) / (w2 + w3 + w5), the probability that a lone one grows
          before it is lowered (states 1000 and 10000),
      r = (g + 2 w2 q) / (g + 2 w2) with g = w3 + w5 + w7, the probability
          that 10100 reaches all ones,
    and +1 from 11000, which is absorbed at all ones and misclassified.
    That gives C = -8.40496 at any saturating horizon and any common rate
    scale, since q and r are ratios of weights; the engine reproduces it
    (``test_cost_published_weights_value_and_misclassification``).  Any
    weights that misclassify 11000 score above -9, so these weights cannot
    meet the band.  Neither PAPER.md (the abstract) nor the README settles
    whether the quoted "close to -9" describes these weights or the
    search's output: one simplex descent from them reaches -8.765.
    """
    cost = mlopt.ml_cost(models.published_ml_weights())
    criterion(10, -9.5 <= cost <= -8.5,
              "published-weight cost in [-9.5, -8.5]", f"C = {cost:.4f}")


def test_criterion_11_classical_diffusive_scaling():
    """Mean absorption time of the probabilistic rule grows like N^2
    (ratio of means within a factor 1.5 of 4 across doublings)."""
    t0 = time.time()
    rng = np.random.default_rng(99)
    means, sems = {}, {}
    for n in (10, 20, 40):
        times = classical.absorption_time_trials(0.3, n, 200, 0.3, rng)
        means[n] = float(times.mean())
        sems[n] = float(times.std(ddof=1) / np.sqrt(len(times)))
    r1 = means[20] / means[10]
    r2 = means[40] / means[20]
    exponent = spectra.loglog_fit([(n, means[n]) for n in means]).c
    ok = 4 / 1.5 <= r1 <= 4 * 1.5 and 4 / 1.5 <= r2 <= 4 * 1.5
    criterion(11, ok, "diffusive absorption-time scaling",
              "mean+-sem " + ", ".join(
                  f"N={n}: {means[n]:.0f}+-{sems[n]:.0f}" for n in means)
              + f"; ratios {r1:.2f}, {r2:.2f}; exponent {exponent:.2f}; "
              f"{time.time() - t0:.0f}s")


def test_criterion_12_oracle_equivalence(rng):
    """Sparse embedding, diagonal restriction and Krylov flow each agree
    with dense brute force on every small model instance."""
    worst_embed = 0.0
    worst_diag = 0.0
    worst_krylov = 0.0

    # embedding vs an independent dense Kronecker-permutation oracle
    from test_superop import interleave_perm
    from qcadc.superop import embed_local
    n = 3
    perm = interleave_perm(n)
    for width, start in itertools.product((1, 2, 3), range(n)):
        sites = tuple((start + i) % n for i in range(width))
        K = rng.normal(size=(2 ** width, 2 ** width)) \
            + 1j * rng.normal(size=(2 ** width, 2 ** width))
        got = embed_local(doubled(K), sites, n).toarray()
        full = np.zeros((2 ** n, 2 ** n), dtype=complex)
        rest = [s for s in range(n) if s not in sites]
        for r_loc in range(2 ** width):
            rb = [(r_loc >> (width - 1 - i)) & 1 for i in range(width)]
            for c_loc in range(2 ** width):
                cb = [(c_loc >> (width - 1 - i)) & 1 for i in range(width)]
                for e in range(2 ** len(rest)):
                    eb = [(e >> (len(rest) - 1 - i)) & 1
                          for i in range(len(rest))]
                    br, bc = [0] * n, [0] * n
                    for s, bit in zip(sites, rb):
                        br[s] = bit
                    for s, bit in zip(sites, cb):
                        bc[s] = bit
                    for s, bit in zip(rest, eb):
                        br[s] = bit
                        bc[s] = bit
                    ri = int("".join(map(str, br)), 2)
                    ci = int("".join(map(str, bc)), 2)
                    full[ri, ci] += K[r_loc, c_loc]
        want = np.kron(full, full.conj())[np.ix_(perm, perm)]
        worst_embed = max(worst_embed, float(np.abs(got - want).max()))

    specs = [
        models.fuks_lindblad(models.FuksParams(0.3), 3),
        models.fuks_lindblad(models.FuksParams(0.45), 4),
        models.dephasing_lindblad(models.DephasingParams(0.0), 3),
        models.dephasing_lindblad(models.DephasingParams(0.8), 4),
        models.mv_lindblads(4)[0],
        models.mv_lindblads(4)[1],
        models.ml_lindblad(models.published_ml_weights(), 4),
    ]
    from qcadc.observables import diag_indices
    for spec in specs:
        n = spec.n_sites
        gen = assemble_lindbladian(spec)
        dense = gen.dense()
        if evolve.is_basis_preserving(spec):
            idx = diag_indices(n)
            got = evolve.diagonal_rate_matrix(spec).toarray()
            want = dense[np.ix_(idx, idx)].real
            worst_diag = max(worst_diag, float(np.abs(got - want).max()))
        v = vectorize(random_density(rng, n)).amplitudes
        kry = evolve.krylov_expmv(gen.matrix, v, 1.7)
        ref = expm(dense * 1.7) @ v
        worst_krylov = max(worst_krylov, float(np.abs(kry - ref).max()))

    ok = worst_embed < 1e-13 and worst_diag < 1e-10 and worst_krylov < 1e-8
    criterion(12, ok, "oracle equivalence of embedding/diagonal/Krylov",
              f"embed {worst_embed:.1e}, diag {worst_diag:.1e}, "
              f"krylov {worst_krylov:.1e}")
