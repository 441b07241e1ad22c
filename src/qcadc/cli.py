"""Command-line front end: JSON-configured experiment runs with CSV/JSON
outputs.

Exit codes: 0 success, 1 configuration or user error, 2 non-convergence,
3 numerical failure or a ring the majority-voting rule leaves unclassified
within its sublayer budget.  Identical config + seed produce byte-identical
output files; every output embeds the config hash and engine version.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import DENSE_SUPEROP_CAP, ENGINE_VERSION
from . import classical, evolve, mlopt, models, observables, spectra
from .superop import vectorize

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _require_keys(cfg: dict, allowed: dict, where: str) -> None:
    """allowed: key -> required(bool).  Rejects unknown keys by name."""
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key}")
    for key, required in allowed.items():
        if required and key not in cfg:
            raise ConfigError(f"missing key {where}.{key}")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, float):
                cells.append(f"{x:.12g}")
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_trajectory(path: Path, rows) -> None:
    """trajectory.csv from (t, n/N, s_z, trace, method) rows.  A number
    below 1e-12 in magnitude is written as 0: it is round-off of an exact
    zero (s_z on a half-filled ring), and its digits would change with any
    reordering of a sum."""
    write_csv(path, ["t", "n_over_N", "s_z", "trace", "method"],
              [[0 if isinstance(x, float) and abs(x) < 1e-12 else x
                for x in row] for row in rows])


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinity is a numerical failure, not output."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise FloatingPointError(f"{path.name}: {err}") from err
    _atomic_write(path, text + "\n")


def _whole(value, where: str) -> int:
    """A count from the config; a fractional or non-finite number is a
    ConfigError, not truncated."""
    fractional = isinstance(value, float) and not value.is_integer()
    try:
        if not fractional:
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where} must be a whole number, got {value!r}")


def _number(value, where: str):
    """A JSON number from the config, returned as given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return value


def _stamp(cfg: dict) -> dict:
    return {"config_hash": config_hash(cfg), "engine_version": ENGINE_VERSION}


# ---------------------------------------------------------------------------
# model construction from config


_MODEL_PARAM_KEYS = {
    "fuks": {"p": False, "gamma": False},
    "dephasing": {"omega": False, "gamma": False},
    "mv-spread": {},
    "mv-consensus": {},
    "ml": {"weights": True},
    "fates": {"p": True},
}


def _model(model_cfg: dict) -> tuple[str, dict]:
    """The id and checked params of a model config: every key known, every
    scalar parameter a number, and the ML weights parsed."""
    _require_keys(model_cfg, {"id": True, "params": False}, "model")
    mid = model_cfg["id"]
    params = model_cfg.get("params", {})
    if mid not in _MODEL_PARAM_KEYS:
        raise ConfigError(f"unknown model id {mid!r}")
    _require_keys(params, _MODEL_PARAM_KEYS[mid], "model.params")
    return mid, {key: (_ml_weights(value, "model.params.weights")
                       if key == "weights"
                       else _number(value, f"model.params.{key}"))
                 for key, value in params.items()}


# the one fuks parameter each kind of run reads; the other is accepted and
# named on stderr
_FUKS_READS = {"discrete": "p", "continuous": "gamma"}


def _note_ignored(model_cfg: dict, kind: str) -> None:
    """One stderr line per model parameter a ``kind`` run never reads; the
    commands call it once the config has been accepted."""
    if model_cfg["id"] != "fuks":
        return
    for key in model_cfg.get("params", {}):
        if key != _FUKS_READS[kind]:
            print(f"note: model.params.{key} is ignored: a {kind} fuks run "
                  f"reads only {_FUKS_READS[kind]}", file=sys.stderr)


def _ml_weights(value, where: str) -> models.MLWeights:
    if value == "published":
        return models.published_ml_weights()
    if not isinstance(value, list):
        raise ConfigError(f'{where} must be "published" or a list of 8 '
                          f'numbers, got {value!r}')
    weights = tuple(_number(x, f"{where} entry") for x in value)
    try:
        return models.MLWeights(weights)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def build_spec(model_cfg: dict, n_sites: int):
    """LindbladSpec for continuous model ids; raises ConfigError otherwise."""
    mid, params = _model(model_cfg)
    try:
        if mid == "fuks":
            return models.fuks_lindblad(
                models.FuksParams(params.get("p", 0.3),
                                  params.get("gamma", 1.0)), n_sites)
        if mid == "dephasing":
            return models.dephasing_lindblad(
                models.DephasingParams(params.get("omega", 0.0),
                                       params.get("gamma", 1.0)), n_sites)
        if mid == "mv-spread":
            return models.mv_lindblads(n_sites)[0]
        if mid == "mv-consensus":
            return models.mv_lindblads(n_sites)[1]
        if mid == "ml":
            return models.ml_lindblad(params["weights"], n_sites)
    except ValueError as err:
        raise ConfigError(f"model.params: {err}") from err
    raise ConfigError(f"model id {mid!r} has no continuous generator")


def build_step(model_cfg: dict, n_sites: int):
    """Step SuperOp for discrete model ids; raises ConfigError otherwise."""
    mid, params = _model(model_cfg)
    try:
        if mid == "fuks":
            return models.fuks_step(
                models.FuksParams(params.get("p", 0.3)), n_sites)
        if mid == "mv-spread":
            return models.mv_spread_step(n_sites)
        if mid == "mv-consensus":
            return models.mv_consensus_step(n_sites)
        if mid == "fates":
            return models.fates_step(params["p"], n_sites)
    except ValueError as err:
        raise ConfigError(f"model.params: {err}") from err
    raise ConfigError(f"model id {mid!r} has no discrete step")


def build_initial(cfg: dict, n_sites: int):
    _require_keys(cfg, {"bits": False, "named": False, "file": False},
                  "initial")
    if sum(k in cfg for k in ("bits", "named", "file")) != 1:
        raise ConfigError("initial needs exactly one of bits/named/file")
    if "bits" in cfg:
        try:
            bits = classical.parse_bits(cfg["bits"])
        except ValueError as err:
            raise ConfigError(f"initial.bits: {err}") from err
        if len(bits) != n_sites:
            raise ConfigError(
                f"initial.bits has {len(bits)} sites, n_sites={n_sites}")
        dim = 2 ** n_sites
        rho = np.zeros((dim, dim), dtype=complex)
        idx = int(classical.format_bits(bits), 2)
        rho[idx, idx] = 1.0
        return vectorize(rho)
    if "named" in cfg:
        if cfg["named"] != "ghz":
            raise ConfigError(f"unknown named state {cfg['named']!r}")
        dim = 2 ** n_sites
        psi = np.zeros(dim, dtype=complex)
        psi[0] = psi[-1] = 1 / np.sqrt(2)
        return vectorize(np.outer(psi, psi.conj()))
    try:
        rho = np.asarray(np.load(cfg["file"]), dtype=complex)
    except (OSError, ValueError, TypeError) as err:
        raise ConfigError(f"initial.file {cfg['file']!r}: {err}") from err
    dim = 2 ** n_sites
    if rho.shape != (dim, dim):
        raise ConfigError(f"initial.file has shape {rho.shape}, n_sites="
                          f"{n_sites} needs ({dim}, {dim})")
    if not np.all(np.isfinite(rho)):
        raise ConfigError("initial.file has non-finite entries")
    state = vectorize(rho)
    report = observables.physicality_check(state)
    failed = [name for name, ok in (("trace", report.trace_ok),
                                    ("hermiticity", report.herm_ok),
                                    ("positivity", report.positive_ok))
              if not ok]
    if failed:
        raise ConfigError(
            f"initial.file is not a density matrix: {', '.join(failed)} "
            f"check failed (trace {report.trace.real:.6g}, hermiticity "
            f"residual {report.herm_residual:.3g}, smallest eigenvalue "
            f"{report.min_eigenvalue:.3g})")
    return state


# ---------------------------------------------------------------------------
# subcommands


# numpy's largest array holds 2^63 bytes: 4^29 complex amplitudes, not 4^30
_MAX_DOUBLED_N = 29


def cmd_evolve(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"model": True, "n_sites": True, "initial": True,
                        "evolution": True, "samples": False, "seed": False},
                  "config")
    n = _whole(cfg["n_sites"], "n_sites")
    if not 1 <= n <= _MAX_DOUBLED_N:
        raise ConfigError(f"n_sites={n}: the 4^N doubled space holds 1 to "
                          f"{_MAX_DOUBLED_N} sites")
    state = build_initial(cfg["initial"], n)
    evo = cfg["evolution"]
    _require_keys(evo, {"kind": True, "t": False, "steps": False,
                        "tol": False, "horizon": False}, "evolution")
    samples = _whole(cfg.get("samples", evolve.DEFAULT_SAMPLES), "samples")
    method = args.method
    kind = evo["kind"]
    if kind not in ("continuous", "discrete", "converge"):
        raise ConfigError(f"unknown evolution.kind {kind!r}")
    need = {"continuous": "t", "discrete": "steps"}.get(kind)
    if need is not None and need not in evo:
        raise ConfigError(f"missing key evolution.{need}")
    if kind == "discrete":
        steps = _whole(evo["steps"], "evolution.steps")
    model = (build_step if kind == "discrete" else build_spec)(cfg["model"], n)
    # evolve raises ValueError for what the run cannot take: a negative or
    # non-finite t or horizon, a negative step count, a bad tol, the
    # diagonal method on a spec that is not basis preserving or on a state
    # with coherences
    try:
        if kind == "continuous":
            result = evolve.continuous_evolve(model, state, float(evo["t"]),
                                              method=method, samples=samples)
        elif kind == "discrete":
            result = evolve.discrete_run(model, state, steps)
        else:
            result = evolve.converge_to_fixed_point(
                model, state, tol=float(evo.get("tol", 1e-9)),
                horizon=float(evo.get("horizon", 1000.0)), method=method)
    except ValueError as err:
        raise ConfigError(f"evolution: {err}") from err
    _note_ignored(cfg["model"],
                  "discrete" if kind == "discrete" else "continuous")

    rows = [(r[0], r[1], r[2], r[3], result.method_used)
            for r in result.trajectory]
    write_trajectory(out / "trajectory.csv", rows)
    final = result.final_state
    ab = observables.project_alpha_beta(final)
    summary = {
        **_stamp(cfg),
        "model": cfg["model"]["id"],
        "n_sites": n,
        "method": result.method_used,
        "time_reached": result.time_reached,
        "converged": result.converged,
        "final": {
            "n_over_N": observables.density_n(final) / n,
            "s_z": observables.expval_sz(final),
            "trace": observables.trace_of(final).real,
            "alpha": ab.alpha,
            "beta_abs": abs(ab.beta),
        },
    }
    write_json(out / "summary.json", summary)
    return 0 if (kind != "converge" or result.converged) else 2


_FAMILIES = {"fuks", "dephasing", "ml"}


def cmd_gap_scan(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"models": True, "mode": False, "seed": False},
                  "config")
    mode = cfg.get("mode", "dense")
    if mode not in ("dense", "arnoldi"):
        raise ConfigError(f"unknown mode {mode!r}; choose dense or arnoldi")
    entries = cfg["models"]
    if not entries:
        raise ConfigError("models list is empty")
    # every spec is built before any spectrum, so a size the family refuses
    # is a config error, not a row
    specs = []
    for entry in entries:
        _require_keys(entry, {"id": True, "params": False, "n_values": True,
                              "fit_exclude": False}, "models[]")
        if entry["id"] not in _FAMILIES:
            raise ConfigError(f"model {entry['id']!r} has no gap family")
        n_values = [_whole(x, "models[].n_values entry")
                    for x in entry["n_values"]]
        if not n_values:
            raise ConfigError("models[].n_values is empty")
        for n in n_values:
            if mode == "dense" and 4 ** n > DENSE_SUPEROP_CAP:
                raise ConfigError(f"models[].n_values entry {n}: dense mode "
                                  f"is capped at 4^N = {DENSE_SUPEROP_CAP}")
        model = {"id": entry["id"], "params": entry.get("params", {})}
        specs.append((n_values, {n: build_spec(model, n) for n in n_values}))
    for entry in entries:
        _note_ignored(entry, "continuous")
    all_rows = []
    fits = {}
    per_model_gaps = {}
    failed = []
    for entry, (n_values, spec_of) in zip(entries, specs):
        reports = spectra.gap_scan(spec_of.__getitem__, n_values, mode=mode)
        gaps = {}
        for n, rep, err in reports:
            if rep is None:
                all_rows.append((entry["id"], n, "nan", -1, f"error:{err}"))
                failed.append(f"{entry['id']} N={n}")
            else:
                all_rows.append((entry["id"], n, rep.gap, rep.null_dim,
                                 rep.method))
                gaps[n] = rep.gap
        per_model_gaps[entry["id"]] = gaps
        # the bond-projector family's smallest two ring sizes sit off the
        # power law; they default to excluded from the fit (overridable)
        default_exclude = (4, 5) if entry["id"] == "dephasing" else ()
        exclude = tuple(entry.get("fit_exclude", default_exclude))
        try:
            fit = spectra.loglog_fit(sorted(gaps.items()), exclude=exclude)
            fits[entry["id"]] = {"c": fit.c, "d": fit.d,
                                 "stderr_c": fit.stderr_c,
                                 "stderr_d": fit.stderr_d,
                                 "n_points": fit.n_points}
        except ValueError as err:
            fits[entry["id"]] = {"error": str(err)}
    write_csv(out / "gaps.csv", ["model", "N", "gap", "null_dim", "method"],
              all_rows)
    write_json(out / "fits.json", {**_stamp(cfg), "fits": fits})
    if len(per_model_gaps) == 2:
        (name_a, ga), (name_b, gb) = per_model_gaps.items()
        shared = sorted(set(ga) & set(gb))
        ratio_rows = [(n, gb[n] / ga[n]) for n in shared if ga[n] > 0]
        write_csv(out / "ratios.csv", [f"N", f"{name_b}_over_{name_a}"],
                  ratio_rows)
    if failed:
        print(f"numerical failure: no spectrum for {', '.join(failed)}",
              file=sys.stderr)
        return 3
    return 0


# rings per mv_classify call in exhaustive verification; it bounds the
# memory of a size's pass, whatever 2^N is
_VERIFY_CHUNK = 1 << 16
_VERIFY_MAX_N = 21
# the closed-form sublayer budget holds from N = 6: at N = 3 it is
# (-1, 2), and the ring 010 is still mixed after it
_MV_MIN_N = 6


def _verify_all_rings(n: int) -> tuple[int, int]:
    """Classify every ring of ``n`` sites, site 1 the most significant bit
    of its code, in chunks; returns (correctly labeled, worst sublayers)."""
    shifts = np.arange(n - 1, -1, -1)
    correct = worst = 0
    for first in range(0, 2 ** n, _VERIFY_CHUNK):
        codes = np.arange(first, min(first + _VERIFY_CHUNK, 2 ** n))
        rings = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
        labels, used = classical.mv_classify(rings)
        correct += int((labels == (rings.sum(axis=1) > n / 2)).sum())
        worst = max(worst, int(used.max()))
    return correct, worst


def cmd_mv_verify(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"n_values": True, "seed": False}, "config")
    n_values = [_whole(x, "n_values entry") for x in cfg["n_values"]]
    for n in n_values:
        if n < _MV_MIN_N or n % 3 != 0:
            raise ConfigError(f"n_values entry {n} is not a multiple of 3 "
                              f"from {_MV_MIN_N} on (pad the input first)")
        if n > _VERIFY_MAX_N:
            raise ConfigError(f"exhaustive verification capped at "
                              f"N={_VERIFY_MAX_N}, got {n}")
    rows = []
    all_ok = True
    for n in n_values:
        budget = classical.tau_formula(n)
        correct, worst = _verify_all_rings(n)
        ok = correct == 2 ** n and worst <= budget
        all_ok &= ok
        rows.append((n, 2 ** n, correct, worst, budget, str(ok).lower()))
    write_csv(out / "verify.csv",
              ["N", "n_strings", "correct", "worst_sublayers", "budget", "ok"],
              rows)
    write_json(out / "summary.json", {**_stamp(cfg), "all_correct": all_ok})
    return 0 if all_ok else 3


# the continuous rules act on three sites, and the diagonal path keeps a
# ring in one non-negative int64 code
_MV_CONTINUOUS_MAX_N = 63


def cmd_mv_run(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"scan": False, "n_sites": False, "initial": False,
                        "track": False, "sublayers": False, "t": False,
                        "phase": False, "seed": False, "n_traj": False},
                  "config")
    seed = _whole(cfg.get("seed", 0), "seed")
    if "scan" in cfg:
        scan = cfg["scan"]
        _require_keys(scan, {"n_values": True, "n_traj": False,
                             "exact_cap": False}, "scan")
        n_traj = _whole(scan.get("n_traj", 400), "scan.n_traj")
        cap = _whole(scan.get("exact_cap", evolve.DEFAULT_EXACT_CAP),
                     "scan.exact_cap")
        n_values = [_whole(x, "scan.n_values entry")
                    for x in scan["n_values"]]
        for n in n_values:
            if not 3 <= n <= _MV_CONTINUOUS_MAX_N:
                raise ConfigError(f"scan.n_values entry {n}: the continuous "
                                  f"rules run on 3 to {_MV_CONTINUOUS_MAX_N} "
                                  f"sites")
        seeds = np.random.SeedSequence(seed).spawn(len(n_values))
        results = [evolve.mv_worst_case_times(
                       n, n_traj=n_traj, rng=np.random.default_rng(s),
                       exact_cap=cap)
                   for n, s in zip(n_values, seeds)]
        rows = [(r["n_sites"], r["tau_spread"], r["tau_consensus"],
                 r["tau_total"], r["method_spread"], r["method_consensus"])
                for r in results]
        write_csv(out / "mv_tau.csv",
                  ["N", "tau_spread", "tau_consensus", "tau_total",
                   "method_spread", "method_consensus"], rows)
        ns = np.array([r["n_sites"] for r in results], dtype=float)
        tot = np.array([r["tau_total"] for r in results])
        never = [int(n) for n, t in zip(ns, tot) if np.isnan(t)]
        if len(ns) >= 2 and not never:
            slope, intercept = np.polyfit(ns, tot, 1)
            fit = {"b": float(slope), "q": float(intercept)}
        else:
            fit = {"b": None, "q": None}
        write_json(out / "fit.json", {**_stamp(cfg), **fit,
                                      "n_points": len(ns)})
        if never:
            print(f"error: density never crossed 0.99 for N={never}; "
                  f"no fit", file=sys.stderr)
            return 2
        return 0

    # single run on one input
    for key in ("n_sites", "initial", "track"):
        if key not in cfg:
            raise ConfigError(f"missing key config.{key}")
    n = _whole(cfg["n_sites"], "n_sites")
    _require_keys(cfg["initial"], {"bits": True}, "initial")
    try:
        bits = classical.parse_bits(cfg["initial"]["bits"])
    except ValueError as err:
        raise ConfigError(f"initial.bits: {err}") from err
    if len(bits) != n:
        raise ConfigError(
            f"initial.bits has {len(bits)} sites, n_sites={n}")
    if n < 3:
        raise ConfigError(f"n_sites={n}: the rules need at least 3 sites")
    phase = cfg.get("phase", "consensus")
    if phase not in ("spread", "consensus"):
        raise ConfigError(f"unknown phase {phase!r}; choose spread or "
                          f"consensus")
    if cfg["track"] == "discrete":
        if n % 3 != 0:
            raise ConfigError(f"n_sites={n} is not a multiple of 3; pad the "
                              f"input first")
        if n < _MV_MIN_N:
            raise ConfigError(f"n_sites={n}: the discrete rule needs at "
                              f"least {_MV_MIN_N} sites")
        label, used = classical.mv_classify(bits)
        write_json(out / "summary.json", {
            **_stamp(cfg), "label": label, "sublayers_used": used,
            "budget": classical.tau_formula(n)})
        return 0
    if cfg["track"] != "continuous":
        raise ConfigError(f"unknown track {cfg['track']!r}")
    if n > _MV_CONTINUOUS_MAX_N:
        raise ConfigError(f"n_sites={n}: the continuous rules run on 3 to "
                          f"{_MV_CONTINUOUS_MAX_N} sites")
    spec = (models.mv_lindblads(n)[0] if phase == "spread"
            else models.mv_lindblads(n)[1])
    t_max = float(_number(cfg.get("t", 3.0 * n), "t"))
    if not (np.isfinite(t_max) and t_max >= 0):
        raise ConfigError(f"t must be finite and non-negative, got {t_max}")
    t_grid = np.linspace(0.0, t_max, 400)
    try:
        occ, method = evolve.mean_occupancy(
            spec, bits, t_grid, _whole(cfg.get("n_traj", 400), "n_traj"),
            np.random.default_rng(seed), evolve.DEFAULT_EXACT_CAP)
    except ValueError as err:
        raise ConfigError(f"t: {err}") from err
    dens = occ.sum(axis=1) / n
    rows = [(t_grid[i], dens[i], n / 2 - dens[i] * n, 1.0, method)
            for i in range(len(t_grid))]
    write_trajectory(out / "trajectory.csv", rows)
    tau = evolve.crossing_time(t_grid, dens, 0.99)
    write_json(out / "summary.json", {
        **_stamp(cfg), "method": method, "final_n_over_N": float(dens[-1]),
        "tau_cross_0.99": None if np.isnan(tau) else tau})
    return 0 if dens[-1] > 0.99 or phase == "spread" else 2


def cmd_classify(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"bits": True, "pad": False, "seed": False}, "config")
    bits = cfg["bits"]
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ConfigError(f"bits must be a 0/1 string, got {bits!r}")
    padded = models.mv_pad(bits) if cfg.get("pad", True) else bits
    if len(padded) % 3 != 0:
        raise ConfigError(f"bits length {len(padded)} is not a multiple of 3 "
                          f"and padding is disabled")
    if len(padded) < _MV_MIN_N:
        raise ConfigError(f"padded bits {padded!r} have {len(padded)} sites; "
                          f"the discrete rule needs at least {_MV_MIN_N}")
    label, used = classical.mv_classify(padded)
    write_json(out / "summary.json", {
        **_stamp(cfg), "input_bits": bits, "padded_bits": padded,
        "label": label, "sublayers_used": used,
        "budget": classical.tau_formula(len(padded))})
    return 0


def cmd_ml_cost(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"weights": True, "training_set": False,
                        "seed": False}, "config")
    weights = _ml_weights(cfg["weights"], "weights")
    tset = _training_set_from(cfg.get("training_set"))
    scores = mlopt.per_state_scores(weights, tset)
    write_json(out / "summary.json", {
        **_stamp(cfg),
        "cost": float(sum(s.summand for s in scores)),
        "weights": list(weights.w),
        "per_state": [{
            "bits": "".join(map(str, s.bits)), "label": s.label,
            "f_zero": s.f_zero, "f_one": s.f_one, "summand": s.summand,
            "predicted": s.predicted, "misclassified": s.misclassified,
        } for s in scores],
    })
    return 0


def _training_set_from(raw):
    if raw is None:
        return None
    pairs = []
    for item in raw:
        _require_keys(item, {"bits": True, "label": True}, "training_set[]")
        bits, label = str(item["bits"]), item["label"]
        if set(bits) - {"0", "1"}:
            raise ConfigError(f"training_set[].bits {bits!r} is not a 0/1 "
                              f"string")
        if len(bits) < 3:
            raise ConfigError(f"training_set[].bits {bits!r} has fewer than "
                              f"3 sites; the jumps act on three")
        if label not in (0, 1):
            raise ConfigError(f"training_set[].label must be 0 or 1, "
                              f"got {label!r}")
        pairs.append(mlopt.TrainingPair(tuple(int(c) for c in bits), label))
    return mlopt.TrainingSet(tuple(pairs))


def cmd_ml_opt(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"restarts": False, "seed": False, "start": False,
                        "training_set": False}, "config")
    seed = _whole(cfg.get("seed", 0), "seed")
    start = (models.published_ml_weights()
             if cfg.get("start") == "published" else None)
    res = mlopt.optimize_weights(
        _training_set_from(cfg.get("training_set")),
        restarts=_whole(cfg.get("restarts", 8), "restarts"),
        rng=np.random.default_rng(seed), start=start)
    trunc = mlopt.truncate_weights(res.weights)
    write_json(out / "summary.json", {
        **_stamp(cfg), "cost": res.cost,
        "weights": list(res.weights.w),
        "weights_3dp": list(trunc.w),
        "restarts_run": res.restarts_run,
        "evaluations": res.evaluations,
    })
    return 0


def cmd_fates_demo(cfg: dict, out: Path, args) -> int:
    _require_keys(cfg, {"bits": True, "p": False, "steps": False,
                        "n_seeds": False, "seed": False}, "config")
    bits = cfg["bits"]
    p = float(_number(cfg.get("p", 0.5), "p"))
    steps = _whole(cfg.get("steps", 1000), "steps")
    n_seeds = _whole(cfg.get("n_seeds", 20), "n_seeds")
    base = _whole(cfg.get("seed", 0), "seed")
    seeds = np.random.SeedSequence(base).spawn(n_seeds)
    rows = []
    reached = 0
    n = len(bits)
    for i, s in enumerate(seeds):
        try:
            final = classical.fates_classical_trajectory(
                p, bits, steps, np.random.default_rng(s))
        except ValueError as err:
            raise ConfigError(str(err)) from err
        dens = classical.popcount(final) / n
        reached += int(dens > 0.99)
        rows.append((i, classical.format_bits(final), dens))
    write_csv(out / "finals.csv", ["seed_index", "final_bits", "n_over_N"],
              rows)
    write_json(out / "summary.json", {
        **_stamp(cfg), "p": p, "steps": steps, "n_seeds": n_seeds,
        "runs_reaching_all_ones": reached,
        "max_final_density": max(r[2] for r in rows),
    })
    return 0


def cmd_selftest(cfg: dict, out: Path, args) -> int:
    """Fast invariant sweep; prints one line per check."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as err:
            checks.append((name, False, f"{type(err).__name__}: {err}"))

    rng = np.random.default_rng(_whole(cfg.get("seed", 0), "seed"))

    def random_density(n):
        dim = 2 ** n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho)

    def c_round_trip():
        from .superop import devectorize
        for n in (1, 2, 3, 4):
            rho = random_density(n)
            assert np.array_equal(devectorize(vectorize(rho)), rho)

    def c_channel_traces():
        from .observables import trace_of
        from .superop import VecState
        for step in (models.fuks_step(models.FuksParams(0.3), 3),
                     models.mv_spread_step(3), models.mv_consensus_step(3),
                     models.fates_step(0.4, 3)):
            for _ in range(10):
                v = vectorize(random_density(3))
                out = VecState(3, step.matrix @ v.amplitudes)
                assert abs(trace_of(out) - 1) < 1e-10

    def c_generator_trace_annihilation():
        from .superop import assemble_lindbladian, devectorize
        for spec in (models.fuks_lindblad(models.FuksParams(0.3), 3),
                     models.dephasing_lindblad(models.DephasingParams(), 3)):
            gen = assemble_lindbladian(spec)
            for _ in range(10):
                out = devectorize(gen @ vectorize(random_density(3)))
                assert abs(np.trace(out)) < 1e-10

    def c_kernel_dims():
        assert spectra.spectrum(
            models.fuks_lindblad(models.FuksParams(0.3), 3)).null_dim == 4
        assert spectra.spectrum(
            models.dephasing_lindblad(models.DephasingParams(), 3)).null_dim == 4

    def c_mv_budget():
        correct, worst = _verify_all_rings(6)
        assert correct == 2 ** 6 and worst <= classical.tau_formula(6)

    def c_diagonal_oracle():
        from .observables import diag_indices
        from .superop import assemble_lindbladian
        spec = models.fuks_lindblad(models.FuksParams(0.3), 3)
        idx = diag_indices(3)
        got = evolve.diagonal_rate_matrix(spec).toarray()
        want = assemble_lindbladian(spec).dense()[np.ix_(idx, idx)].real
        assert np.abs(got - want).max() < 1e-12

    check("vectorization round trip", c_round_trip)
    check("discrete steps preserve trace", c_channel_traces)
    check("generators annihilate trace", c_generator_trace_annihilation)
    check("kernel dimensions", c_kernel_dims)
    check("majority voting budget (N=6 exhaustive)", c_mv_budget)
    check("diagonal restriction matches generator", c_diagonal_oracle)

    for name, ok, msg in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + msg if msg else ''}")
    all_ok = all(ok for _, ok, _ in checks)
    write_json(out / "selftest.json", {
        **_stamp(cfg),
        "checks": [{"name": n, "ok": ok, "error": msg}
                   for n, ok, msg in checks],
        "all_ok": all_ok,
    })
    return 0 if all_ok else 3


COMMANDS = {
    "evolve": cmd_evolve,
    "gap-scan": cmd_gap_scan,
    "mv-verify": cmd_mv_verify,
    "mv-run": cmd_mv_run,
    "classify": cmd_classify,
    "ml-cost": cmd_ml_cost,
    "ml-opt": cmd_ml_opt,
    "fates-demo": cmd_fates_demo,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcadc",
        description="Non-unitary quantum cellular automata on rings: "
                    "density classification and majority voting.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON configuration file")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--method", default="auto",
                        choices=["auto", "dense", "krylov", "diagonal"])
    args = parser.parse_args(argv)

    cfg = {}
    if args.config is not None:
        try:
            cfg = json.loads(args.config.read_text())
        except FileNotFoundError:
            print(f"error: config file not found: {args.config}",
                  file=sys.stderr)
            return 1
        except json.JSONDecodeError as err:
            print(f"error: config is not valid JSON: {err}", file=sys.stderr)
            return 1
    if args.seed is not None:
        cfg.setdefault("seed", args.seed)

    try:
        return COMMANDS[args.command](cfg, args.out, args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except classical.ClassificationFailureError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (evolve.KrylovError, FloatingPointError, MemoryError,
            spectra.SpectrumError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
