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
from .superop import (VecState, assemble_lindbladian, devectorize,
                      reachable_generator, vectorize)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config tables: each run form reads its config through one table, from
# each key it reads to a reader, a (parse(value, where), default) pair


_NEEDED = object()          # the default of a key the config must give


def _read(cfg, table: dict, where: str) -> dict:
    """Every key of ``table``, parsed from ``cfg`` or defaulted.  A key the
    table does not name, a missing needed key, or a ``cfg`` that is not a
    JSON object is a ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got {cfg!r}")
    for key in cfg:
        if key not in table:
            raise ConfigError(f"unknown key {where}.{key}")
    for key, (_, default) in table.items():
        if default is _NEEDED and key not in cfg:
            raise ConfigError(f"missing key {where}.{key}")
    prefix = "" if where == "config" else f"{where}."
    return {key: parse(cfg[key], prefix + key) if key in cfg else default
            for key, (parse, default) in table.items()}


def _form(cfg, key: str, reader, where: str = "config"):
    """``cfg[key]``, parsed: the value that picks a command's run form."""
    if not isinstance(cfg, dict) or key not in cfg:
        raise ConfigError(f"missing key {where}.{key}")
    return reader[0](cfg[key], f"{where}.{key}".removeprefix("config."))


def _real(default=_NEEDED, lo=None, hi=None, why="", whole=False,
          multiple=1):
    """A JSON number (``true`` is not 1), as given, or with ``whole`` a
    count with no fractional part, as an int; from ``lo`` to ``hi`` and a
    multiple of ``multiple``, as ``why`` says."""
    def parse(value, where):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or whole and isinstance(value, float)
                and not value.is_integer()):
            raise ConfigError(f"{where} must be a {'whole ' * whole}number, "
                              f"got {value!r}")
        if (lo is not None and not lo <= value or hi is not None
                and not value <= hi or whole and value % multiple):
            raise ConfigError(f"{where} {why}, got {value!r}")
        return int(value) if whole else value
    return parse, default


def _count(default=_NEEDED, **bounds):
    """A count: a whole JSON number, as an int."""
    return _real(default, whole=True, **bounds)


def _one_of(*choices, default=_NEEDED):
    """One of ``choices``, of the same JSON type (``1`` is not ``true``)."""
    def parse(value, where):
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ConfigError(f"unknown {where} {value!r}; {where} must be "
                              + " or ".join(map(json.dumps, choices)))
        return value
    return parse, default


def _bitstring(min_sites=0):
    """A string of 0s and 1s of at least ``min_sites`` sites."""
    def parse(value, where):
        if not isinstance(value, str) or set(value) - {"0", "1"}:
            raise ConfigError(f"{where} {value!r} is not a 0/1 string")
        if len(value) < min_sites:
            raise ConfigError(f"{where} {value!r} has fewer than {min_sites} "
                              f"sites")
        return value
    return parse, _NEEDED


def _ring(default=_NEEDED):
    """Ring bits, a 0/1 string or a list of 0/1 numbers, as a uint8 array."""
    def parse(value, where):
        try:
            return classical.parse_bits(value)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
    return parse, default


def _list(item, default=_NEEDED, nonempty=False, entry=" entry"):
    """A JSON list, each value parsed by ``item`` as ``<where><entry>``."""
    def parse(value, where):
        if not isinstance(value, list) or nonempty and not value:
            raise ConfigError(f"{where} must be a "
                              f"{'non-empty ' * nonempty}list, got {value!r}")
        return [item[0](x, where + entry) for x in value]
    return parse, default


def _table(table: dict):
    """A nested JSON object, read by its own table."""
    return (lambda value, where: _read(value, table, where)), _NEEDED


def _given(default=_NEEDED):
    """A value passed on as given: an object whose table needs the ring size
    or the model id first, or a path that ``np.load`` checks."""
    return (lambda value, where: value), default


_SEED = _count(0, lo=0, why="must be non-negative")


# ---------------------------------------------------------------------------
# outputs


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by a rename; an ``--out`` that cannot
    hold it (a file, no permission, a full disk) is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


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


def _stamp(cfg: dict) -> dict:
    return {"config_hash": config_hash(cfg), "engine_version": ENGINE_VERSION}


# ---------------------------------------------------------------------------
# model construction from config


def _ml_weights(value, where: str) -> models.MLWeights:
    if value == "published":
        return models.published_ml_weights()
    if not isinstance(value, list):
        raise ConfigError(f'{where} must be "published" or a list of 8 '
                          f'numbers, got {value!r}')
    weights = tuple(_list(_real())[0](value, where))
    try:
        return models.MLWeights(weights)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


_MODEL_PARAMS = {
    "fuks": {"p": _real(0.3), "gamma": _real(1.0)},
    "dephasing": {"omega": _real(0.0), "gamma": _real(1.0)},
    "mv-spread": {},
    "mv-consensus": {},
    "ml": {"weights": (_ml_weights, _NEEDED)},
    "fates": {"p": _real()},
}


def _model(model_cfg: dict) -> tuple[str, dict]:
    """The id and parsed params of a model config."""
    model = _read(model_cfg, {"id": _one_of(*_MODEL_PARAMS),
                              "params": _given({})}, "model")
    return model["id"], _read(model["params"], _MODEL_PARAMS[model["id"]],
                              "model.params")


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


def build_spec(model_cfg: dict, n_sites: int):
    """LindbladSpec for continuous model ids; raises ConfigError otherwise."""
    mid, params = _model(model_cfg)
    try:
        if mid == "fuks":
            return models.fuks_lindblad(
                models.FuksParams(gamma=params["gamma"]), n_sites)
        if mid == "dephasing":
            return models.dephasing_lindblad(models.DephasingParams(
                params["omega"], params["gamma"]), n_sites)
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
    """DiscreteRule for discrete model ids; raises ConfigError otherwise."""
    mid, params = _model(model_cfg)
    try:
        if mid == "fuks":
            return models.fuks_rule(models.FuksParams(params["p"]), n_sites)
        if mid == "mv-spread":
            return models.mv_rule("spread", n_sites)
        if mid == "mv-consensus":
            return models.mv_rule("consensus", n_sites)
        if mid == "fates":
            return models.fates_rule(params["p"], n_sites)
    except ValueError as err:
        raise ConfigError(f"model.params: {err}") from err
    raise ConfigError(f"model id {mid!r} has no discrete step")


def build_initial(cfg: dict, n_sites: int):
    """The initial state of an ``evolve`` run.  ``bits`` and ``named: ghz``
    are built as block states on their 1 and 4 doubled indices; only an
    ``initial.file``, a 2^N x 2^N matrix, is built on all 4^N."""
    initial = _read(cfg, {"bits": _ring(None), "file": _given(None),
                          "named": _one_of("ghz", default=None)}, "initial")
    if sum(value is not None for value in initial.values()) != 1:
        raise ConfigError("initial needs exactly one of bits/named/file")
    bits, path = initial["bits"], initial["file"]
    if bits is not None:
        if len(bits) != n_sites:
            raise ConfigError(
                f"initial.bits has {len(bits)} sites, n_sites={n_sites}")
        # |s><s|: digit 3 at each one-site
        code = sum(3 * 4 ** (n_sites - 1 - int(j))
                   for j in np.flatnonzero(bits))
        return VecState(n_sites, np.ones(1, dtype=complex),
                        np.array([code], dtype=np.int64))
    if path is None:                                # named: ghz
        # (|0..0> + |1..1>)/sqrt 2: the outer product on the all-0 and
        # all-1 strings, whose doubled indices have every digit 0, 1, 2
        # or 3 (|0..0><0..0|, |0..0><1..1|, |1..1><0..0|, |1..1><1..1|)
        psi = np.full(2, 1 / np.sqrt(2), dtype=complex)
        codes = np.arange(4, dtype=np.int64) * ((4 ** n_sites - 1) // 3)
        return VecState(n_sites, np.outer(psi, psi.conj()).reshape(-1), codes)
    if n_sites > _MAX_FILE_N:
        raise ConfigError(
            f"initial.file holds all 4^N amplitudes of a state, which fit "
            f"in memory for 1 to {_MAX_FILE_N} sites; n_sites={n_sites}")
    dim = 2 ** n_sites
    try:
        rho = np.asarray(np.load(path), dtype=complex)
    except (OSError, ValueError, TypeError) as err:
        raise ConfigError(f"initial.file {path!r}: {err}") from err
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


# a run keeps its state on the doubled indices it reaches (at most
# evolve._MAX_REACHED) and reads each sample through the 2^N diagonal,
# 16 MB at N = 20; an initial.file state holds all 4^N amplitudes, 4 GiB
# at N = 14
_MAX_DOUBLED_N = 20
_MAX_FILE_N = 14

_KIND = _one_of("continuous", "discrete", "converge")
_EVOLVE_RUN = {"model": _given(), "initial": _given(), "seed": _SEED,
               "n_sites": _count(lo=1, hi=_MAX_DOUBLED_N, why=(
                   f"must lie in 1 to {_MAX_DOUBLED_N}: each sample is read "
                   f"through the 2^N diagonal of the state"))}
_EVOLVE = {
    "continuous": {**_EVOLVE_RUN, "samples": _count(evolve.DEFAULT_SAMPLES),
                   "evolution": _table({"kind": _KIND, "t": _real()})},
    "discrete": {**_EVOLVE_RUN,
                 "evolution": _table({"kind": _KIND, "steps": _count()})},
    "converge": {**_EVOLVE_RUN, "evolution": _table({
        "kind": _KIND, "tol": _real(1e-9), "horizon": _real(1000.0)})},
}


def cmd_evolve(cfg: dict, out: Path) -> int:
    kind = _form(cfg.get("evolution"), "kind", _KIND, "evolution")
    run = _read(cfg, _EVOLVE[kind], "config")
    n, evo = run["n_sites"], run["evolution"]
    state = build_initial(run["initial"], n)
    model = (build_step if kind == "discrete" else build_spec)(run["model"], n)
    # evolve raises ValueError for what the run cannot take: a negative or
    # non-finite t or horizon, a negative step count, no samples, a bad tol,
    # a state that reaches more doubled indices than a run holds, a
    # diagonal flow with too many jumps to stream
    try:
        if kind == "continuous":
            result = evolve.continuous_evolve(
                model, state, float(evo["t"]), samples=run["samples"])
        elif kind == "discrete":
            result = evolve.discrete_run(model, state, evo["steps"])
        else:
            result = evolve.converge_to_fixed_point(
                model, state, tol=float(evo["tol"]),
                horizon=float(evo["horizon"]))
    except ValueError as err:
        raise ConfigError(f"evolution: {err}") from err
    _note_ignored(run["model"],
                  "discrete" if kind == "discrete" else "continuous")

    write_trajectory(out / "trajectory.csv", [
        (*r[:4], result.method_used) for r in result.trajectory])
    final = result.final_state
    ab = observables.project_alpha_beta(final)
    write_json(out / "summary.json", {
        **_stamp(cfg), "model": run["model"]["id"], "n_sites": n,
        "method": result.method_used, "time_reached": result.time_reached,
        "converged": result.converged,
        "final": {"n_over_N": observables.density_n(final) / n,
                  "s_z": observables.expval_sz(final),
                  "trace": observables.trace_of(final).real,
                  "alpha": ab.alpha, "beta_abs": abs(ab.beta)}})
    return 0 if (kind != "converge" or result.converged) else 2


def cmd_gap_scan(cfg: dict, out: Path) -> int:
    run = _read(cfg, {
        "models": _list(_table({
            "id": _one_of("fuks", "dephasing", "ml"), "params": _given({}),
            "n_values": _list(_count(), nonempty=True),
            "fit_exclude": _list(_count(), None)}), nonempty=True, entry="[]"),
        "mode": _one_of("dense", "arnoldi", default="dense"),
        "seed": _SEED}, "config")
    mode, entries = run["mode"], run["models"]
    # every spec is built before any spectrum, so a size the family refuses
    # is a config error, not a row
    specs, seen = [], set()
    for entry in entries:
        # gaps.csv rows and fits.json keys are named by id alone
        if entry["id"] in seen:
            raise ConfigError(f"models[].id {entry['id']!r} appears twice; "
                              f"its rows and fits could not be told apart")
        seen.add(entry["id"])
        for n in entry["n_values"]:
            if mode == "dense" and 4 ** n > DENSE_SUPEROP_CAP:
                raise ConfigError(f"models[].n_values entry {n}: dense mode "
                                  f"is capped at 4^N = {DENSE_SUPEROP_CAP}")
        model = {"id": entry["id"], "params": entry["params"]}
        specs.append({n: build_spec(model, n) for n in entry["n_values"]})
    for entry in entries:
        _note_ignored(entry, "continuous")
    all_rows, failed, fits, per_model_gaps = [], [], {}, {}
    for entry, spec_of in zip(entries, specs):
        reports = spectra.gap_scan(spec_of.__getitem__, entry["n_values"],
                                   mode=mode)
        gaps = {}
        for n, rep, err in reports:
            if rep is None:
                all_rows.append((entry["id"], n, "nan", -1, f"error:{err}"))
                failed.append(f"{entry['id']} N={n}")
            else:
                all_rows.append((entry["id"], n, rep.gap, rep.null_dim,
                                 rep.method))
                gaps[n] = rep.gap
                for warning in rep.warnings:
                    print(f"note: {entry['id']} N={n}: {warning}",
                          file=sys.stderr)
        per_model_gaps[entry["id"]] = gaps
        # the bond-projector family's smallest two ring sizes sit off the
        # power law; they default to excluded from the fit (overridable)
        exclude = entry["fit_exclude"]
        if exclude is None:
            exclude = (4, 5) if entry["id"] == "dephasing" else ()
        try:
            fit = spectra.loglog_fit(sorted(gaps.items()), exclude)
            fits[entry["id"]] = {
                "c": fit.c, "d": fit.d, "stderr_c": fit.stderr_c,
                "stderr_d": fit.stderr_d, "n_points": fit.n_points}
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


def cmd_mv_verify(cfg: dict, out: Path) -> int:
    run = _read(cfg, {"seed": _SEED, "n_values": _list(_count(
        lo=_MV_MIN_N, hi=_VERIFY_MAX_N, multiple=3,
        why=f"needs a multiple of 3 from {_MV_MIN_N} on (pad the input "
            f"first), capped at N={_VERIFY_MAX_N}"), nonempty=True)},
        "config")
    rows, all_ok = [], True
    for n in run["n_values"]:
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

_TRACK = _one_of("discrete", "continuous")
_N_TRAJ = _count(400, lo=1, why="must be at least 1")
_MV_CONTINUOUS_N = _count(lo=3, hi=_MV_CONTINUOUS_MAX_N, why=(
    f"needs at least 3 sites: the continuous rules run on 3 to "
    f"{_MV_CONTINUOUS_MAX_N} sites"))
_MV_BITS = _table({"bits": _ring()})
# in a single run, initial comes first: its bits are checked before the
# ring size they must match
_MV_RUN = {
    "scan": {"seed": _SEED, "scan": _table({
        "n_values": _list(_MV_CONTINUOUS_N, nonempty=True),
        "n_traj": _N_TRAJ, "exact_cap": _count(evolve.DEFAULT_EXACT_CAP)})},
    "discrete": {"initial": _MV_BITS, "track": _TRACK, "seed": _SEED,
                 "n_sites": _count(lo=_MV_MIN_N, multiple=3, why=(
                     f"needs at least {_MV_MIN_N} sites; pad a ring that is "
                     f"not a multiple of 3"))},
    "continuous": {"initial": _MV_BITS, "track": _TRACK, "seed": _SEED,
                   "n_sites": _MV_CONTINUOUS_N, "n_traj": _N_TRAJ,
                   "phase": _one_of("spread", "consensus",
                                    default="consensus"),
                   "t": _real(None, lo=0, hi=np.finfo(float).max,
                                why="must be finite and non-negative")},
}


def _note_sampled(n: int, phase: str, n_traj: int, cap: int) -> None:
    """The stderr line of a continuous mv run that fell back to sampling."""
    print(f"note: N={n} {phase} sampled with {n_traj} Gillespie "
          f"trajectories: reachable set exceeds exact_cap {cap}",
          file=sys.stderr)


def cmd_mv_run(cfg: dict, out: Path) -> int:
    form = "scan" if "scan" in cfg else _form(cfg, "track", _TRACK)
    run = _read(cfg, _MV_RUN[form], "config")
    if form == "scan":
        n_values, n_traj, cap = (run["scan"][key] for key in
                                 ("n_values", "n_traj", "exact_cap"))
        seeds = np.random.SeedSequence(run["seed"]).spawn(len(n_values))
        results = [evolve.mv_worst_case_times(
                       n, n_traj=n_traj, rng=np.random.default_rng(s),
                       exact_cap=cap)
                   for n, s in zip(n_values, seeds)]
        for r in results:
            for phase in ("spread", "consensus"):
                if r[f"method_{phase}"] == "gillespie":
                    _note_sampled(r["n_sites"], phase, n_traj, cap)
        columns = ("n_sites", "tau_spread", "tau_consensus", "tau_total",
                   "method_spread", "method_consensus")
        write_csv(out / "mv_tau.csv", ["N", *columns[1:]],
                  [tuple(r[c] for c in columns) for r in results])
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
    n, bits = run["n_sites"], run["initial"]["bits"]
    if len(bits) != n:
        raise ConfigError(f"initial.bits has {len(bits)} sites, n_sites={n}")
    if form == "discrete":
        # the ones after each sublayer of the classifying run itself
        ones = [int(bits.sum())]
        label, used = classical._mv_classify(
            bits, lambda live: ones.append(int(live.sum())))
        write_trajectory(out / "trajectory.csv", [
            (k, m / n, n / 2 - m, 1.0, "discrete")
            for k, m in enumerate(ones)])
        write_json(out / "summary.json", {
            **_stamp(cfg), "label": label, "sublayers_used": used,
            "budget": classical.tau_formula(n)})
        return 0
    phase, n_traj = run["phase"], run["n_traj"]
    spec = models.mv_lindblads(n)[0 if phase == "spread" else 1]
    t_max = float(3.0 * n if run["t"] is None else run["t"])
    t_grid = np.linspace(0.0, t_max, 400)
    try:
        occ, method = evolve.mean_occupancy(
            spec, bits, t_grid, n_traj, np.random.default_rng(run["seed"]),
            evolve.DEFAULT_EXACT_CAP)
    except ValueError as err:
        raise ConfigError(f"t: {err}") from err
    if method == "gillespie":
        _note_sampled(n, phase, n_traj, evolve.DEFAULT_EXACT_CAP)
    dens = occ.sum(axis=1) / n
    write_trajectory(out / "trajectory.csv", [
        (t_grid[i], dens[i], n / 2 - dens[i] * n, 1.0, method)
        for i in range(len(t_grid))])
    tau = evolve.crossing_time(t_grid, dens, 0.99)
    # the 12 digits of trajectory.csv: the order of the sums behind the
    # exact curves is not part of the output
    write_json(out / "summary.json", {
        **_stamp(cfg), "method": method,
        "final_n_over_N": float(f"{dens[-1]:.12g}"),
        "tau_cross_0.99": None if np.isnan(tau) else tau})
    return 0 if dens[-1] > 0.99 or phase == "spread" else 2


def cmd_classify(cfg: dict, out: Path) -> int:
    run = _read(cfg, {"bits": _bitstring(), "seed": _SEED,
                      "pad": _one_of(True, False, default=True)}, "config")
    bits = run["bits"]
    padded = models.mv_pad(bits) if run["pad"] else bits
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


def _training_set(value, where: str) -> mlopt.TrainingSet:
    """Labelled rings of at least 3 sites, as the ML jumps act on three."""
    pairs = _list(_table({"bits": _bitstring(min_sites=3), "label": _count(
        lo=0, hi=1, why="must be 0 or 1")}), nonempty=True, entry="[]")
    return mlopt.TrainingSet(tuple(
        mlopt.TrainingPair(tuple(map(int, pair["bits"])), pair["label"])
        for pair in pairs[0](value, where)))


def cmd_ml_cost(cfg: dict, out: Path) -> int:
    run = _read(cfg, {"weights": (_ml_weights, _NEEDED), "seed": _SEED,
                      "training_set": (_training_set, None)}, "config")
    scores = mlopt.per_state_scores(run["weights"], run["training_set"])
    write_json(out / "summary.json", {
        **_stamp(cfg), "cost": float(sum(s.summand for s in scores)),
        "weights": list(run["weights"].w), "per_state": [{
            "bits": "".join(map(str, s.bits)), "label": s.label,
            "f_zero": s.f_zero, "f_one": s.f_one, "summand": s.summand,
            "predicted": s.predicted, "misclassified": s.misclassified,
        } for s in scores]})
    return 0


def cmd_ml_opt(cfg: dict, out: Path) -> int:
    run = _read(cfg, {"restarts": _count(8), "seed": _SEED,
                      "start": _one_of("published", default=None),
                      "training_set": (_training_set, None)}, "config")
    start = models.published_ml_weights() if run["start"] else None
    # optimize_weights raises ValueError for fewer than one restart
    try:
        res = mlopt.optimize_weights(
            run["training_set"], restarts=run["restarts"],
            rng=np.random.default_rng(run["seed"]), start=start)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    trunc = mlopt.truncate_weights(res.weights)
    write_json(out / "summary.json", {
        **_stamp(cfg), "cost": res.cost, "weights": list(res.weights.w),
        "weights_3dp": list(trunc.w), "restarts_run": res.restarts_run,
        "evaluations": res.evaluations})
    return 0


def cmd_fates_demo(cfg: dict, out: Path) -> int:
    run = _read(cfg, {"bits": _ring(), "p": _real(0.5), "seed": _SEED,
                      "steps": _count(1000, lo=0, why="must be non-negative"),
                      "n_seeds": _count(20, lo=1, why="must be at least 1")},
                "config")
    bits, steps, n_seeds = run["bits"], run["steps"], run["n_seeds"]
    p = float(run["p"])
    seeds = np.random.SeedSequence(run["seed"]).spawn(n_seeds)
    rows, reached, n = [], 0, len(bits)
    for i, s in enumerate(seeds):
        # the trajectory raises ValueError for a p outside [0, 1] and a
        # ring under 3 sites
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
        "max_final_density": max(r[2] for r in rows)})
    return 0


def cmd_selftest(cfg: dict, out: Path) -> int:
    """Fast invariant sweep; prints one line per check."""
    rng = np.random.default_rng(_read(cfg, {"seed": _SEED}, "config")["seed"])
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as err:
            checks.append((name, False, f"{type(err).__name__}: {err}"))

    def random_density(n):
        dim = 2 ** n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho)

    def c_round_trip():
        for n in (1, 2, 3, 4):
            rho = random_density(n)
            assert np.array_equal(devectorize(vectorize(rho)), rho)

    def c_channel_traces():
        for step in (models.fuks_step(models.FuksParams(0.3), 3),
                     models.mv_spread_step(3), models.mv_consensus_step(3),
                     models.fates_step(0.4, 3)):
            for _ in range(10):
                v = vectorize(random_density(3))
                out = VecState(3, step.matrix @ v.amplitudes)
                assert abs(observables.trace_of(out) - 1) < 1e-10

    def c_generator_trace_annihilation():
        for spec in (models.fuks_lindblad(models.FuksParams(0.3), 3),
                     models.dephasing_lindblad(models.DephasingParams(), 3)):
            gen = assemble_lindbladian(spec)
            for _ in range(10):
                out = devectorize(gen @ vectorize(random_density(3)))
                assert abs(np.trace(out)) < 1e-10

    def c_kernel_dims():
        assert spectra.spectrum(
            models.fuks_lindblad(models.FuksParams(0.3), 3)).null_dim == 4
        assert spectra.spectrum(models.dephasing_lindblad(
            models.DephasingParams(), 3)).null_dim == 4

    def c_mv_budget():
        correct, worst = _verify_all_rings(6)
        assert correct == 2 ** 6 and worst <= classical.tau_formula(6)

    def c_diagonal_oracle():
        spec = models.fuks_lindblad(models.FuksParams(0.3), 3)
        idx = observables.diag_indices(3)
        got = evolve.diagonal_rate_matrix(spec).toarray()
        want = assemble_lindbladian(spec).dense()[np.ix_(idx, idx)].real
        assert np.abs(got - want).max() < 1e-12
        # continuous runs take the rate matrix from the block a basis state
        # reaches: real, on diagonal indices, with the same moves
        basis_001 = idx[1:2]
        state = VecState(3, np.ones(1, dtype=complex), basis_001)
        codes, sub = reachable_generator(spec, basis_001)
        basis = np.searchsorted(idx, codes)
        assert len(codes) > 1 and np.array_equal(idx[basis], codes)
        block = sub.toarray()
        assert not block.imag.any()
        off = ~np.eye(len(codes), dtype=bool)
        assert np.abs(block.real - got[np.ix_(basis, basis)])[off].max() < 1e-12
        assert evolve.continuous_evolve(spec, state,
                                        0.0).method_used == "diagonal"

    def c_block_step():
        # discrete runs step the codes a basis state reaches: the 4^N step
        # sliced to them, bit for bit
        rule = models.fuks_rule(models.FuksParams(0.3), 3)
        codes, block = rule.reachable(observables.diag_indices(3)[1:2])
        assert codes is not None and len(codes) < 64
        want = models.fuks_step(models.FuksParams(0.3), 3).matrix
        want = want[codes][:, codes]
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, part), getattr(want, part))

    def c_sector_spectrum():
        # the momentum-sector, graded-block spectrum against the one dense
        # eigvals of the whole generator, both ordered by rounded value
        def ordered(ev):
            return ev[np.lexsort((ev.imag.round(8), ev.real.round(8)))]

        for spec in (models.fuks_lindblad(models.FuksParams(0.3), 4),
                     models.dephasing_lindblad(models.DephasingParams(1.0),
                                               3)):
            got = ordered(spectra.spectrum(spec).eigenvalues)
            want = ordered(np.linalg.eigvals(
                assemble_lindbladian(spec).dense()))
            assert np.abs(got - want).max() < 1e-10

    check("vectorization round trip", c_round_trip)
    check("discrete steps preserve trace", c_channel_traces)
    check("generators annihilate trace", c_generator_trace_annihilation)
    check("kernel dimensions", c_kernel_dims)
    check("majority voting budget (N=6 exhaustive)", c_mv_budget)
    check("diagonal restriction matches generator", c_diagonal_oracle)
    check("block step matches the 4^N step", c_block_step)
    check("sector spectrum matches the 4^N spectrum", c_sector_spectrum)

    for name, ok, msg in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + msg if msg else ''}")
    all_ok = all(ok for _, ok, _ in checks)
    write_json(out / "selftest.json", {
        **_stamp(cfg), "all_ok": all_ok, "checks": [
            {"name": n, "ok": ok, "error": msg} for n, ok, msg in checks]})
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


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError (exit 1), not argparse's exit 2,
    which this CLI gives to non-convergence."""

    def error(self, message):
        raise ConfigError(message)


def _load_config(path: Path | None) -> dict:
    """The parsed ``--config`` file, or ``{}`` without one; a file that
    cannot be read, or that is not UTF-8 JSON, is a ConfigError."""
    if path is None:
        return {}
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def main(argv=None) -> int:
    parser = _Parser(
        prog="qcadc",
        description="Non-unitary quantum cellular automata on rings: "
                    "density classification and majority voting.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON configuration file")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, got {cfg!r}")
        if args.seed is not None:
            cfg.setdefault("seed", args.seed)
        return COMMANDS[args.command](cfg, args.out)
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
