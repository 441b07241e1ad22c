"""The benchmark's workloads: the qcadc commands each one runs, built from
the workload seed, and the output oracles that decide whether a command
succeeded.

Every workload runs real CLI commands, each in a fresh interpreter, one at a
time.  Sizes are trimmed from the paper-scale runs so that one pass over a
workload's commands fits several times into a measured run; every layer
keeps roughly the share of time it has at full size.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``qcadc <subcommand> --config <cfg> --seed <s>``."""

    name: str                 # label used in results, e.g. "mv-verify"
    subcommand: str
    config: dict
    checks: tuple = field(default=(), compare=False)
    # How many times an untraced pass runs this command.  A command much
    # shorter than the other in its workload repeats, so that its own time
    # (first_cmd_s or last_cmd_s) rests on more samples; traced passes run
    # every command once, so the per-layer counts are those of one pass.
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# inputs


def _rotate(bits: str, seed: int) -> str:
    """Ring rotation of a bitstring; the rings are periodic, so every
    rotation costs the same work and has the same conserved density."""
    k = seed % len(bits)
    return bits[k:] + bits[:k]


def majority_vote(seed: int, tiny: bool = False) -> Workload:
    # exact_cap 5000 makes the N=21 consensus subspace (4574 states) run on
    # expm_multiply and the N=24 one (9179 states) hit the cap and fall back
    # to Gillespie sampling, as N=30 does with the library default cap.
    scan = {"n_values": list(range(6, 25, 3)), "n_traj": 20 if tiny else 300,
            "exact_cap": 5000}
    return Workload("majority-vote", (
        Command("mv-verify", "mv-verify",
                {"n_values": [6] if tiny else [6, 9]},
                (_check_mv_verify,), repeat=6),
        Command("mv-run", "mv-run", {"scan": scan},
                (_check_mv_run,)),
    ))


def gap_scan(seed: int, tiny: bool = False) -> Workload:
    n_values = [4, 5] if tiny else [4, 5, 6]
    cfg = {"models": [{"id": "fuks", "n_values": n_values},
                      {"id": "dephasing", "n_values": n_values}],
           "mode": "dense"}
    return Workload("gap-scan", (
        Command("gap-scan", "gap-scan", cfg, (_check_gaps,)),
    ))


def ml_search(seed: int, tiny: bool = False) -> Workload:
    # One descent from the published weights: its evaluation count does not
    # depend on the seed, so runs with different seeds do the same work.
    return Workload("ml-search", (
        Command("ml-opt", "ml-opt", {"restarts": 1, "start": "published"},
                (_check_ml_opt,)),
    ))


def quantum_track(seed: int, tiny: bool = False) -> Workload:
    n_disc = 6 if tiny else 9
    disc_bits = _rotate("1" * (n_disc // 2) + "0" * (n_disc - n_disc // 2),
                        seed)
    kry_bits = _rotate("1100000", seed)
    return Workload("quantum-track", (
        Command("evolve-discrete", "evolve", {
            "model": {"id": "mv-spread"}, "n_sites": n_disc,
            "initial": {"bits": disc_bits},
            "evolution": {"kind": "discrete", "steps": 6}},
            (_check_evolve,), repeat=3),
        # N=7 is the smallest ring whose 4^N generator is above the dense
        # expm cap, so the automatic method choice lands on Krylov.
        Command("evolve-krylov", "evolve", {
            "model": {"id": "dephasing", "params": {"omega": 1.0}},
            "n_sites": 7, "initial": {"bits": kry_bits},
            "evolution": {"kind": "continuous", "t": 2.0 if tiny else 10.0},
            "samples": 2 if tiny else 8},
            (_check_evolve,)),
    ))


WORKLOADS = {
    "majority-vote": majority_vote,
    "gap-scan": gap_scan,
    "ml-search": ml_search,
    "quantum-track": quantum_track,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, tiny)


# ---------------------------------------------------------------------------
# output oracles; each returns a list of problems (empty when correct)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def read_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_finite(out_dir: Path) -> list[str]:
    """Every numeric-looking CSV cell and JSON number must be finite."""
    problems = []
    for path in sorted(out_dir.rglob("*")):
        if path.suffix == ".csv":
            for i, row in enumerate(read_csv(path)):
                for key, cell in row.items():
                    try:
                        value = float(cell)
                    except (TypeError, ValueError):
                        continue
                    if not math.isfinite(value):
                        problems.append(f"{path.name} row {i} {key}={cell}")
        elif path.suffix == ".json":
            try:
                payload = read_json(path)
            except ValueError as err:
                problems.append(f"{path.name}: {err}")
                continue
            stack = [payload]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, list):
                    stack.extend(item)
                elif isinstance(item, float) and not math.isfinite(item):
                    problems.append(f"{path.name}: non-finite {item}")
    return problems


def _check_gaps(cfg: dict, out: Path, record: dict) -> list[str]:
    problems = []
    rows = read_csv(out / "gaps.csv")
    seen = {(r["model"], int(r["N"])): r for r in rows}
    for entry in cfg["models"]:
        for n in entry["n_values"]:
            row = seen.get((entry["id"], n))
            if row is None:
                problems.append(f"no gap row for {entry['id']} N={n}")
                continue
            if entry["id"] == "fuks":
                want_gap, want_null = 2 * (1 - math.cos(math.pi / n)), 4
            else:
                want_gap, want_null = 1 - math.cos(2 * math.pi / n), n + 1
            try:
                gap = float(row["gap"])
            except ValueError:
                gap = math.nan
            if not abs(gap - want_gap) <= 1e-9:
                problems.append(f"{entry['id']} N={n} gap {row['gap']} "
                                f"!= {want_gap:.12g}")
            if int(row["null_dim"]) != want_null:
                problems.append(f"{entry['id']} N={n} null_dim "
                                f"{row['null_dim']} != {want_null}")
            record.setdefault("methods", {})[f"{entry['id']}/{n}"] = \
                row["method"]
    return problems


def _check_mv_verify(cfg: dict, out: Path, record: dict) -> list[str]:
    problems = []
    rows = {int(r["N"]): r for r in read_csv(out / "verify.csv")}
    for n in cfg["n_values"]:
        row = rows.get(n)
        if row is None:
            problems.append(f"no verify row for N={n}")
            continue
        if row["ok"] != "true" or row["correct"] != row["n_strings"]:
            problems.append(f"N={n}: {row['correct']}/{row['n_strings']} "
                            f"classified correctly")
        if int(row["worst_sublayers"]) > int(row["budget"]):
            problems.append(f"N={n}: worst {row['worst_sublayers']} "
                            f"> budget {row['budget']}")
    if read_json(out / "summary.json").get("all_correct") is not True:
        problems.append("summary all_correct is not true")
    return problems


MV_SLOPE = (2.40, 0.3)     # tau_total = b N + q, b within 2.40 +- 0.3


def _check_mv_run(cfg: dict, out: Path, record: dict) -> list[str]:
    problems = []
    rows = {int(r["N"]): r for r in read_csv(out / "mv_tau.csv")}
    for n in cfg["scan"]["n_values"]:
        row = rows.get(n)
        if row is None:
            problems.append(f"no tau row for N={n}")
            continue
        record.setdefault("methods", {})[str(n)] = (
            f"{row['method_spread']}/{row['method_consensus']}")
    b = read_json(out / "fit.json").get("b")
    centre, half = MV_SLOPE
    if not isinstance(b, (int, float)) or not abs(b - centre) <= half:
        problems.append(f"slope b={b} outside {centre} +- {half}")
    return problems


def _check_ml_opt(cfg: dict, out: Path, record: dict) -> list[str]:
    summary = read_json(out / "summary.json")
    record["evaluations"] = summary.get("evaluations")
    cost = summary.get("cost")
    if not isinstance(cost, (int, float)) or not cost <= -8.5:
        return [f"cost {cost} > -8.5"]
    return []


def _check_evolve(cfg: dict, out: Path, record: dict) -> list[str]:
    problems = []
    bits = cfg["initial"]["bits"]
    want_density = bits.count("1") / len(bits)
    summary = read_json(out / "summary.json")
    record["method"] = summary.get("method")
    rows = read_csv(out / "trajectory.csv")
    if not rows:
        problems.append("empty trajectory")
    for i, row in enumerate(rows):
        trace = float(row["trace"])
        density = float(row["n_over_N"])
        if not abs(trace - 1) <= 1e-10:
            problems.append(f"row {i}: trace {row['trace']}")
        if not abs(density - want_density) <= 1e-10:
            problems.append(f"row {i}: n_over_N {row['n_over_N']} "
                            f"!= {want_density:.12g}")
    return problems[:5]


def check_outputs(cmd: Command, out: Path, record: dict) -> list[str]:
    """All oracles of one command, plus the finite-output check."""
    try:
        problems = check_finite(out)
        for check in cmd.checks:
            problems += check(cmd.config, out, record)
    except (OSError, KeyError, ValueError) as err:
        problems = [f"unreadable output: {type(err).__name__}: {err}"]
    return problems
