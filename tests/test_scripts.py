"""The committed experiments under scripts/, run as a user would run them.

Each ``scripts/<command>.<experiment>.json`` is a config for the CLI
command named before its first dot.
"""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcadc.classical import tau_formula
from qcadc.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scripts").glob("*.json"))


def expected_outputs(command, cfg):
    if command == "mv-run":
        return ({"mv_tau.csv", "fit.json"} if "scan" in cfg
                else {"trajectory.csv", "summary.json"})
    return {"gap-scan": {"gaps.csv", "fits.json", "ratios.csv"},
            "fates-demo": {"finals.csv", "summary.json"},
            "ml-cost": {"summary.json"},
            "ml-opt": {"summary.json"}}[command]


def test_every_experiment_is_committed():
    assert [p.name for p in CONFIGS] == [
        "fates-demo.traffic_majority.json", "gap-scan.gap_scaling.json",
        "ml-cost.published_weights.json", "ml-opt.weight_search.json",
        "mv-run.consensus_profile.json", "mv-run.worst_case_scaling.json"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_committed_config_runs(path, tmp_path):
    command = path.name.split(".")[0]
    cfg = json.loads(path.read_text())
    if command == "gap-scan":
        # the committed sizes reach N = 8 (seconds per model); the small
        # ones carry the closed-form check
        for entry in cfg["models"]:
            entry["n_values"] = [n for n in entry["n_values"] if n <= 5]
        path = tmp_path / path.name
        path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == expected_outputs(command, cfg)
    if command == "gap-scan":
        with open(out / "gaps.csv") as fh:
            rows = [(r["model"], int(r["N"]), float(r["gap"]))
                    for r in csv.DictReader(fh)]
        assert [(m, n) for m, n, _ in rows] == [
            ("fuks", 3), ("fuks", 4), ("fuks", 5),
            ("dephasing", 4), ("dephasing", 5)]
        for model, n, gap in rows:
            want = (2 * (1 - np.cos(np.pi / n)) if model == "fuks"
                    else 1 - np.cos(2 * np.pi / n))
            assert abs(gap - want) < 1e-9, (model, n)


def test_discrete_profile_script(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_mv_profiles.py"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name, ones in (("fifteen_ones", 15), ("sixteen_ones", 16)):
        with open(tmp_path / f"discrete_{name}.csv") as fh:
            dens = [float(r["n_over_N"]) for r in csv.DictReader(fh)]
        assert abs(dens[0] - ones / 30) < 1e-6
        assert dens[-1] == (1.0 if ones > 15 else 0.0)
        assert len(dens) - 1 <= tau_formula(30)
