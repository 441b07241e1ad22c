"""Experiment scripts, run as a user would run them."""
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_run_gap_scan_matches_closed_forms(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_gap_scan.py"),
         "--out", str(tmp_path), "--nmax", "5"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "gaps.csv") as fh:
        rows = [(r["model"], int(r["N"]), float(r["gap"]))
                for r in csv.DictReader(fh)]
    assert [(m, n) for m, n, _ in rows] == [
        ("fuks", 3), ("fuks", 4), ("fuks", 5),
        ("dephasing", 4), ("dephasing", 5)]
    for model, n, gap in rows:
        want = (2 * (1 - np.cos(np.pi / n)) if model == "fuks"
                else 1 - np.cos(2 * np.pi / n))
        assert abs(gap - want) < 1e-9, (model, n)
    assert (tmp_path / "fits.json").exists()
