#!/usr/bin/env python3
"""Spectral-gap scan of both number-conserving generators.

Dense eigendecomposition, per graded block of each ring-momentum sector,
for the three-site rule on rings N = 3..nmax and the bond-projector model
on N = 4..nmax (``--nmax``, default 8; N = 8 takes seconds per model), with
log-log fits and the per-size ratio.

    PYTHONPATH=src python scripts/run_gap_scan.py --out results/gap_scan
"""
import argparse
import json
from pathlib import Path

import numpy as np

from qcadc import models, spectra


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/gap_scan"))
    ap.add_argument("--nmax", type=int, default=8)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    fuks = {}
    for n in range(3, args.nmax + 1):
        rep = spectra.spectrum(models.fuks_lindblad(models.FuksParams(0.3), n))
        fuks[n] = rep.gap
        print(f"three-site rule  N={n}: gap={rep.gap:.6f} "
              f"null={rep.null_dim} ({rep.method})")
    deph = {}
    for n in range(4, args.nmax + 1):
        rep = spectra.spectrum(
            models.dephasing_lindblad(models.DephasingParams(0.0), n))
        deph[n] = rep.gap
        print(f"bond projectors  N={n}: gap={rep.gap:.6f} "
              f"null={rep.null_dim} ({rep.method})")

    fits = {}
    for name, gaps in (("fuks", fuks), ("dephasing", deph)):
        if len(gaps) < 3:
            print(f"fit {name}: skipped ({len(gaps)} points)")
            continue
        fit = spectra.loglog_fit(sorted(gaps.items()))
        fits[name] = fit.__dict__
        print(f"fit {name}: c={fit.c:.3f}+-{fit.stderr_c:.3f} d={fit.d:.3f}")
    ratios = {n: deph[n] / fuks[n] for n in deph if n in fuks}
    print("per-size ratio:", {n: round(r, 3) for n, r in ratios.items()})

    lines = ["model,N,gap"]
    lines += [f"fuks,{n},{g:.12g}" for n, g in sorted(fuks.items())]
    lines += [f"dephasing,{n},{g:.12g}" for n, g in sorted(deph.items())]
    (args.out / "gaps.csv").write_text("\n".join(lines) + "\n")
    (args.out / "fits.json").write_text(json.dumps(
        {"fits": fits, "ratios": ratios}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}/gaps.csv and fits.json")


if __name__ == "__main__":
    main()
