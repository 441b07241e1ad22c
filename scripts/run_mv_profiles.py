#!/usr/bin/env python3
"""Sublayer-by-sublayer density profiles of discrete majority voting.

Runs the full spreading-then-consensus sublayer schedule on two 30-site
half-filling inputs (15 and 16 ones) and writes the density after every
sublayer, one CSV per input.  The continuous consensus profile is the
``mv-run`` config ``scripts/mv-run.consensus_profile.json``.

    PYTHONPATH=src python scripts/run_mv_profiles.py --out results/mv_profiles
"""
import argparse
from pathlib import Path

from qcadc import classical, models


def discrete_profile(bits):
    n = len(bits)
    tau_a, tau_b, _ = models.mv_layer_counts(n)
    arr = classical.parse_bits(bits)
    dens = [classical.popcount(arr) / n]
    for phase in classical.mv_sublayer_sequence(tau_a):
        if not classical.has_adjacent_ones(arr):
            break
        arr = classical.mv_spread_classical(arr, phase)
        dens.append(classical.popcount(arr) / n)
    for phase in classical.mv_sublayer_sequence(tau_b):
        if classical.is_uniform(arr):
            break
        arr = classical.mv_consensus_classical(arr, phase)
        dens.append(classical.popcount(arr) / n)
    return dens, classical.format_bits(arr)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/mv_profiles"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    fifteen = "1" * 15 + "0" * 15
    sixteen = "1" * 16 + "0" * 14
    for name, bits in (("fifteen_ones", fifteen), ("sixteen_ones", sixteen)):
        dens, final = discrete_profile(bits)
        print(f"discrete {name}: {len(dens) - 1} sublayers, "
              f"final {final[:8]}... density {dens[-1]:.2f}")
        lines = ["sublayer,n_over_N"]
        lines += [f"{i},{d:.6g}" for i, d in enumerate(dens)]
        (args.out / f"discrete_{name}.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote profiles under {args.out}/")


if __name__ == "__main__":
    main()
