#!/usr/bin/env python3
"""Variance witnesses across the gain axis.

For each gain on a small grid this script evaluates the matched witness
on its untruncated Bell state and prints the value against the closed
form -8 N0, then shows the full 4x4 witness-vs-state table at one gain (matched
entries negative on the diagonal, mismatched entries positive).  That
separable states never go below zero is checked in the tests, on a
battery of product states and separable mixtures (acceptance
criterion 05 in tests/test_acceptance.py).

    python3 demos/witness_scan.py
"""

import argparse

from macrobell.simulate import matched_witness
from macrobell.states import BellLabel, build_bell_state, mean_photons_per_mode
from macrobell.witnesses import cross_witness_matrix, evaluate_witness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table-gamma", type=float, default=0.5,
                    help="gain for the 4x4 cross table")
    args = ap.parse_args()

    print("matched witness on each Bell state vs the closed form -8 N0")
    print(f"{'gamma':>6} {'N0':>8} {'-8 N0':>12} "
          + " ".join(f"{lbl.value:>12}" for lbl in BellLabel))
    for gamma in (0.1, 0.25, 0.5, 0.75, 1.0):
        row = [evaluate_witness(matched_witness(label), build_bell_state(label, gamma)).value
               for label in BellLabel]
        n0 = mean_photons_per_mode(gamma)
        print(f"{gamma:>6.2f} {n0:>8.4f} {-8 * n0:>12.6f} "
              + " ".join(f"{v:>12.6f}" for v in row))
    print()

    gamma = args.table_gamma
    mat, kinds, labels = cross_witness_matrix(gamma)
    print(f"witness x state table at gamma = {gamma} "
          f"(rows: witnesses, columns: states)")
    print(" " * 8 + " ".join(f"{lbl.value:>12}" for lbl in labels))
    for kind, row in zip(kinds, mat):
        print(f"{kind.value:>7} " + " ".join(f"{v:>12.6f}" for v in row))
    print("matched pairs sit on the diagonal at -8 N0 = "
          f"{-8 * mean_photons_per_mode(gamma):.6f}; every mismatched "
          f"entry is 16 N0^2 + 8 N0 = "
          f"{16 * mean_photons_per_mode(gamma) ** 2 + 8 * mean_photons_per_mode(gamma):.6f}")


if __name__ == "__main__":
    main()
