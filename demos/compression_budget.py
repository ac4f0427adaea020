#!/usr/bin/env python3
"""Hilbert-space budget for a given truncation error.

How many total-photon levels N (and how large a paired-subspace
dimension d = (N+1)(N+2)/2) does a two-pair state of brightness N0 need
before the dropped probability mass falls below a target epsilon?  The
answer collapses onto a single curve: N ~ alpha(epsilon) * N0 with
alpha depending only on epsilon through  exp(-alpha)(1 + alpha) =
epsilon, so the dimension bill scales as alpha^2 N0^2 / 2.

    python3 demos/compression_budget.py --n0 5 10 20 50
"""

import argparse

import numpy as np

from macrobell.truncation import alpha_from_epsilon, dimension_scan, occupancy_at_epsilon


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n0", type=float, nargs="+", default=[5.0, 10.0, 20.0, 50.0])
    ap.add_argument("--epsilon", type=float, nargs="+",
                    default=[1e-1, 1e-2, 1e-3, 1e-6, 1e-12])
    args = ap.parse_args()

    print("error budget -> shape parameter alpha, from exp(-a)(1+a) = eps")
    for eps in args.epsilon:
        print(f"  eps = {eps:<8g} alpha = {alpha_from_epsilon(eps):.3f}")
    print()

    print(f"{'N0':>6} {'eps':>8} {'cutoff N':>8} {'N/(a N0)':>9} "
          f"{'dim':>9} {'d/(a^2N0^2/2)':>13} {'occupancy':>10} {'K-bar kept':>11}")
    for n0 in args.n0:
        for point in dimension_scan([n0], args.epsilon):
            a = point.alpha
            n_ratio = point.n_total / (a * n0)
            d_ratio = point.dimension / (a * a * n0 * n0 / 2.0)
            print(f"{n0:>6.1f} {point.epsilon_target:>8.0e} "
                  f"{point.n_total:>8d} {n_ratio:>9.3f} "
                  f"{point.dimension:>9d} {d_ratio:>13.3f} "
                  f"{point.occupancy:>10.4f} {point.kbar_truncated:>11.2f}")
        print()

    print("occupancy (K-bar per retained dimension) depends on epsilon only,")
    print("not on brightness -- the same curve for N0 = 10 and N0 = 100:")
    probe = np.geomspace(1e-3, 0.5, 7)
    occ_small = occupancy_at_epsilon(10.0, probe)
    occ_large = occupancy_at_epsilon(100.0, probe)
    print(f"{'eps':>10} {'N0=10':>8} {'N0=100':>8}")
    for e, a, b in zip(probe, occ_small, occ_large):
        print(f"{e:>10.1e} {a:>8.4f} {b:>8.4f}")


if __name__ == "__main__":
    main()
