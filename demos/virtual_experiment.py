#!/usr/bin/env python3
"""A virtual run of the polarization-correlation experiment.

Simulates pulsed photon-count records for one Bell state behind lossy
detectors, estimates the matched witness with jackknife error bars,
compares against the closed-form loss curve 4 eta N0 (1 - 3 eta), and
sweeps the detector efficiency to find where certification is lost
(eta = 1/3, independent of brightness).  Finishes with a sampled
conditional/unconditional width ratio.

    python3 demos/virtual_experiment.py --pulses 30000 --seed 11
"""

import argparse
import math

import numpy as np

from macrobell.measures import fedorov_ratio
from macrobell.simulate import (
    SimConfig,
    efficiency_sweep,
    estimate_fedorov,
    estimate_witness,
    witness_under_loss,
)
from macrobell.states import mean_photons_per_mode


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--label", default="psi-minus")
    ap.add_argument("--gamma", type=float, default=0.8)
    ap.add_argument("--pulses", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    n0 = mean_photons_per_mode(args.gamma)
    print(f"state {args.label}, gamma = {args.gamma} (N0 = {n0:.4f}), "
          f"{args.pulses} pulses per setting, seed {args.seed}")
    print()

    print("matched witness under loss: sampled vs 4 eta N0 (1 - 3 eta)")
    print(f"{'eta':>5} {'sampled':>12} {'sigma':>10} {'exact':>12} {'z':>6}")
    for eta in (1.0, 0.9, 0.7, 0.5, 0.4, 0.25):
        cfg = SimConfig(label=args.label, gamma=args.gamma, eta=eta,
                        pulses=args.pulses, seed=args.seed)
        rep = estimate_witness(cfg)
        exact = witness_under_loss(args.gamma, eta)
        z = 0.0 if rep.value_error == 0.0 else abs(rep.value - exact) / rep.value_error
        print(f"{eta:>5.2f} {rep.value:>12.6f} {rep.value_error:>10.6f} "
              f"{exact:>12.6f} {z:>6.2f}")
    print("at eta = 1 the variance terms vanish identically, so the error")
    print("bar comes from the mean-photon estimate alone; below eta = 1/3")
    print("the thinning noise swamps the correlation and the sign flips.")
    print()

    sweep = efficiency_sweep(
        SimConfig(label=args.label, gamma=args.gamma,
                  pulses=args.pulses, seed=args.seed),
        np.linspace(0.15, 0.95, 9),
    )
    print("efficiency sweep: smallest certifying eta "
          f"{sweep.certification_threshold}, sign change near "
          f"{sweep.zero_crossing:.3f} (exact 1/3)")
    for p in sweep.points:
        flag = "certifies" if p.certifies else "-"
        print(f"  eta {p.eta:>5.2f}: {p.value:>12.6f} +- {p.sigma:<10.6f} {flag}")
    print()

    est = estimate_fedorov(SimConfig(label=args.label, gamma=args.gamma,
                                     pulses=args.pulses, seed=args.seed),
                           bin_width=1)
    exact_pair = math.sqrt(fedorov_ratio(args.gamma))
    print("sampled width ratios (per polarization pair):")
    print(f"  H: {est.ratio_h:.4f}   V: {est.ratio_v:.4f}   "
          f"exact {exact_pair:.4f}")
    print(f"  four-mode product: {est.ratio:.4f} "
          f"(exact {fedorov_ratio(args.gamma):.4f})")


if __name__ == "__main__":
    main()
