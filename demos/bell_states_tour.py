#!/usr/bin/env python3
"""Tour of the four macroscopic Bell states.

Builds each of the four polarization Bell states of bright squeezed
vacuum in a truncated Fock space and prints the leading Fock amplitudes,
the thermal pair weights and the local wave plates that carry one Bell
state into another.  Run it with no arguments:

    python3 demos/bell_states_tour.py
"""

import argparse

import numpy as np

from macrobell.polarization import (
    apply_transform,
    identify_bell_state,
    pi_phase_on_bh,
    polarization_rotator,
    quarter_wave_plate,
)
from macrobell.states import (
    BellLabel,
    build_bell_state,
    geometric_ratio,
    mean_photons_per_mode,
    schmidt_spectrum,
)


def leading_amplitudes(state, k=6):
    """The k largest |amplitude| table entries as (ket, amplitude) pairs."""
    root = np.sqrt(schmidt_spectrum(state.gamma, state.n_max))
    table = np.outer(root, root * float(state.label.sign) ** np.arange(state.n_levels))
    flat = np.argsort(-np.abs(table).ravel())
    out = []
    for idx in flat[:k]:
        n, m = divmod(int(idx), state.n_levels)
        amp = table[n, m]
        if abs(amp) < 1e-14:
            break
        ket = (n, m, m, n) if state.pairing == "cross" else (n, m, n, m)
        out.append((ket, amp))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=0.5, help="squeezing gain")
    ap.add_argument("--cutoff", type=int, default=14, help="per-mode photon cutoff")
    args = ap.parse_args()

    gamma, n_max = args.gamma, args.cutoff
    n0 = mean_photons_per_mode(gamma)
    q = geometric_ratio(gamma)

    print(f"gain gamma = {gamma}, mean photons per mode N0 = {n0:.4f}, "
          f"geometric ratio q = {q:.4f}")
    print(f"per-mode cutoff {n_max} -> two Schmidt factors of {n_max + 1} "
          f"amplitudes each, an (n, m) table of {(n_max + 1) ** 2} entries")
    print()

    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        print(f"{label.value:>10}: {state.pairing} pairing, Schmidt form in "
              f"{label.natural_basis}, norm deficit "
              f"{abs(1.0 - state.norm_sq()):.1e}")
        for ket, amp in leading_amplitudes(state):
            print(f"            |{ket[0]},{ket[1]},{ket[2]},{ket[3]}>  "
                  f"{amp.real:+.6f}")
        print()

    lam = schmidt_spectrum(gamma, n_max)
    print("thermal weights lambda_n = q^n (1-q):",
          " ".join(f"{v:.4f}" for v in lam[:6]), "...")
    print()

    print(f"Bell-family relations at gamma = {gamma}:")
    for source, transform, text in (
            (BellLabel.PSI_MINUS, pi_phase_on_bh(), "pi phase on b_H"),
            (BellLabel.PSI_PLUS, quarter_wave_plate(45.0), "quarter-wave plates at 45 deg"),
            (BellLabel.PSI_PLUS, polarization_rotator(45.0), "45 deg rotators")):
        out = apply_transform(build_bell_state(source, gamma, n_max), transform)
        found = identify_bell_state(out)
        print(f"  {text:>30}: {source.value} -> {found.value if found else 'no Bell state'}")


if __name__ == "__main__":
    main()
