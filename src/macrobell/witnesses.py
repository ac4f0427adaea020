"""Variance-based entanglement witnesses for the compound two-beam field.

Any state separable across the beams obeys

    Var(S_1) + Var(S_2) + Var(S_3)  >=  2 <S_0>,

with ``S_i = S_i^a + S_i^b``.  Replacing selected beam-*b* operators by
their negatives gives three more inequalities.  Each sign pattern is
violated maximally (all three variances vanish) by exactly one of the
macroscopic Bell states, ``WitnessKind.matched_state``; the signs are
that state's beam-*b* sign triple (``BellLabel.signs``) times the
pattern (+, -, -) that psi-plus violates maximally,

    (s_1, s_2, s_3) = (1, -1, -1) * matched_state.signs,

so W_S = (+, +, +) is matched to psi-minus.  The witness value is
``sum_i Var(S_i^a + s_i S_i^b) - 2 <S_0>``; a negative value certifies
entanglement, and on the matched state it equals ``-2 <S_0>``.
Witnesses are evaluated on closed-form states only; the bound itself is
checked in the tests (acceptance criterion 05), with kron-built
operators, on a battery of product states and separable mixtures.

The sign patterns are connected by local unitaries: conjugating W_S by
``exp(i pi n_bH)`` flips sigma, hence the beam-*b* sign of S_2 and S_3,
and yields W_T1 (exactly, at the matrix level); substituting S_1 -> S_3,
S_3 -> -S_1 (a quarter-wave rotation of the Poincare sphere) reverses
the sign pattern and turns W_T1 into W_T2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (BellLabel, Choice, FourModeState, NumericError, TruncationMassError, _log_q,
                     build_bell_state)
from .stokes import expectation, variance_of_combination

#: gate for exact variance claims (see stokes module docstring)
EDGE_MASS_TOL = 1e-10

#: S_0 of the compound beam
_S0_TOTAL = {(0, "a"): 1.0, (0, "b"): 1.0}


class WitnessKind(Choice):
    W_S = "W_S"
    W_T1 = "W_T1"
    W_T2 = "W_T2"
    W_T3 = "W_T3"

    @property
    def matched_state(self) -> BellLabel:
        return {
            WitnessKind.W_S: BellLabel.PSI_MINUS,
            WitnessKind.W_T1: BellLabel.PSI_PLUS,
            WitnessKind.W_T2: BellLabel.PHI_PLUS,
            WitnessKind.W_T3: BellLabel.PHI_MINUS,
        }[self]

    @property
    def signs(self) -> tuple[int, int, int]:
        """(s_1, s_2, s_3) = (1, -1, -1) times the matched state's sign triple."""
        return tuple(w * s for w, s in zip((1, -1, -1), self.matched_state.signs))


def matched_witness(label: BellLabel) -> WitnessKind:
    """The witness kind maximally violated by ``label``."""
    label = BellLabel(label)
    return next(kind for kind in WitnessKind if kind.matched_state is label)


@dataclass
class WitnessReport:
    """Value and per-term breakdown of one witness evaluation.

    ``value = sum(variance_terms) - 2 * mean_s0`` always; the error
    fields are populated for sampled (Monte-Carlo) estimates only.
    """

    kind: WitnessKind
    value: float
    variance_terms: tuple[float, float, float]
    mean_s0: float
    variance_errors: tuple[float, float, float] | None = None
    value_error: float | None = None
    meta: dict = field(default_factory=dict)


def witness_term_coeffs(kind: WitnessKind) -> list[dict]:
    """The three (component, beam) -> coefficient maps of a witness kind."""
    return [
        {(i, "a"): 1.0, (i, "b"): float(s)}
        for i, s in zip((1, 2, 3), kind.signs)
    ]


def evaluate_witness(kind: WitnessKind, state: FourModeState) -> WitnessReport:
    """Exact witness value on a truncated state, at the state's own cutoff.

    Evaluated in O(1) in any polarization frame (see the stokes module
    docstring).  Refuses (raises
    :class:`TruncationMassError`) when the state keeps more than
    ``EDGE_MASS_TOL`` of its mass within two photons of the cutoff --
    variances would then be truncation artifacts rather than physics.
    """
    kind = WitnessKind(kind)
    mass = state.edge_mass()
    if mass > EDGE_MASS_TOL:
        raise TruncationMassError(mass, EDGE_MASS_TOL)
    terms = tuple(variance_of_combination(c, state) for c in witness_term_coeffs(kind))
    mean_s0 = expectation(_S0_TOTAL, state)
    value = float(sum(terms) - 2.0 * mean_s0)
    return WitnessReport(
        kind=kind, value=value, variance_terms=terms, mean_s0=mean_s0,
        meta={"gamma": state.gamma, "cutoff": state.n_max, "edge_mass": mass,
              "label": state.label.value if state.label else None,
              "source": "exact"},
    )


def cutoff_for_edge_mass(gamma: float) -> int:
    """A per-mode cutoff that passes the witness edge-mass gate: sufficient,
    not the smallest.

    For the untruncated geometric spectrum the mass with either Schmidt
    index at ``n - 1`` or above is ``1 - (1 - q^{n-1})^2`` with
    ``q = tanh(gamma)^2``.  It falls below ``tol = EDGE_MASS_TOL`` exactly
    when ``q^{n-1} < tol / (1 + sqrt(1 - tol))``, so the smallest such
    ``n >= 2`` is read off ``_log_q`` (past gamma ~ 15 the rounding of q would
    dominate ``ln q``), plus two levels; past 2^53 (gamma ~ 17.5) it stays an int.
    The gate itself weighs the kept, renormalized state, whose edge mass
    is smaller, so the result overshoots the smallest passing cutoff: 47
    against 44 at gamma = 1, 2,396 against 1,997 at gamma = 3 and 965,099
    against 561,441 at gamma = 6.
    """
    log_q = _log_q(gamma)  # refuses a gain that is negative or not finite
    if math.tanh(gamma) ** 2 == 1.0:
        raise NumericError(f"tanh(gamma)^2 rounds to 1 at gamma={gamma}: no finite cutoff")
    bound = math.log(EDGE_MASS_TOL / (1.0 + math.sqrt(1.0 - EDGE_MASS_TOL))) / log_q
    return max(2, math.floor(bound) + 2) + 2


# -- cross-witness table ------------------------------------------------------


def cross_witness_matrix(
    gamma: float, n_max: int | None = None
) -> tuple[np.ndarray, list[WitnessKind], list[BellLabel]]:
    """All four witnesses on all four Bell states at one gain.

    Returns (matrix, row_kinds, col_labels); rows are witness kinds,
    columns states.  The diagonal (matched pairs) is ``-2<S_0>``,
    negative for any gamma > 0.
    """
    if n_max is None:
        n_max = cutoff_for_edge_mass(gamma)
    kinds = list(WitnessKind)
    labels = [k.matched_state for k in kinds]
    out = np.empty((4, 4))
    for j, label in enumerate(labels):
        state = build_bell_state(label, gamma, n_max)
        for i, kind in enumerate(kinds):
            out[i, j] = evaluate_witness(kind, state).value
    return out, kinds, labels
