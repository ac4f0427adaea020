"""Linear polarization optics acting on the four-mode states.

Jones conventions (documented here once; everything downstream relies on
them):

* A retarder with optic axis at angle ``theta`` from horizontal and
  retardance ``delta`` has Jones matrix ``R(theta) diag(1, e^{i delta})
  R(-theta)`` with ``R(t) = [[cos t, -sin t], [sin t, cos t]]`` -- the
  fast axis is unshifted, the slow axis is retarded.
* ``half_wave_plate(theta)`` is the retarder with ``delta = pi`` (real
  matrix ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]``);
  ``quarter_wave_plate(theta)`` has ``delta = pi/2``.
* ``polarization_rotator(phi)`` rotates the polarization plane:
  ``[[cos phi, sin phi], [-sin phi, cos phi]]``.
* ``pi_phase_on_bh()`` puts a pi phase on the ``b_H`` mode only
  (``diag(-1, 1)`` on beam *b*).

The creation operators of a beam transform with the columns of its Jones
matrix, ``a_j^+ -> sum_i J_ij a_i^+``, so a paired state whose coupling
``sum C_ij a_i^+ b_j^+`` has ``C`` = ``[[0, su], [sv, 0]]`` (cross) or
``diag(su, sv)`` (parallel) acquires the coupling ``J_a C J_b^T``.  With
these conventions the Bell-family relations hold exactly, not just up to
photon-number-dependent phases: the pi phase on ``b_H`` maps psi-minus to
psi-plus; quarter-wave plates at 45 deg in both beams map psi-plus to
phi-plus; a 45 deg polarization rotation of both beams maps psi-plus to
phi-minus.

All angles in the public API are in degrees, matching how wave-plate
settings are quoted in the lab.

A transform never expands a state: its Jones matrix is composed into the
state's per-beam frame (see :class:`~macrobell.states.FourModeState`),
and a frame with one nonzero entry per row and column -- a phase plate,
an H/V swap or both -- is folded exactly into the closed form's pairing
and phase steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import BellLabel, FourModeState, InputError

BEAM_A, BEAM_B, BOTH_BEAMS = "a", "b", "both"


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def retarder_jones(theta_deg: float, delta: float) -> np.ndarray:
    """Jones matrix of a retarder: axis angle in degrees, retardance in radians."""
    th = math.radians(theta_deg)
    d = np.array([[1.0, 0.0], [0.0, np.exp(1j * delta)]])
    return _rotation(th) @ d @ _rotation(-th)


@dataclass(frozen=True)
class BasisTransform:
    """A named 2x2 polarization transform applied to one or both beams."""

    kind: str
    target: str  # 'a', 'b' or 'both'
    jones: np.ndarray

    def __post_init__(self):
        if self.target not in (BEAM_A, BEAM_B, BOTH_BEAMS):
            raise InputError(f"target must be 'a', 'b' or 'both', got {self.target!r}")
        defect = unitarity_defect(self.jones)
        if defect > 1e-12:
            raise InputError(f"Jones matrix not unitary (defect {defect:.2e})")


def unitarity_defect(jones: np.ndarray) -> float:
    return float(np.max(np.abs(jones.conj().T @ jones - np.eye(2))))


def half_wave_plate(angle_deg: float, target: str = BOTH_BEAMS) -> BasisTransform:
    return BasisTransform("hwp", target, retarder_jones(angle_deg, math.pi))


def quarter_wave_plate(angle_deg: float, target: str = BOTH_BEAMS) -> BasisTransform:
    return BasisTransform("qwp", target, retarder_jones(angle_deg, math.pi / 2))


def polarization_rotator(angle_deg: float, target: str = BOTH_BEAMS) -> BasisTransform:
    phi = math.radians(angle_deg)
    c, s = math.cos(phi), math.sin(phi)
    return BasisTransform("rotator", target, np.array([[c, s], [-s, c]], dtype=complex))


def pi_phase_on_bh() -> BasisTransform:
    """e^{i pi n_bH}: the local unitary linking psi-minus and psi-plus."""
    return BasisTransform("pi-phase-bh", BEAM_B, np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex))


def apply_transform(state: FourModeState, transform: BasisTransform) -> FourModeState:
    """Apply a polarization transform in O(1), at any gain and cutoff.

    Each targeted beam's frame becomes ``transform.jones @ J``.  A frame
    with one nonzero entry per row and column (|entry| <= 1e-14 counts as
    zero) is folded into the closed form: ``diag(x, y)`` multiplies the
    phase steps, ``[[0, x], [y, 0]]`` also swaps H and V, which flips the
    pairing.  The result keeps the input's norm and is unlabelled, with
    the global phase fixed so the vacuum amplitude is real positive.
    """
    pairing, su, sv = state.pairing, state.step_u, state.step_v
    frames = list(state.jones)
    for i, beam in enumerate((BEAM_A, BEAM_B)):
        if transform.target not in (beam, BOTH_BEAMS):
            continue
        jones = transform.jones if frames[i] is None else transform.jones @ frames[i]
        nonzero = np.abs(jones) > 1e-14
        if not (nonzero.sum(axis=0) == 1).all() or not (nonzero.sum(axis=1) == 1).all():
            frames[i] = jones
            continue
        frames[i] = None
        swap = not nonzero[0, 0]
        x, y = (jones[0, 1], jones[1, 0]) if swap else (jones[0, 0], jones[1, 1])
        if beam == BEAM_A and swap:  # |n, m>_a -> y^n x^m |m, n>_a
            su, sv = sv, su
        elif beam == BEAM_B and (pairing == "parallel") == swap:
            x, y = y, x  # beam b carries u's photons in V when cross-paired
        su, sv = su * x, sv * y
        if swap:
            pairing = "parallel" if pairing == "cross" else "cross"
    return FourModeState(state.gamma, state.n_max, None, pairing, abs(state.scale),
                         su, sv, tuple(frames))


def _coupling(pairing: str, su: complex, sv: complex, jones=(None, None)) -> np.ndarray:
    """The pair coupling ``C``, the state being ``~ exp(tanh(gamma) sum C_ij
    a_i^+ b_j^+) |0>`` (i, j over H, V), seen through the frame ``jones``."""
    c = np.array([[0, su], [sv, 0]] if pairing == "cross" else [[su, 0], [0, sv]], dtype=complex)
    ja, jb = (np.eye(2) if j is None else j for j in jones)
    return ja @ c @ np.transpose(jb)


def identify_bell_state(state: FourModeState, tol: float = 1e-9) -> BellLabel | None:
    """Label whose closed-form state matches `state` up to global phase, in
    O(1): the label's coupling matrix equals the state's to ``tol``."""
    got = _coupling(state.pairing, state.step_u, state.step_v, state.jones)
    for label in BellLabel:
        if np.abs(_coupling(label.pairing, 1.0, label.sign) - got).max() <= tol:
            return label
    return None
