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
``sum C_ij a_i^+ b_j^+`` is ``C_0 = [[0, 1], [1, 0]]`` (psi-plus, the
closed form of :class:`~macrobell.states.FourModeState`) acquires the
coupling ``J_a C_0 J_b^T``.  Each Bell label is such a frame on beam *b*
(see ``BellLabel.frame``; its Stokes rotation is ``BellLabel.signs``).
With these conventions the Bell-family relations hold exactly, not just
up to photon-number-dependent phases: the pi phase on ``b_H`` maps
psi-minus to psi-plus; quarter-wave plates at 45 deg in both beams map
psi-plus to phi-plus; a 45 deg polarization rotation of both beams maps
psi-plus to phi-minus.

All angles in the public API are in degrees, matching how wave-plate
settings are quoted in the lab.

A transform is a pair of Jones matrices ``(T_a, T_b)``, the same shape as
``FourModeState.jones``, with None on a beam that has no plate; a custom
plate on beam *a* is ``(J, None)``.  A transform never expands a state:
each beam's matrix is composed into that beam's frame, and the state
refuses a composed frame that is not unitary.
"""

from __future__ import annotations

import math

import numpy as np

from .states import BellLabel, FourModeState, InputError


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def retarder_jones(theta_deg: float, delta: float) -> np.ndarray:
    """Jones matrix of a retarder: axis angle in degrees, retardance in radians."""
    th = math.radians(theta_deg)
    d = np.array([[1.0, 0.0], [0.0, np.exp(1j * delta)]])
    return _rotation(th) @ d @ _rotation(-th)


def _on(target: str, jones: np.ndarray) -> tuple:
    """The transform ``(T_a, T_b)`` of the plate ``jones`` on beam 'a', 'b' or 'both'."""
    if target not in ("a", "b", "both"):
        raise InputError(f"target must be 'a', 'b' or 'both', got {target!r}")
    return (None if target == "b" else jones, None if target == "a" else jones)


def half_wave_plate(angle_deg: float, target: str = "both") -> tuple:
    return _on(target, retarder_jones(angle_deg, math.pi))


def quarter_wave_plate(angle_deg: float, target: str = "both") -> tuple:
    return _on(target, retarder_jones(angle_deg, math.pi / 2))


def polarization_rotator(angle_deg: float, target: str = "both") -> tuple:
    phi = math.radians(angle_deg)
    c, s = math.cos(phi), math.sin(phi)
    return _on(target, np.array([[c, s], [-s, c]], dtype=complex))


def pi_phase_on_bh() -> tuple:
    """e^{i pi n_bH}: the local unitary linking psi-minus and psi-plus."""
    return _on("b", np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex))


def apply_transform(state: FourModeState, transform: tuple) -> FourModeState:
    """Apply a polarization transform ``(T_a, T_b)`` in O(1), at any gain and
    cutoff: each beam's frame ``J`` becomes ``T @ J`` (None: no plate).  The
    result keeps the input's norm and is unlabelled; a frame that is not
    unitary is refused by :class:`~macrobell.states.FourModeState`."""
    if len(transform) != 2 or any(t is not None and np.shape(t) != (2, 2) for t in transform):
        raise InputError(f"a transform is a pair of 2x2 Jones matrices or None, got {transform!r}")
    frames = tuple(j if t is None else t if j is None else t @ j
                   for t, j in zip(transform, state.jones))
    return FourModeState(state.gamma, state.n_max, None, frames)


def _coupling(jones: tuple) -> np.ndarray:
    """The pair coupling ``C``, the state being ``~ exp(tanh(gamma) sum C_ij
    a_i^+ b_j^+) |0>`` (i, j over H, V): ``J_a C_0 J_b^T`` for the frames
    ``jones``, with ``C_0 = [[0, 1], [1, 0]]`` the closed form's."""
    ja, jb = (np.eye(2) if j is None else j for j in jones)
    return ja @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.transpose(jb)


def identify_bell_state(state: FourModeState) -> BellLabel | None:
    """Label whose state is `state`, in O(1): the coupling matrix of the
    label's frame equals the state's to 1e-9 in every entry."""
    got = _coupling(state.jones)
    for label in BellLabel:
        if np.abs(_coupling((None, label.frame)) - got).max() <= 1e-9:
            return label
    return None
