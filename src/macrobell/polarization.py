"""Linear polarization optics acting on the truncated four-mode space.

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

With these conventions the Bell-family relations hold exactly, not just
up to photon-number-dependent phases: the pi phase on ``b_H`` maps
psi-minus to psi-plus; quarter-wave plates at 45 deg in both beams map
psi-plus to phi-plus; a 45 deg polarization rotation of both beams maps
psi-plus to phi-minus.

All angles in the public API are in degrees, matching how wave-plate
settings are quoted in the lab.

A 2x2 mode transform conserves the photon number of its beam, so it acts
block-diagonally on fixed-total-photon sectors; each block is the
symmetric-power representation of the Jones matrix, built here by
binomial expansion of the transformed creation operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (BellLabel, FourModeState, NumericError, build_bell_state,
                     geometric_factors, paired_modes)

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
            raise ValueError(f"target must be 'a', 'b' or 'both', got {self.target!r}")
        defect = unitarity_defect(self.jones)
        if defect > 1e-12:
            raise ValueError(f"Jones matrix not unitary (defect {defect:.2e})")


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


# -- sector machinery --------------------------------------------------------


def sector_matrix(jones: np.ndarray, n: int) -> np.ndarray:
    """Action of a 2x2 mode unitary on the n-photon sector of one beam.

    Basis ordering inside the sector is ``|k, n-k>`` for k = 0..n (k
    photons in H).  The creation operators transform with the columns of
    the Jones matrix; expanding ``(J_HH aH+ + J_VH aV+)^k (J_HV aH+ +
    J_VV aV+)^{n-k}`` binomially gives the matrix column of ``|k, n-k>``.
    """
    out = np.zeros((n + 1, n + 1), dtype=complex)
    lf = np.array([math.lgamma(k + 1.0) for k in range(n + 2)]) / 2.0  # log sqrt(k!)
    for k in range(n + 1):
        # coefficient polynomials in aH+ of the two binomials
        p1 = np.array([math.comb(k, i) * jones[0, 0] ** i * jones[1, 0] ** (k - i)
                       for i in range(k + 1)])
        p2 = np.array([math.comb(n - k, i) * jones[0, 1] ** i * jones[1, 1] ** (n - k - i)
                       for i in range(n - k + 1)])
        poly = np.convolve(p1, p2)  # index j: amplitude on (aH+)^j (aV+)^{n-j}
        j = np.arange(n + 1)
        norm = np.exp(lf[j] + lf[n - j] - lf[k] - lf[n - k])
        out[:, k] = poly * norm
    return out


def beam_transform_matrix(jones: np.ndarray, n_max: int) -> np.ndarray:
    """Dense transform on one beam's flattened (n_H, n_V) two-mode space.

    Sectors with total photon number above ``n_max`` are only partially
    representable under a per-mode cutoff; their blocks are the sector
    unitary restricted to the representable kets, which is where a
    transform can (slightly) leak norm for states with mass near the
    cutoff.
    """
    d = n_max + 1
    out = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * n_max + 1):
        kmin, kmax = max(0, total - n_max), min(total, n_max)
        ks = np.arange(kmin, kmax + 1)
        flat = ks * d + (total - ks)  # (n_H, n_V) -> n_H * d + n_V
        out[np.ix_(flat, flat)] = sector_matrix(jones, total)[np.ix_(ks, ks)]
    return out


def apply_transform(state: FourModeState, transform: BasisTransform) -> FourModeState:
    """Apply a polarization transform, sector by sector, to a truncated state.

    The result is in closed form whenever one paired subspace holds all its
    mass as a geometric table at the state's gain (as for the Bell-family
    relations), else vector-backed, a rank-one table included.  It keeps
    the input's norm, with the global phase fixed so the vacuum amplitude
    is real positive.
    """
    d = state.n_levels
    psi = state.dense().reshape(d * d, d * d)  # rows: beam a, cols: beam b
    norm_before = float(np.sum(np.abs(psi) ** 2))
    t = beam_transform_matrix(transform.jones, state.n_max)
    if transform.target in (BEAM_A, BOTH_BEAMS):
        psi = t @ psi
    if transform.target in (BEAM_B, BOTH_BEAMS):
        psi = psi @ t.T
    norm_after = float(np.sum(np.abs(psi) ** 2))
    if not abs(norm_after - norm_before) <= 1e-10 * max(norm_before, 1e-300):
        raise NumericError(
            f"transform leaked norm {norm_before - norm_after:.3e}: state has "
            f"appreciable mass in sectors the per-mode cutoff cannot represent"
        )
    vec = psi.reshape(-1)
    # global phase: vacuum amplitude real positive
    if abs(vec[0]) > 0:
        vec = vec * (abs(vec[0]) / vec[0])
    # closed form if one paired subspace carries all the mass as a geometric table
    nn, mm = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    for pairing in ("cross", "parallel"):
        table = vec.reshape(d, d, d, d)[paired_modes(nn, mm, pairing)]
        if abs(float(np.sum(np.abs(table) ** 2)) - norm_after) <= 1e-12 * norm_after:
            params = geometric_factors(table, state.gamma)
            if params is not None:
                return FourModeState(state.gamma, state.n_max, None, pairing, *params)
    return FourModeState(gamma=state.gamma, n_max=state.n_max, vector=vec)


def identify_bell_state(state: FourModeState, tol: float = 1e-9) -> BellLabel | None:
    """Label whose closed-form state matches `state` up to global phase."""
    for label in BellLabel:
        ref = build_bell_state(label, state.gamma, state.n_max)
        if 1.0 - state.fidelity(ref) <= tol:
            return label
    return None
