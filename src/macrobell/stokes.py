"""Partial Stokes operators of the two beams in truncated Fock space.

For beam ``a`` with mode operators ``a_H``, ``a_V``:

    S_0^a = aH+ aH + aV+ aV          S_2^a = aH+ aV + aV+ aH
    S_1^a = aH+ aH - aV+ aV          S_3^a = i (aV+ aH - aH+ aV)

and likewise for beam ``b``; the compound-beam operators are the sums
``S_i = S_i^a + S_i^b``.  On the interior of the truncated space (kets
that no raising transition pushes past the cutoff) they satisfy the
angular-momentum algebra ``[S_1, S_2] = 2i S_3`` and cyclic.

Per beam ``S_k = a^+ sigma_k a`` with ``a = (a_H, a_V)``, ``sigma_0 = 1``,
``sigma_1 = diag(1, -1)``, ``sigma_2 = X`` and ``sigma_3 = Y``.

Moments of a combination ``O = sum c S_k^beam`` on a pure
:class:`~macrobell.states.FourModeState` are taken at the state's own
cutoff (untruncated without one), and the state is never expanded.  Every
Stokes operator conserves each beam's photon number (Schwinger's two-boson picture), so
on the psi-plus closed form ``O`` keeps the paired kets (``S_0`` and
``S_1`` are diagonal) or moves one photon between H and V of one beam,
onto one of two "defect" planes.  The geometric factors shift into
themselves, so each part of ``O psi`` is one outer product, and ``<O>``,
``<O^2>`` follow in O(1) from the mean and variance of the (truncated)
thermal law.  A beam seen through a Jones frame ``J`` rotates its Stokes
vector instead: ``U_J^+ S_k U_J = sum_l R_kl S_l`` with ``R_kl =
tr(sigma_l J^+ sigma_k J) / 2``, so the closed form is read at the
coefficients ``c'_l = sum_k c_k R_kl``, with O cut at the cutoff of the
frame where the state is truncated.  A Bell label's frame rotates by its
sign table, ``R = diag(BellLabel.signs)``, applied in plain Python; only
the frames of wave plates take the 9 x 16 rotation.

No operator matrix is ever built here.  The tests check the closed form
against sums over factor arrays they build from a Bell state's label
and against kron-built operators on the state's dense lift, the one
dense reference, on which they also check the su(2) algebra above and
the conjugation between witnesses.
"""

from __future__ import annotations

import logging

import numpy as np

from .states import FourModeState, InputError, NumericError

log = logging.getLogger(__name__)

BEAMS = ("a", "b")
#: every (component, beam) a coefficient map may name
_TERMS = tuple((k, beam) for k in range(4) for beam in BEAMS)
#: sigma_1, sigma_2, sigma_3 of S_1, S_2, S_3
_PAULI = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
#: R_kl = tr(sigma_l J^+ sigma_k J) / 2 as a linear map of the outer product
#: J_ni conj(J_mj), flattened (k, l) by (n, i, m, j)
_ROTATION = 0.5 * np.einsum("lij,kmn->klnimj", _PAULI, _PAULI).reshape(9, 16)


def _through_frame(coeffs: dict, jones: tuple) -> dict:
    """The coefficients of O on the closed form behind an unlabelled state's
    Jones frames: ``c'_l = sum_k c_k R_kl`` per framed beam, ``S_0`` unchanged."""
    out = dict(coeffs)
    for beam, j in zip(BEAMS, jones):
        if j is not None:
            rot = (_ROTATION @ np.multiply.outer(j, np.conj(j)).reshape(16)).real.reshape(3, 3)
            c = np.array([float(coeffs.get((k, beam), 0.0)) for k in (1, 2, 3)])
            out.update({(k, beam): float(x) for k, x in zip((1, 2, 3), c @ rot)})
    return out


def _closed_form_moments(coeffs: dict, state: FourModeState) -> tuple:
    """Normalized (<O>, <O^2>) of the psi-plus closed form, in O(1).

    O psi has three orthogonal parts: ``(A n + B m) u_n v_m`` on the paired
    kets (``A, B = c0 +- c1``, ``c0 = c0a + c0b``, ``c1 = c1a - c1b``), and
    ``ra p q^T + rb r s^T``, ``conj(rb) p q^T + conj(ra) r s^T`` on the two
    hop planes (``p_i, r_i = sqrt(i+1) (u_i, u_{i+1})``, ``q_j, s_j =
    sqrt(j+1) (v_{j+1}, v_j)``, ``ra = c2a - i c3a``, ``rb = c2b - i
    c3b``).  The factors shift into themselves, ``r = sqrt(q) p``, ``q =
    sqrt(q) s``, so the hop planes are ``sqrt(q) (ra + rb) p s^T`` and its
    conjugate -- exactly zero on a matched witness -- and every moment
    follows from the state's photon moments: the mean and variance of n
    under lambda_n and ``|p|^2 = M1 / q``.  Zero ``A, B`` skip the variance,
    which may overflow where a term that does not read it is finite.
    """
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    c0 = c[0, "a"] + c[0, "b"]
    c1 = c[1, "a"] - c[1, "b"]
    a, b = c0 + c1, c0 - c1
    mean_n, var_n, p_sq = state.photon_moments()
    mean = (a + b) * mean_n
    second = (a * a + b * b) * var_n + mean * mean if a or b else 0.0
    hop = 2.0 * abs(complex(c[2, "a"] + c[2, "b"], c[3, "a"] + c[3, "b"])) ** 2
    if hop and mean_n:
        second += hop * mean_n * p_sq
    return mean, second


def moments(coeffs: dict, state: FourModeState) -> tuple[float, float]:
    """(<O>, <O^2>) of O = sum c_k S_k on a pure state, normalized by
    <psi|psi>, at the state's own cutoff or untruncated.

    ``coeffs`` maps ``(component, beam)`` to a real coefficient, e.g.
    ``{(2, 'a'): 1.0, (2, 'b'): -1.0}`` for ``S_2^a - S_2^b``.  ``state``
    is a :class:`FourModeState` in any frame; since O is Hermitian,
    ``<O^2>`` is ``||O psi||^2``, never an operator product.
    """
    if not isinstance(state, FourModeState):
        raise InputError(f"state must be a FourModeState, got {type(state).__name__}")
    unknown = set(coeffs) - set(_TERMS)
    if unknown:
        raise InputError(f"Stokes terms must be (0..3, 'a'|'b'), got {unknown}")
    if state.label is None:
        return _closed_form_moments(_through_frame(coeffs, state.jones), state)
    # a label's frame flips signs of beam b's S_1..S_3 (BellLabel.signs)
    flips = {(k, "b"): s * coeffs[k, "b"]
             for k, s in zip((1, 2, 3), state.label.signs) if (k, "b") in coeffs}
    return _closed_form_moments({**coeffs, **flips}, state)


def expectation(coeffs: dict, state: FourModeState) -> float:
    """<O> / <psi|psi> for O = sum c_k S_k (see :func:`moments`)."""
    return moments(coeffs, state)[0]


def variance_of_combination(coeffs: dict, state: FourModeState) -> float:
    """Variance of O = sum c_k S_k on a pure state (see :func:`moments`).

    Tiny negative results from roundoff are clamped to zero (logged);
    negative values beyond roundoff raise :class:`NumericError`.
    """
    mean, second = moments(coeffs, state)
    var = second - mean * mean
    if var < 0.0:
        scale = max(second, 1.0)
        if var >= -1e-10 * scale:
            log.warning("variance %.3e clamped to 0 (roundoff)", var)
            return 0.0
        raise NumericError(f"variance {var:.3e} negative beyond roundoff")
    return var
