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

Moments of a combination ``O = sum c S_k^beam`` on a pure state are taken
at the state's own cutoff, by one route per input:

* a :class:`~macrobell.states.FourModeState` is never expanded.  Every
  Stokes operator conserves each beam's photon number (Schwinger's
  two-boson picture), so ``O`` keeps the paired kets (``S_0`` and ``S_1``
  are diagonal) or moves one photon between H and V of one beam, onto
  one of two "defect" planes.  The geometric factors shift into
  themselves, so each part of ``O psi`` is one outer product, and
  ``<O>``, ``<O^2>`` follow in O(1) from the mean and variance of the
  truncated thermal law.  A beam seen through a Jones frame ``J`` rotates
  its Stokes vector instead: ``U_J^+ S_k U_J = sum_l R_kl S_l`` with
  ``R_kl = tr(sigma_l J^+ sigma_k J) / 2``, so the closed form is read at
  the coefficients ``c'_l = sum_k c_k R_kl``, with O cut at the cutoff of
  the frame where the state is truncated.
* a raw dense vector over :class:`~macrobell.basis.FourModeBasis` is
  reshaped to its ``(d, d, d, d)`` amplitude tensor and ``O psi`` is
  applied matrix-free.

No operator matrix is ever built here.  The tests tabulate the
matrix-free route column by column to check its Hermiticity, its
agreement with kron-built operators, the su(2) algebra above and the
conjugation between witnesses, and the closed form against sums over
factor arrays they build from the state's parameters.
"""

from __future__ import annotations

import logging

import numpy as np

from .states import FourModeState, NumericError, _norm_sq, _photon_moments, geometric_ratio

log = logging.getLogger(__name__)

BEAMS = ("a", "b")
#: beam -> (index of its H mode, index of its V mode) in the basis ordering
_BEAM_MODES = {"a": (0, 1), "b": (2, 3)}
#: every (component, beam) a coefficient map may name
_TERMS = tuple((k, beam) for k in range(4) for beam in BEAMS)
#: sigma_1, sigma_2, sigma_3 of S_1, S_2, S_3
_PAULI = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])


# -- matrix-free application -------------------------------------------------


def apply_combination_tensor(coeffs: dict, tensor: np.ndarray) -> np.ndarray:
    """Matrix-free O @ psi on the (d, d, d, d) amplitude tensor.

    Per beam, ``c0 S_0 + c1 S_1`` is the diagonal ``(c0 + c1) n_H +
    (c0 - c1) n_V`` and ``c2 S_2 + c3 S_3`` is ``(c2 - i c3) aH+ aV +
    (c2 + i c3) aV+ aH``; both hops share the weights
    ``sqrt((p + 1)(q + 1))`` on the shifted blocks.
    """
    n = np.arange(tensor.shape[0], dtype=np.float64)
    out = np.zeros(tensor.shape, dtype=np.complex128)

    def along(arr, axis_h, axis_v):
        shape = [1, 1, 1, 1]
        shape[axis_h], shape[axis_v] = arr.shape
        return arr.reshape(shape)

    for beam, (h, v) in _BEAM_MODES.items():
        c0, c1, c2, c3 = (coeffs.get((k, beam), 0.0) for k in range(4))
        if c0 or c1:
            out += along(np.add.outer((c0 + c1) * n, (c0 - c1) * n), h, v) * tensor
        if c2 or c3:
            w = along(np.sqrt(np.outer(n[1:], n[1:])), h, v)
            raised, lowered = [slice(None)] * 4, [slice(None)] * 4
            raised[h], raised[v] = slice(1, None), slice(None, -1)
            lowered[h], lowered[v] = slice(None, -1), slice(1, None)
            raised, lowered = tuple(raised), tuple(lowered)
            # aH+ aV: out[i, j] += sqrt(i (j+1)) psi[i-1, j+1], and its adjoint
            out[raised] += complex(c2, -c3) * (w * tensor[lowered])
            out[lowered] += complex(c2, c3) * (w * tensor[raised])
    return out


# -- moments -----------------------------------------------------------------


def _as_vector(state) -> np.ndarray:
    """The ``(d, d, d, d)`` amplitude tensor of a raw vector, whose cutoff is
    read off its length."""
    vec = np.asarray(state)
    d = round(vec.size ** 0.25)
    if d**4 != vec.size:
        raise ValueError("cannot infer basis from vector length")
    return vec.astype(np.complex128, copy=False).reshape(d, d, d, d)


def _through_frame(coeffs: dict, jones: tuple) -> dict:
    """The coefficients of O on the closed form behind the Jones frames:
    ``c'_l = sum_k c_k R_kl`` per framed beam, ``S_0`` unchanged."""
    if jones[0] is None and jones[1] is None:
        return coeffs
    out = dict(coeffs)
    for beam, j in zip(BEAMS, jones):
        if j is not None:
            j = np.asarray(j)
            rot = 0.5 * np.einsum("lij,kji->kl", _PAULI, j.conj().T @ _PAULI @ j).real
            c = np.array([float(coeffs.get((k, beam), 0.0)) for k in (1, 2, 3)])
            out.update({(k, beam): float(x) for k, x in zip((1, 2, 3), c @ rot)})
    return out


def _closed_form_moments(coeffs: dict, state: FourModeState) -> tuple:
    """Normalized (<O>, <O^2>) of a closed-form paired state, in O(1).

    O psi has three orthogonal parts: ``(A n + B m) u_n v_m`` on the paired
    kets (``A, B = c0 +- c1``, ``c0 = c0a + c0b``, ``c1 = c1a -+ c1b``, -
    for cross pairing), and ``ra p q^T + rb r s^T``, ``conj(rb) p q^T +
    conj(ra) r s^T`` on the two hop planes (``p_i, r_i = sqrt(i+1) (u_i,
    u_{i+1})``, ``q_j, s_j = sqrt(j+1) (v_{j+1}, v_j)``, ``ra = c2a - i
    c3a``, ``rb = c2b - i c3b``, conjugated for parallel pairing).  The
    factors shift into themselves, ``r = step_u sqrt(q) p``, ``q = step_v
    sqrt(q) s``, so a hop plane is ``sqrt(q) (ra step_v + rb step_u) p
    s^T`` -- exactly zero on a matched witness -- and every moment follows
    from the mean and variance of n under lambda_n (``|p|^2 = M1 / q``).
    """
    if state.scale == 0:
        raise ValueError("zero state")
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = state.pairing == "cross"
    c0 = c[0, "a"] + c[0, "b"]
    c1 = c[1, "a"] - c[1, "b"] if cross else c[1, "a"] + c[1, "b"]
    a, b = c0 + c1, c0 - c1
    ra, rb = complex(c[2, "a"], -c[3, "a"]), complex(c[2, "b"], -c[3, "b"])
    if not cross:
        rb = rb.conjugate()
    mean_n, var_n = _photon_moments(state.gamma, state.n_levels)
    second = (a * a + b * b) * var_n + (a + b) ** 2 * mean_n**2
    hop = (abs(ra * state.step_v + rb * state.step_u) ** 2
           + abs(rb.conjugate() * state.step_v + ra.conjugate() * state.step_u) ** 2)
    if hop and mean_n:
        second += hop * mean_n * (mean_n / geometric_ratio(state.gamma))
    return (a + b) * mean_n, second


def _vector_moments(coeffs: dict, state) -> tuple:
    vec = _as_vector(state)
    den = _norm_sq(vec)
    if den == 0.0:
        raise ValueError("zero state")
    ov = apply_combination_tensor(coeffs, vec)
    mean = np.vdot(vec, ov) / den
    if abs(mean.imag) > 1e-10 * max(1.0, abs(mean)):
        raise NumericError(f"combination mean: imaginary leakage {mean.imag:.3e}")
    return float(mean.real), _norm_sq(ov) / den


def moments(coeffs: dict, state) -> tuple[float, float]:
    """(<O>, <O^2>) of O = sum c_k S_k on a pure state, normalized by
    <psi|psi>, at the state's own cutoff.

    ``coeffs`` maps ``(component, beam)`` to a real coefficient, e.g.
    ``{(2, 'a'): 1.0, (2, 'b'): -1.0}`` for ``S_2^a - S_2^b``.  ``state``
    is a :class:`FourModeState`, in any frame, or a dense vector over
    :class:`~macrobell.basis.FourModeBasis`, whose cutoff is read off its
    length; since O is Hermitian, ``<O^2>`` is ``||O psi||^2``, never an
    operator product.
    """
    unknown = set(coeffs) - set(_TERMS)
    if unknown:
        raise ValueError(f"Stokes terms must be (0..3, 'a'|'b'), got {unknown}")
    if isinstance(state, FourModeState):
        return _closed_form_moments(_through_frame(coeffs, state.jones), state)
    return _vector_moments(coeffs, state)


def expectation(coeffs: dict, state) -> float:
    """<O> / <psi|psi> for O = sum c_k S_k (see :func:`moments`)."""
    return moments(coeffs, state)[0]


def variance_of_combination(coeffs: dict, state) -> float:
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
