"""Partial Stokes operators of the two beams in truncated Fock space.

For beam ``a`` with mode operators ``a_H``, ``a_V``:

    S_0^a = aH+ aH + aV+ aV          S_2^a = aH+ aV + aV+ aH
    S_1^a = aH+ aH - aV+ aV          S_3^a = i (aV+ aH - aH+ aV)

and likewise for beam ``b``; the compound-beam operators are the sums
``S_i = S_i^a + S_i^b``.  On the interior of the truncated space (kets
that no raising transition pushes past the cutoff) they satisfy the
angular-momentum algebra ``[S_1, S_2] = 2i S_3`` and cyclic.

Moments of a combination ``O = sum c S_k^beam`` on a pure state take one
route per storage form of the state:

* a factored state never leaves its Schmidt factors.  Every Stokes
  operator conserves each beam's photon number (Schwinger's two-boson
  picture), so ``O`` keeps the paired kets (``S_0`` and ``S_1`` are
  diagonal) or moves one photon between H and V of one beam, landing on
  one of two "defect" planes.  Each of the three parts of ``O psi`` is a
  sum of two outer products of (shifted) factors, so ``<O>`` and
  ``<O^2>`` are built from 1-D sums in O(n_max).
* a vector-backed state (from a polarization transform) is reshaped to
  its ``(d, d, d, d)`` amplitude tensor and ``O psi`` is applied
  matrix-free.

No operator matrix is ever built here.  The tests tabulate the
matrix-free route column by column to check its Hermiticity, its
agreement with kron-built operators, the su(2) algebra above and the
conjugation between witnesses.
"""

from __future__ import annotations

import logging

import numpy as np

from .basis import FourModeBasis
from .states import FourModeState, NumericError, _norm_sq

log = logging.getLogger(__name__)

BEAMS = ("a", "b")
#: beam -> (index of its H mode, index of its V mode) in the basis ordering
_BEAM_MODES = {"a": (0, 1), "b": (2, 3)}
#: every (component, beam) a coefficient map may name
_TERMS = tuple((k, beam) for k in range(4) for beam in BEAMS)


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


def _as_vector(state, basis: FourModeBasis | None) -> tuple[np.ndarray, FourModeBasis]:
    if isinstance(state, FourModeState):
        if basis is None or basis.n_max == state.n_max:
            return np.asarray(state.vector, dtype=np.complex128), FourModeBasis(state.n_max)
        return state.dense(basis), basis
    vec = np.asarray(state)
    if basis is None:
        n_levels = round(vec.size ** 0.25)
        if n_levels**4 != vec.size:
            raise ValueError("cannot infer basis from vector length")
        basis = FourModeBasis(n_levels - 1)
    return vec.astype(np.complex128, copy=False), basis


def _outer_pair_norm(x1, y1, x2, y2) -> float:
    """||x1 y1^T + x2 y2^T||^2 without cancellation: splitting x2 into
    kappa x1 plus a part orthogonal to x1 leaves two orthogonal outer products."""
    xx = _norm_sq(x1)
    kappa = np.vdot(x1, x2) / xx if xx else 0.0
    return xx * _norm_sq(y1 + kappa * y2) + _norm_sq(x2 - kappa * x1) * _norm_sq(y2)


def _factored_moments(coeffs: dict, state: FourModeState, basis: FourModeBasis | None) -> tuple:
    """Normalized (<O>, <O^2>) from the Schmidt factors of a paired state.

    With amplitudes ``u_n v_m``, O psi has three mutually orthogonal
    parts, each a sum of two outer products:

    * ``(A n u) v^T + u (B m v)^T`` on the paired kets, ``A, B = c0 +- c1``
      with ``c0 = c0a + c0b`` and ``c1 = c1a -+ c1b`` (- for cross
      pairing, + for parallel);
    * ``ra p q^T + rb r s^T`` and ``conj(rb) p q^T + conj(ra) r s^T`` on
      the two hop planes, with ``p_i, r_i = sqrt(i+1) (u_i, u_{i+1})``,
      ``q_j, s_j = sqrt(j+1) (v_{j+1}, v_j)``, ``ra = c2a - i c3a`` and
      ``rb = c2b - i c3b`` (conjugated for parallel pairing).

    The mean comes from the paired part alone and ``<O^2> = ||O psi||^2``.
    On a Bell state the two terms of a matched hop plane cancel to the
    last digit, which :func:`_outer_pair_norm` survives.  A basis larger
    than the state's cutoff zero-pads the factors, which moves the
    amputation to its edge.
    """
    u, v = state.u, state.v
    if basis is not None and basis.n_max != state.n_max:
        if basis.n_max < state.n_max:
            raise ValueError("target basis cutoff smaller than the state's")
        pad = (0, basis.n_max - state.n_max)
        u, v = np.pad(u, pad), np.pad(v, pad)
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = state.pairing == "cross"
    su, sv = _norm_sq(u), _norm_sq(v)
    if su * sv == 0.0:
        raise ValueError("zero state")
    n = np.arange(u.size, dtype=np.float64)
    c0 = c[0, "a"] + c[0, "b"]
    c1 = c[1, "a"] - c[1, "b"] if cross else c[1, "a"] + c[1, "b"]
    mean = second = 0.0
    if c0 or c1:
        a, b = c0 + c1, c0 - c1
        mean = a * float(n @ np.abs(u) ** 2) / su + b * float(n @ np.abs(v) ** 2) / sv
        second = _outer_pair_norm(n * u, a * v, u, b * n * v)
    ra, rb = complex(c[2, "a"], -c[3, "a"]), complex(c[2, "b"], -c[3, "b"])
    if not cross:
        rb = rb.conjugate()
    if ra or rb:
        k = np.sqrt(n[1:])
        p, r, q, s = k * u[:-1], k * u[1:], k * v[1:], k * v[:-1]
        second += (_outer_pair_norm(p, ra * q, r, rb * s)
                   + _outer_pair_norm(p, rb.conjugate() * q, r, ra.conjugate() * s))
    return mean, second / (su * sv)


def _vector_moments(coeffs: dict, state, basis: FourModeBasis | None) -> tuple:
    vec, basis = _as_vector(state, basis)
    den = _norm_sq(vec)
    if den == 0.0:
        raise ValueError("zero state")
    d = basis.n_levels
    ov = apply_combination_tensor(coeffs, vec.reshape(d, d, d, d)).reshape(-1)
    mean = np.vdot(vec, ov) / den
    if abs(mean.imag) > 1e-10 * max(1.0, abs(mean)):
        raise NumericError(f"combination mean: imaginary leakage {mean.imag:.3e}")
    return float(mean.real), _norm_sq(ov) / den


def moments(coeffs: dict, state, basis: FourModeBasis | None = None) -> tuple[float, float]:
    """(<O>, <O^2>) of O = sum c_k S_k on a pure state, normalized by <psi|psi>.

    ``coeffs`` maps ``(component, beam)`` to a real coefficient, e.g.
    ``{(2, 'a'): 1.0, (2, 'b'): -1.0}`` for ``S_2^a - S_2^b``.  ``state``
    is a :class:`FourModeState` or a dense vector over ``basis``; since
    O is Hermitian, ``<O^2>`` is ``||O psi||^2``, never an operator
    product.
    """
    unknown = set(coeffs) - set(_TERMS)
    if unknown:
        raise ValueError(f"Stokes terms must be (0..3, 'a'|'b'), got {unknown}")
    if isinstance(state, FourModeState) and state.u is not None:
        return _factored_moments(coeffs, state, basis)
    return _vector_moments(coeffs, state, basis)


def expectation(coeffs: dict, state, basis: FourModeBasis | None = None) -> float:
    """<O> / <psi|psi> for O = sum c_k S_k (see :func:`moments`)."""
    return moments(coeffs, state, basis)[0]


def variance_of_combination(coeffs: dict, state, basis: FourModeBasis | None = None) -> float:
    """Variance of O = sum c_k S_k on a pure state (see :func:`moments`).

    Tiny negative results from roundoff are clamped to zero (logged);
    negative values beyond roundoff raise :class:`NumericError`.
    """
    mean, second = moments(coeffs, state, basis)
    var = second - mean * mean
    if var < 0.0:
        scale = max(second, 1.0)
        if var >= -1e-10 * scale:
            log.warning("variance %.3e clamped to 0 (roundoff)", var)
            return 0.0
        raise NumericError(f"variance {var:.3e} negative beyond roundoff")
    return var
