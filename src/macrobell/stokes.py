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

* a table-backed state never leaves its ``(n, m)`` table.  Every Stokes
  operator conserves each beam's photon number (Schwinger's two-boson
  picture), so ``O`` keeps the paired kets (``S_0`` and ``S_1`` are
  diagonal) or moves one photon between H and V of one beam, landing on
  one of two "defect" planes.  ``<O>`` and ``<O^2>`` cost O(n_max^2),
  and cutoff amputation is array slicing.
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
from .states import FourModeState, NumericError, check_memory

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


def _norm_sq(arr: np.ndarray) -> float:
    return float(np.vdot(arr, arr).real)


def _table_moments(coeffs: dict, state: FourModeState, basis: FourModeBasis | None) -> tuple:
    """Normalized (<O>, <O^2>) straight from the (n, m) table.

    With T the table and 0 <= n, m <= n_max, O psi has three parts:

    * on the paired kets, ``((c1a -+ c1b)(n - m) + (c0a + c0b)(n + m)) T[n, m]``
      (- for cross pairing, + for parallel);
    * the "+1" plane over ``T[:-1, 1:]``,
      ``sqrt((n+1) m) (ra T[n, m] + rb T[n+1, m-1])``;
    * the "-1" plane over ``T[1:, :-1]``,
      ``sqrt(n (m+1)) (la T[n, m] + lb T[n-1, m+1])``;

    with ``ra = c2a - i c3a``, ``la = c2a + i c3a`` and, for cross
    pairing, ``rb = c2b - i c3b``, ``lb = c2b + i c3b`` (swapped for
    parallel pairing).  The three parts are mutually orthogonal, so the
    mean comes from the paired part alone and ``<O^2> = ||O psi||^2`` is
    the sum of their squared norms.  A basis larger than the state's
    cutoff zero-pads the table, which moves the amputation to its edge.
    """
    table = state.table
    if basis is not None and basis.n_max != state.n_max:
        if basis.n_max < state.n_max:
            raise ValueError("target basis cutoff smaller than the state's")
        check_memory(basis.n_levels**2, f"amplitude table padded to cutoff {basis.n_max}")
        pad = basis.n_max - state.n_max
        table = np.pad(table, ((0, pad), (0, pad)))
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = state.pairing == "cross"
    weight = np.abs(table) ** 2
    den = float(weight.sum())
    if den == 0.0:
        raise ValueError("zero state")
    n = np.arange(table.shape[0], dtype=np.float64)
    c0 = c[0, "a"] + c[0, "b"]
    c1 = c[1, "a"] - c[1, "b"] if cross else c[1, "a"] + c[1, "b"]
    mean = second = 0.0
    if c0 or c1:
        diag = c1 * (n[:, None] - n) + c0 * (n[:, None] + n)
        mean = float(np.sum(diag * weight)) / den
        second = float(np.sum(diag * diag * weight))
    ra, la = complex(c[2, "a"], -c[3, "a"]), complex(c[2, "a"], c[3, "a"])
    rb, lb = complex(c[2, "b"], -c[3, "b"]), complex(c[2, "b"], c[3, "b"])
    if not cross:
        rb, lb = lb, rb
    if ra or rb:
        w = np.sqrt(np.outer(n[1:], n[1:]))
        up, down = w * table[:-1, 1:], w * table[1:, :-1]
        second += _norm_sq(ra * up + rb * down) + _norm_sq(la * down + lb * up)
    return mean, second / den


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
    if isinstance(state, FourModeState) and state.table is not None:
        return _table_moments(coeffs, state, basis)
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
