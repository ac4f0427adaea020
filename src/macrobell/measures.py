"""Entanglement measures and two-beam correlation strength, in closed form.

Everything here follows from the geometric Schmidt spectrum
``lambda_n = q^n (1 - q)``, ``q = tanh(gamma)^2`` of one polarization
pair.  A per-mode cutoff ``n_max`` keeps ``n <= n_max`` and drops the
mass ``t = q^(n_max + 1)``; every measure is that of the renormalized
truncated state, and ``n_max=None`` means ``t = 0``, the untruncated
limit.  Each function returns the four-mode value; the state is two
identical pairs, so the pair value is its square root (K, trace norm,
width ratio) or, for the logarithmic negativity, half of it.

* trace norm of the partial transpose: a pure state with Schmidt
  coefficients c_k has ``||rho^PT||_1 = (sum_k c_k)^2`` (Vidal & Werner,
  PRA 65, 032314, 2002); the truncated geometric sum gives
  ``e^{2 gamma} (1 - sqrt t) / (1 + sqrt t)`` per pair, ``e^{4 gamma}``
  for the four-mode state without a cutoff;
* negativity ``||rho^PT||_1 - 1`` and logarithmic negativity
  ``log2 ||rho^PT||_1``;
* effective Schmidt number ``K = 1 / sum(p_n^2)``, which is
  ``(1 + 2 N0) (1 - t) / (1 + t)`` per pair;
* photon-number correlation strength (a Fedorov-style width ratio):
  unconditional beam distribution width over conditional width, the
  conditional width being a single bin for perfectly correlated beams.
  The truncated law has mean ``N0 - (n_max+1) t / (1-t)`` and variance
  ``N0 (N0+1) - (n_max+1)^2 t / (1-t)^2``, formed without these differences
  by :func:`macrobell.states._photon_moments`.  ``1 - t`` and ``1 - sqrt t``
  are ``-expm1`` of ``ln t = (n_max + 1) ln q``, never 1 minus a rounded t.
"""

from __future__ import annotations

import math
import sys

from .states import (Choice, InputError, NumericError, _log_q, _photon_moments, check_integer,
                     mean_photons_per_mode)


def _log_tail(gamma: float, n_max: int | None) -> float:
    """ln t = (n_max + 1) ln q, t the pair spectrum mass beyond the cutoff (-inf without one)."""
    log_q = _log_q(gamma)
    if n_max is None:
        return -math.inf
    check_integer(n_max, "cutoff")
    if n_max < 0:
        raise InputError(f"cutoff must be nonnegative, got {n_max!r}")
    return (n_max + 1) * log_q


def _log_trace_norm(gamma: float, n_max: int | None) -> float:
    """ln ||rho^PT||_1, twice the pair's 2 gamma + ln((1 - sqrt t) / (1 + sqrt t))."""
    half = _log_tail(gamma, n_max) / 2.0
    s = math.exp(half)
    log_gap = math.log1p(-s) if s < 0.5 else math.log(-math.expm1(half))  # ln(1 - s)
    pair = 2.0 * gamma + log_gap - math.log1p(s)
    return 2.0 * pair


def trace_norm(gamma: float, n_max: int | None = None) -> float:
    """Partial-transpose trace norm across the beam split."""
    return math.exp(_log_trace_norm(gamma, n_max))


def negativity(gamma: float, n_max: int | None = None) -> float:
    """N = ||rho^PT||_1 - 1; e^{4 gamma} - 1 without a cutoff."""
    return math.expm1(_log_trace_norm(gamma, n_max))


def log_negativity(gamma: float, n_max: int | None = None) -> float:
    """E_N = log2 ||rho^PT||_1; exactly 4 gamma / ln 2 without a cutoff."""
    return _log_trace_norm(gamma, n_max) / math.log(2.0)


def kbar(gamma: float, n_max: int | None = None) -> float:
    """Effective mode number: the square of the pair's (1 + 2 N0)(1 - t)/(1 + t)."""
    log_t = _log_tail(gamma, n_max)
    k_pair = (1.0 + 2.0 * mean_photons_per_mode(gamma)) * (-math.expm1(log_t)
                                                          / (1.0 + math.exp(log_t)))
    return k_pair * k_pair


# -- photon-number correlation width ratio ------------------------------------


def photon_number_moments(gamma: float, n_max: int | None = None) -> tuple[float, float]:
    """(mean, variance) of one mode's photon number, renormalized to the cutoff."""
    _log_tail(gamma, n_max)  # refuses a bad gain or cutoff
    if n_max is not None:
        return _photon_moments(gamma, n_max + 1)
    n0 = mean_photons_per_mode(gamma)
    return n0, n0 * (n0 + 1.0)


class WidthConvention(Choice):
    """How 'width' of a photon-number distribution is defined.

    STDDEV:       discrete standard deviation.
    SQRT2_STDDEV: sqrt(2) times the mean -- for the near-exponential
                  unconditional distributions here the standard
                  deviation equals the mean up to O(1/N0) corrections,
                  and this variant keeps the large-gain limit exact.
    """

    STDDEV = "stddev"
    SQRT2_STDDEV = "sqrt2-stddev"


def fedorov_ratio(
    gamma: float,
    n_max: int | None = None,
    convention: WidthConvention = WidthConvention.SQRT2_STDDEV,
) -> float:
    """Unconditional-over-conditional width ratio of the beam photon numbers.

    Per polarization pair the ratio is width(marginal) / 1 bin: fixing
    the partner count pins the mode to a single photon number.  The two
    pairs are independent, so the four-mode ratio returned here is the
    square of the pair ratio.  Without a cutoff: 2 N0^2 under SQRT2_STDDEV
    (sqrt(2) N0 per pair) and N0 (N0+1) under STDDEV.
    """
    convention = WidthConvention(convention)
    mean, var = photon_number_moments(gamma, n_max)
    if convention is WidthConvention.SQRT2_STDDEV:
        r_pair = math.sqrt(2.0) * mean
    else:
        r_pair = math.sqrt(var)
    return r_pair * r_pair


# -- gain scan ----------------------------------------------------------------


#: relative shortfall of the negativity that :func:`cutoff_for_trace_norm` allows
TRACE_NORM_REL = 1e-13
#: smallest cutoff :func:`cutoff_for_trace_norm` returns
TRACE_NORM_FLOOR = 8


def cutoff_for_trace_norm(gamma: float) -> int:
    """Smallest n_max >= ``TRACE_NORM_FLOOR`` whose negativity is within
    ``TRACE_NORM_REL`` of its limit, relative.

    Truncation lowers the four-mode trace norm by the factor
    ((1 - s)/(1 + s))^2 >= 1 - 4 s with s = sqrt(t) = q^((n_max+1)/2), so
    the negativity falls short of e^{4 gamma} - 1 by at most
    4 s / (1 - e^{-4 gamma}) relative.  Budgeting s rather than t is what
    the trace norm needs; K and the width ratio converge like t.
    """
    log_q = _log_q(gamma)
    if gamma == 0.0:
        return TRACE_NORM_FLOOR
    budget = TRACE_NORM_REL * -math.expm1(-4.0 * gamma) / 4.0
    return max(TRACE_NORM_FLOOR, math.ceil(2.0 * math.log(budget) / log_q) - 1)


def gamma_for_mean_photons(n0: float) -> float:
    """Invert N0 = sinh(gamma)^2."""
    if n0 < 0:
        raise InputError("mean photon number must be nonnegative")
    return math.asinh(math.sqrt(n0))


def gain_scan(n0_grid, convention: WidthConvention = WidthConvention.SQRT2_STDDEV) -> list[dict]:
    """All three measures across a grid of mean photon numbers.

    One row per N0 with the four-mode negativity, effective mode number
    and width ratio at the budgeted cutoff ``cutoff_for_trace_norm``, plus
    their large-gain normalizations (16 N0^2, 4 N0^2 and 2 N0^2).
    """
    rows = []
    for n0 in n0_grid:
        if n0 > 0.0 and n0 * n0 < sys.float_info.min:
            raise NumericError(
                f"N0={n0!r} is below 1.5e-154, where N0^2 (the scale of the width "
                f"ratio and of the normalizations) underflows a double"
            )
        if 16.0 * n0 * n0 > sys.float_info.max:
            raise NumericError(f"N0={n0!r} is above 3.35e153, where e^(4 gamma) ~ 16 N0^2 "
                               "(the scale of the negativity) overflows a double")
        gamma = gamma_for_mean_photons(float(n0))
        n_max = cutoff_for_trace_norm(gamma)
        neg, k, fr = (negativity(gamma, n_max), kbar(gamma, n_max),
                      fedorov_ratio(gamma, n_max, convention))
        if not all(math.isfinite(v) for v in (neg, k, fr)):
            raise NumericError(f"measures at N0={n0!r} must be finite")
        if n0 >= 1.0 and not neg > k > fr:
            raise NumericError(
                f"measure ordering negativity > kbar > width-ratio broke at N0={n0}"
            )
        rows.append({
            "n0": float(n0),
            "gamma": gamma,
            "cutoff": n_max,
            "negativity": neg,
            "kbar": k,
            "fedorov": fr,
            "negativity_norm": neg / (16.0 * n0 * n0) if n0 > 0 else math.nan,
            "kbar_norm": k / (4.0 * n0 * n0) if n0 > 0 else math.nan,
            "fedorov_norm": fr / (2.0 * n0 * n0) if n0 > 0 else math.nan,
        })
    return rows
