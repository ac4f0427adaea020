"""Total-photon-number truncation: error budgets and subspace economics.

The four-mode Bell states put joint weight ``lambda_n lambda_m`` on the
pair occupation (n, m), with the geometric ``lambda_n = q^n (1 - q)``,
``q = tanh(gamma)^2``.  Keeping only ``n + m <= N`` drops the mass

    epsilon(N) = q^(N+1) * (N + 2 - (N + 1) q),

and retains a subspace of ``(N+1)(N+2)/2`` pair-occupation states per
Bell component.  At high gain, targeting a fixed epsilon costs
``N ~ alpha(epsilon) N0`` photons, where alpha solves
``exp(-alpha) (1 + alpha) = epsilon`` -- so the retained dimension grows
like ``alpha^2 N0^2 / 2`` while the effective mode number K only grows
like ``4 N0^2``: the states occupy a vanishing fraction of an
exponentially large Fock space, but a fixed O(1) fraction of modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .states import NumericError, geometric_ratio, mean_photons_per_mode

#: search ceiling for cutoff selection
MAX_CUTOFF = 1_000_000


def epsilon_from_cutoff(gamma: float, n_total: int) -> float:
    """Dropped joint mass outside n + m <= n_total (log-domain evaluation)."""
    if n_total < 0:
        return 1.0
    q = geometric_ratio(gamma)
    if q == 0.0:
        return 0.0
    # (N+1) log q can underflow well past 1e-308; do the product in logs
    log_eps = (n_total + 1) * math.log(q) + math.log(n_total + 2 - (n_total + 1) * q)
    return math.exp(log_eps)


def epsilon_brute_force(gamma: float, n_total: int, rel_tol: float = 1e-18) -> float:
    """Direct positive tail sum sum_{s > N} (s+1) q^s (1-q)^2.

    No cancellation: terms are added until they stop mattering at
    ``rel_tol`` relative to the accumulated tail (the neglected
    remainder is then O(rel_tol * q / (1-q)) relative).
    """
    q = geometric_ratio(gamma)
    if q == 0.0:
        return 0.0
    acc = 0.0
    s = n_total + 1
    w = (1.0 - q) ** 2
    # log-domain start to survive q^s underflow territory
    log_term = s * math.log(q) + math.log(s + 1.0) + 2.0 * math.log1p(-q)
    term = math.exp(log_term)
    while True:
        acc += term
        s += 1
        term = w * (s + 1.0) * math.exp(s * math.log(q))
        if term <= rel_tol * acc or term == 0.0:
            return acc + term


def cutoff_for_epsilon(gamma: float, epsilon: float) -> int:
    """Smallest total-photon cutoff N with epsilon(N) <= epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon target must be in (0, 1)")
    if epsilon_from_cutoff(gamma, 0) <= epsilon:
        return 0
    lo, hi = 0, 1
    while epsilon_from_cutoff(gamma, hi) > epsilon:
        lo, hi = hi, hi * 2
        if hi > MAX_CUTOFF:
            raise ValueError(f"required cutoff exceeds {MAX_CUTOFF}")
    # invariant: eps(lo) > target >= eps(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if epsilon_from_cutoff(gamma, mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def alpha_from_epsilon(epsilon: float) -> float:
    """Solve exp(-alpha) (1 + alpha) = epsilon for alpha > 0.

    alpha is the high-gain cost coefficient: the total-photon cutoff
    achieving ``epsilon`` approaches ``alpha * N0`` as N0 grows.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")

    def f(a):
        return math.exp(-a) * (1.0 + a) - epsilon

    hi = 10.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e4:
            raise RuntimeError("no bracket found")
    return float(brentq(f, 1e-15, hi, xtol=1e-14, rtol=8.9e-16))


def subspace_dimension(n_total: int) -> int:
    """Pair occupations (n, m) with n + m <= N: a triangle of (N+1)(N+2)/2."""
    if n_total < 0:
        return 0
    return (n_total + 1) * (n_total + 2) // 2


def truncated_kbar(gamma: float, n_total: int) -> float:
    """Effective mode number of the renormalized truncated joint spectrum.

    K^T = (1 - eps)^2 / sum_{n+m<=N} (lambda_n lambda_m)^2; the inner
    sum collapses to sum_{s<=N} (s+1) q^{2s} (1-q)^4 because the joint
    weight depends on n + m only.
    """
    q = geometric_ratio(gamma)
    if q == 0.0:
        return 1.0
    eps = epsilon_from_cutoff(gamma, n_total)
    x = q * q
    log_x = math.log(x) if x > 0.0 else 2.0 * math.log(q)  # q*q underflows below q ~ 2e-162
    s = np.arange(n_total + 1, dtype=np.float64)
    # sum (s+1) x^s over the kept totals, evaluated stably in logs
    log_terms = s * log_x + np.log(s + 1.0)
    m = log_terms.max()
    ssum = math.exp(m) * np.exp(log_terms - m).sum()
    denom = (1.0 - q) ** 4 * ssum
    return (1.0 - eps) ** 2 / denom


def kbar_truncation_bounds(gamma: float, n_total: int) -> tuple[float, float]:
    """(lower, upper) sandwich for truncated_kbar in terms of the full K.

    ((1-eps)/(1+eps))^2 K  <=  K^T  <=  (1 - eps) K.

    Exact-arithmetic bounds; numerical evaluations of K^T can graze
    either end within a few ulps once eps underflows, so comparisons
    should allow ~1e-12 relative slack.
    """
    from .measures import kbar

    k = kbar(gamma)
    eps = epsilon_from_cutoff(gamma, n_total)
    return (((1.0 - eps) / (1.0 + eps)) ** 2 * k, (1.0 - eps) * k)


@dataclass
class CompressionPoint:
    gamma: float
    n0: float
    epsilon_target: float
    n_total: int
    achieved_epsilon: float
    alpha: float  # high-gain cost coefficient for the *target* epsilon
    dimension: int
    kbar_truncated: float
    occupancy: float  # kbar_truncated / dimension


def compression_scan(n0: float, epsilon_grid) -> list[CompressionPoint]:
    """Mode-number occupancy K^T / dim across truncation error targets.

    For each target the minimal total-photon cutoff is selected, and
    the achieved (not the target) epsilon is reported next to the
    retained dimension and the truncated effective mode number.
    """
    gamma = math.asinh(math.sqrt(n0))
    out = []
    for eps in epsilon_grid:
        n_tot = cutoff_for_epsilon(gamma, float(eps))
        kt = truncated_kbar(gamma, n_tot)
        dim = subspace_dimension(n_tot)
        out.append(CompressionPoint(
            gamma=gamma,
            n0=float(n0),
            epsilon_target=float(eps),
            n_total=n_tot,
            achieved_epsilon=epsilon_from_cutoff(gamma, n_tot),
            alpha=alpha_from_epsilon(float(eps)),
            dimension=dim,
            kbar_truncated=kt,
            occupancy=kt / dim,
        ))
    return out


def dimension_scan(n0_list, epsilon_grid, check_gain_invariance: bool = True) -> list[CompressionPoint]:
    """Long-format occupancy table over gains x truncation targets.

    One CompressionPoint per (N0, epsilon) combination, epsilon-major
    within each gain.  When enabled (and the grid touches [0.01, 0.9]),
    the N0=10 and N0=100 occupancy curves are compared on the grid and
    required to coincide within 1%: past moderate gain the curve
    depends on epsilon only.
    """
    n0_list = [float(v) for v in n0_list]
    epsilon_grid = [float(e) for e in epsilon_grid]
    if not n0_list or not epsilon_grid:
        raise ValueError("gain and epsilon grids must be nonempty")
    rows: list[CompressionPoint] = []
    for n0 in n0_list:
        rows.extend(compression_scan(n0, epsilon_grid))
    if check_gain_invariance:
        probe = [e for e in epsilon_grid if 0.01 <= e <= 0.9]
        if probe:
            lo = occupancy_at_epsilon(10.0, probe)
            hi = occupancy_at_epsilon(100.0, probe)
            drift = float(np.max(np.abs(hi - lo) / lo))
            if drift > 0.01:
                raise NumericError(
                    f"occupancy curves at N0=10 and N0=100 drift {drift:.2%} > 1%"
                )
    return rows


def occupancy_curve(n0: float, n_lo: int | None = None, n_hi: int | None = None):
    """(achieved_epsilon, occupancy) sampled over every integer cutoff.

    Dense in epsilon, for curve-level comparisons across gains: the
    integer-cutoff grid makes fixed epsilon targets land on slightly
    different achieved epsilons at different N0, so curves should be
    compared through interpolation on this locus.
    """
    gamma = math.asinh(math.sqrt(n0))
    if n_lo is None:
        n_lo = cutoff_for_epsilon(gamma, 0.95)
    if n_hi is None:
        n_hi = cutoff_for_epsilon(gamma, 1e-3)
    eps = np.array([epsilon_from_cutoff(gamma, n) for n in range(n_lo, n_hi + 1)])
    occ = np.array([truncated_kbar(gamma, n) / subspace_dimension(n)
                    for n in range(n_lo, n_hi + 1)])
    return eps, occ


def occupancy_at_epsilon(n0: float, eps_values) -> np.ndarray:
    """Occupancy interpolated to exact epsilon values (log-eps linear)."""
    eps_grid, occ = occupancy_curve(n0)
    # eps decreases with cutoff; interp wants increasing x
    order = np.argsort(eps_grid)
    return np.interp(np.log(np.asarray(eps_values, dtype=np.float64)),
                     np.log(eps_grid[order]), occ[order])
