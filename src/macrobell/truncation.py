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

from .measures import gamma_for_mean_photons
from .states import InputError, _log_q, check_integer, geometric_ratio

#: largest total-photon cutoff a budget may ask for
MAX_CUTOFF = 1_000_000


def epsilon_from_cutoff(gamma: float, n_total: int) -> float:
    """Dropped joint mass outside n + m <= n_total, in logs; the bracket
    N + 2 - (N + 1) q is 1 + (N + 1) (1 - q) with 1 - q = 4 x / (1 + x)^2,
    x = exp(-2 gamma), so no rounded q enters."""
    check_integer(n_total, "n_total")
    if n_total < 0:
        return 1.0
    x = math.exp(-2.0 * gamma)
    # (N+1) log q can underflow well past 1e-308; do the product in logs
    bracket = math.log1p((n_total + 1) * 4.0 * x / (1.0 + x) ** 2)
    return math.exp((n_total + 1) * _log_q(gamma) + bracket)


def _solve_log1p(c: float, log_eps: float) -> float:
    """The a > 0 with ``log1p(c a) - a = log_eps``, for c in (0, 1] and log_eps < 0.

    The left side is concave and falls from 0 at a = 0, so Newton's
    iteration started to the right of the root descends to it
    monotonically; it stops when a step no longer decreases a.  The
    start is one fixed-point step ``a -> log1p(c a) - log_eps`` from
    ``3 - 2 log_eps``, which already lies right of the root.
    """
    a = math.log1p(c * (3.0 - 2.0 * log_eps)) - log_eps
    while True:
        f = math.log1p(c * a) - a - log_eps
        step = a + f * (1.0 + c * a) / (1.0 - c + c * a)
        if not step < a:
            return a
        a = step


def cutoff_for_epsilon(gamma: float, epsilon: float) -> int:
    """Smallest total-photon cutoff N with epsilon(N) <= epsilon.

    With a = (N + 1)(-ln q), epsilon(N) = exp(-a) (1 + c a) for
    c = (1 - q) / (-ln q), so the continuous root gives N directly; the
    integer is then stepped against :func:`epsilon_from_cutoff` so that
    rounding cannot leave it one off.
    """
    if not 0.0 < epsilon < 1.0:
        raise InputError("epsilon target must be in (0, 1)")
    q = geometric_ratio(gamma)
    if q == 0.0:
        return 0
    if q == 1.0:
        raise _unreachable(gamma, epsilon)
    neg_log_q = -_log_q(gamma)
    c = 1.0 / (math.cosh(gamma) ** 2 * neg_log_q)  # 1 - q = 1 / cosh^2
    n = max(0, math.ceil(_solve_log1p(c, math.log(epsilon)) / neg_log_q) - 1)
    if n > MAX_CUTOFF + 1:  # past the bound even if rounding put n one too high
        raise _unreachable(gamma, epsilon)
    while epsilon_from_cutoff(gamma, n) > epsilon:
        n += 1
    while n > 0 and epsilon_from_cutoff(gamma, n - 1) <= epsilon:
        n -= 1
    if n > MAX_CUTOFF:
        raise _unreachable(gamma, epsilon)
    return n


def _unreachable(gamma: float, epsilon: float) -> ValueError:
    """The refusal of a target no cutoff up to ``MAX_CUTOFF`` reaches, naming
    epsilon and N0 = sinh(gamma)^2 (past gamma ~ 355 only as that formula)."""
    try:
        n0 = f"{math.sinh(gamma) ** 2:.6g}"
    except OverflowError:
        n0 = f"sinh({gamma:g})^2"
    return ValueError(f"epsilon={epsilon:g} at N0={n0}: required cutoff exceeds {MAX_CUTOFF}")


def alpha_from_epsilon(epsilon: float) -> float:
    """Solve exp(-alpha) (1 + alpha) = epsilon for alpha > 0.

    alpha is the high-gain cost coefficient: the total-photon cutoff
    achieving ``epsilon`` approaches ``alpha * N0`` as N0 grows.
    """
    if not 0.0 < epsilon < 1.0:
        raise InputError("epsilon must be in (0, 1)")
    return _solve_log1p(1.0, math.log(epsilon))


def subspace_dimension(n_total: int) -> int:
    """Pair occupations (n, m) with n + m <= N: a triangle of (N+1)(N+2)/2."""
    check_integer(n_total, "n_total")
    if n_total < 0:
        return 0
    return (n_total + 1) * (n_total + 2) // 2


def truncated_kbar(gamma: float, n_total: int) -> float:
    """Effective mode number of the renormalized truncated joint spectrum.

    K^T = (1 - eps)^2 / sum_{n+m<=N} (lambda_n lambda_m)^2; the inner
    sum collapses to sum_{s<=N} (s+1) x^s (1-q)^4 with x = q^2 because
    the joint weight depends on n + m only, and in closed form

        K^T = (1 - eps)^2 (1 + q)^2 / ((1 - q)^2 [1 - t (1 + (N+1)(1-x))]),

    t = x^(N+1).
    """
    check_integer(n_total, "n_total")
    q = geometric_ratio(gamma)
    if q == 0.0:
        return 1.0
    eps = epsilon_from_cutoff(gamma, n_total)
    if eps == 1.0:  # as cutoff_for_epsilon, refuse before cosh(gamma) can overflow
        raise ValueError(f"epsilon rounds to 1 at gamma {gamma}, cutoff {n_total}")
    log_x = 2.0 * _log_q(gamma)  # q*q underflows below q ~ 2e-162
    log_t = (n_total + 1) * log_x
    bracket = -math.expm1(log_t) + math.exp(log_t) * (n_total + 1) * math.expm1(log_x)
    one_minus_q = 1.0 / math.cosh(gamma) ** 2
    return (1.0 - eps) ** 2 * (1.0 + q) ** 2 / (one_minus_q ** 2 * bracket)


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


def dimension_scan(n0_list, epsilon_grid) -> list[CompressionPoint]:
    """Mode-number occupancy K^T / dim over gains x truncation targets.

    One CompressionPoint per (N0, epsilon) combination, epsilon-major
    within each gain.  For each target the minimal total-photon cutoff is
    selected, and the achieved (not the target) epsilon is reported next
    to the retained dimension and the truncated effective mode number.
    Past moderate gain the occupancy depends on epsilon only (see
    :func:`occupancy_at_epsilon`).
    """
    n0_list = [float(v) for v in n0_list]
    epsilon_grid = [float(e) for e in epsilon_grid]
    if not n0_list or not epsilon_grid:
        raise InputError("gain and epsilon grids must be nonempty")
    rows: list[CompressionPoint] = []
    for n0 in n0_list:
        gamma = gamma_for_mean_photons(n0)
        # every target is checked (InputError) before a budget can be refused as unreachable
        targets = [(eps, alpha_from_epsilon(eps)) for eps in epsilon_grid]
        for eps, alpha in targets:
            n_tot = cutoff_for_epsilon(gamma, eps)
            kt = truncated_kbar(gamma, n_tot)
            dim = subspace_dimension(n_tot)
            rows.append(CompressionPoint(
                gamma=gamma,
                n0=n0,
                epsilon_target=eps,
                n_total=n_tot,
                achieved_epsilon=epsilon_from_cutoff(gamma, n_tot),
                alpha=alpha,
                dimension=dim,
                kbar_truncated=kt,
                occupancy=kt / dim,
            ))
    return rows


def occupancy_curve(n0: float):
    """(achieved_epsilon, occupancy) at every integer cutoff from the one
    reaching epsilon 0.95 to the one reaching 1e-3.

    Dense in epsilon, for curve-level comparisons across gains: the
    integer-cutoff grid makes fixed epsilon targets land on slightly
    different achieved epsilons at different N0, so curves should be
    compared through interpolation on this locus.
    """
    gamma = gamma_for_mean_photons(n0)
    cutoffs = range(cutoff_for_epsilon(gamma, 0.95), cutoff_for_epsilon(gamma, 1e-3) + 1)
    eps = np.array([epsilon_from_cutoff(gamma, n) for n in cutoffs])
    occ = np.array([truncated_kbar(gamma, n) / subspace_dimension(n) for n in cutoffs])
    return eps, occ


def occupancy_at_epsilon(n0: float, eps_values) -> np.ndarray:
    """Occupancy interpolated to exact epsilon values (log-eps linear)."""
    eps_grid, occ = occupancy_curve(n0)
    # eps decreases with cutoff; interp wants increasing x
    order = np.argsort(eps_grid)
    return np.interp(np.log(np.asarray(eps_values, dtype=np.float64)),
                     np.log(eps_grid[order]), occ[order])
