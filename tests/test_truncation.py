import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from macrobell.states import geometric_ratio, mean_photons_per_mode
from macrobell.measures import gamma_for_mean_photons, kbar
from macrobell.truncation import (
    MAX_CUTOFF,
    CompressionPoint,
    alpha_from_epsilon,
    compression_scan,
    cutoff_for_epsilon,
    dimension_scan,
    epsilon_from_cutoff,
    occupancy_at_epsilon,
    occupancy_curve,
    subspace_dimension,
    truncated_kbar,
)
from oracles import epsilon_brute_force, kbar_truncation_bounds


def _brute_truncated_kbar(gamma: float, n_total: int) -> float:
    # direct joint-spectrum construction, one row n of the kept triangle
    # n + m <= N at a time, then (sum)^2 / sum-of-squares
    q = geometric_ratio(gamma)
    lam = q ** np.arange(n_total + 1) * (1.0 - q)
    total = squares = 0.0
    for n in range(n_total + 1):
        row = lam[n] * lam[: n_total + 1 - n]
        total += row.sum()
        squares += np.sum(row * row)
    return float(total ** 2 / squares)


# -- dropped-mass formula ------------------------------------------------------------


def test_epsilon_hand_value():
    # N0 = 1 => q = 1/2; eps(10) = (1/2)^11 * (12 - 11/2) = 6.5 / 2048
    gamma = gamma_for_mean_photons(1.0)
    assert epsilon_from_cutoff(gamma, 10) == pytest.approx(6.5 / 2048, rel=1e-13)


def test_epsilon_closed_form_matches_tail_sum():
    rng = np.random.default_rng(314)
    for _ in range(40):
        gamma = rng.uniform(0.2, 1.5)
        n = int(rng.integers(0, 60))
        closed = epsilon_from_cutoff(gamma, n)
        brute = epsilon_brute_force(gamma, n)
        assert closed == pytest.approx(brute, rel=1e-12)


def _decimal_budget(gamma: float, n_total: int) -> tuple[Decimal, Decimal]:
    # epsilon(N) and K^T from the defining formulas, in 50-digit decimal
    # arithmetic on the exact binary value of gamma
    with localcontext() as ctx:
        ctx.prec = 50
        e = (-2 * Decimal(gamma)).exp()
        q = ((1 - e) / (1 + e)) ** 2
        n = n_total + 1
        eps = (n * q.ln()).exp() * (n + 1 - n * q)
        x = q * q
        t = (n * x.ln()).exp()
        kt = (1 - eps) ** 2 * (1 + q) ** 2 / ((1 - q) ** 2 * (1 - t * (1 + n * (1 - x))))
        return eps, kt


@pytest.mark.parametrize("n0", [1e3, 1e5, 5e5])
def test_budget_against_decimal_reference(n0):
    # at macroscopic N0 the bracket N + 2 - (N + 1) q cancels and (N + 1) ln q
    # amplifies the rounding of q; both are evaluated without q itself
    gamma = math.asinh(math.sqrt(n0))
    n_total = cutoff_for_epsilon(gamma, 0.5)
    eps, kt = _decimal_budget(gamma, n_total)
    assert abs(Decimal(epsilon_from_cutoff(gamma, n_total)) / eps - 1) <= Decimal("1e-15")
    assert abs(Decimal(truncated_kbar(gamma, n_total)) / kt - 1) <= Decimal("2e-15")


def test_epsilon_monotone_and_edges():
    gamma = 0.8
    vals = [epsilon_from_cutoff(gamma, n) for n in range(40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert epsilon_from_cutoff(gamma, -1) == 1.0
    assert epsilon_from_cutoff(0.0, 5) == 0.0
    assert epsilon_brute_force(0.0, 5) == 0.0


def test_cutoff_for_epsilon_minimality():
    rng = np.random.default_rng(99)
    draws = [(rng.uniform(0.2, 1.5), 10.0 ** rng.uniform(-12, -0.5)) for _ in range(20)]
    draws += [(gamma_for_mean_photons(10.0 ** rng.uniform(-8, math.log10(5.9e5))),
               10.0 ** rng.uniform(-300, math.log10(0.9))) for _ in range(2000)]
    # the largest answered cutoffs, past the last power of two below MAX_CUTOFF
    draws += [(gamma_for_mean_photons(4e5), 0.5), (gamma_for_mean_photons(5.9e5), 0.5)]
    for gamma, target in draws:
        try:
            n = cutoff_for_epsilon(gamma, target)
        except ValueError:
            # refused only when no cutoff within the bound reaches the target
            assert epsilon_from_cutoff(gamma, MAX_CUTOFF) > target
            continue
        assert epsilon_from_cutoff(gamma, n) <= target
        if n > 0:
            assert epsilon_from_cutoff(gamma, n - 1) > target
    assert cutoff_for_epsilon(gamma_for_mean_photons(4e5), 0.5) == 671_339
    assert cutoff_for_epsilon(gamma_for_mean_photons(5.9e5), 0.5) == 990_225
    for n0 in (6e5, 1e20):  # at 1e20, q = tanh^2 gamma rounds to 1
        with pytest.raises(ValueError, match=f"exceeds {MAX_CUTOFF}"):
            cutoff_for_epsilon(gamma_for_mean_photons(n0), 0.5)
    assert cutoff_for_epsilon(0.0, 0.5) == 0
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            cutoff_for_epsilon(0.5, bad)


def test_alpha_solver():
    for target, expect in ((1e-12, 31.1), (1e-2, 6.64), (1e-1, 3.89)):
        a = alpha_from_epsilon(target)
        assert abs(a - expect) < 0.5
        assert abs(math.exp(-a) * (1.0 + a) - target) < 1e-12
    for target in np.geomspace(1e-300, 0.9, 3003):
        ref = brentq(lambda a: math.exp(-a) * (1.0 + a) - target, 1e-15, 2000.0,
                     xtol=1e-14, rtol=8.9e-16)
        assert abs(alpha_from_epsilon(float(target)) - ref) <= 2e-15 * ref
    alphas = [alpha_from_epsilon(e) for e in (0.9, 0.5, 0.1, 1e-3, 1e-9)]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            alpha_from_epsilon(bad)


def test_subspace_dimension_counts():
    for n_total in range(21):
        count = sum(1 for n in range(n_total + 1) for m in range(n_total + 1)
                    if n + m <= n_total)
        assert subspace_dimension(n_total) == count
    assert subspace_dimension(-1) == 0


# -- truncated mode number -----------------------------------------------------------


def test_truncated_kbar_against_brute_force():
    gamma = gamma_for_mean_photons(1.0)
    assert truncated_kbar(gamma, 10) == pytest.approx(
        _brute_truncated_kbar(gamma, 10), rel=1e-12)
    rng = np.random.default_rng(2718)
    for _ in range(25):
        g = rng.uniform(0.2, 1.5)
        n = int(rng.integers(1, 60))
        assert truncated_kbar(g, n) == pytest.approx(_brute_truncated_kbar(g, n), rel=1e-12)
    g = gamma_for_mean_photons(1e3)
    for eps in (0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
        n = cutoff_for_epsilon(g, eps)
        assert truncated_kbar(g, n) == pytest.approx(_brute_truncated_kbar(g, n), rel=1e-12)
    assert truncated_kbar(0.0, 5) == 1.0


def test_kbar_sandwich_bounds():
    rng = np.random.default_rng(4)
    for _ in range(25):
        g = rng.uniform(0.2, 1.5)
        n = int(rng.integers(1, 60))
        lo, hi = kbar_truncation_bounds(g, n)
        kt = truncated_kbar(g, n)
        assert lo * (1.0 - 1e-12) <= kt <= hi * (1.0 + 1e-12)


def test_truncated_kbar_converges_to_full():
    for n0 in (2.0, 10.0):
        g = gamma_for_mean_photons(n0)
        n = cutoff_for_epsilon(g, 1e-14)
        assert truncated_kbar(g, n) == pytest.approx(
            kbar(g), rel=1e-10)


@pytest.mark.parametrize("gamma", [18.0, 20.0, 100.0, 400.0])
def test_truncated_kbar_refuses_epsilon_one(gamma):
    # the 21 retained states of cutoff 5 have K^T near 21, but their mass
    # (1 - eps) rounds to 0, so no K^T can be formed from it
    assert epsilon_from_cutoff(gamma, 5) == 1.0
    with pytest.raises(ValueError, match="epsilon rounds to 1"):
        truncated_kbar(gamma, 5)


@pytest.mark.parametrize("gamma", [18.0, 100.0, 400.0])
def test_kbar_truncation_bounds_refuses_epsilon_one(gamma):
    # with (1 - eps) rounded to 0 the sandwich collapses to (0, 0), and at
    # gamma 400 the full K itself overflows a double
    assert epsilon_from_cutoff(gamma, 5) == 1.0
    with pytest.raises(ValueError, match="epsilon rounds to 1"):
        kbar_truncation_bounds(gamma, 5)


def test_cutoff_tracks_alpha_n0():
    alpha = alpha_from_epsilon(0.01)
    for n0 in (20.0, 40.0, 80.0):
        n = cutoff_for_epsilon(gamma_for_mean_photons(n0), 0.01)
        assert 0.9 < n / (alpha * n0) < 1.1


# -- scans ---------------------------------------------------------------------------


def test_compression_scan_fields():
    pts = compression_scan(20.0, [0.5, 0.1, 0.01])
    assert [p.epsilon_target for p in pts] == [0.5, 0.1, 0.01]
    for p in pts:
        assert isinstance(p, CompressionPoint)
        assert p.n0 == 20.0
        assert p.gamma == pytest.approx(gamma_for_mean_photons(20.0), rel=1e-14)
        assert p.achieved_epsilon <= p.epsilon_target
        if p.n_total > 0:
            assert epsilon_from_cutoff(p.gamma, p.n_total - 1) > p.epsilon_target
        assert p.alpha == alpha_from_epsilon(p.epsilon_target)
        assert p.dimension == subspace_dimension(p.n_total)
        assert p.occupancy == p.kbar_truncated / p.dimension
        assert 0.0 < p.occupancy <= 1.0


def test_hand_computed_budget_points():
    # N0 = 20, eps = 0.01: cutoff 135, dimension 9316; eps = 0.1: cutoff 79
    g20 = gamma_for_mean_photons(20.0)
    assert cutoff_for_epsilon(g20, 0.01) == 135
    assert subspace_dimension(135) == 9316
    assert cutoff_for_epsilon(g20, 0.1) == 79
    assert subspace_dimension(79) == 3240


def test_dimension_cost_scales_as_alpha_sq_n0_sq():
    for n0 in (20.0, 50.0):
        g = gamma_for_mean_photons(n0)
        for eps in (0.01, 0.1):
            n = cutoff_for_epsilon(g, eps)
            d = subspace_dimension(n)
            predicted = alpha_from_epsilon(eps) ** 2 * n0 * n0 / 2.0
            assert 0.8 < d / predicted < 1.2


def test_dimension_scan_shape_and_validation():
    rows = dimension_scan([10.0, 100.0], [0.5, 0.1, 0.02])
    assert len(rows) == 6
    assert [p.n0 for p in rows] == [10.0] * 3 + [100.0] * 3
    assert [p.epsilon_target for p in rows] == [0.5, 0.1, 0.02] * 2
    with pytest.raises(ValueError):
        dimension_scan([], [0.1])
    with pytest.raises(ValueError):
        dimension_scan([10.0], [])


def test_occupancy_is_gain_invariant_past_moderate_gain():
    # a dense grid over [0.01, 0.9] that holds the CLI's default targets
    default = [0.9, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
    probe = np.union1d(np.geomspace(0.01, 0.9, 401), default)
    lo = occupancy_at_epsilon(10.0, probe)
    hi = occupancy_at_epsilon(100.0, probe)
    assert np.max(np.abs(hi - lo) / lo) < 0.01


def test_occupancy_curve_locus():
    eps, occ = occupancy_curve(5.0)
    assert eps.shape == occ.shape
    assert np.all(np.diff(eps) < 0)  # epsilon falls as the cutoff grows
    assert np.all((occ > 0.0) & (occ <= 1.0))
