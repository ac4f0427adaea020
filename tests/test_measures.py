import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from macrobell.measures import (
    TRACE_NORM_FLOOR,
    TRACE_NORM_REL,
    WidthConvention,
    cutoff_for_trace_norm,
    fedorov_ratio,
    gain_scan,
    gamma_for_mean_photons,
    kbar,
    log_negativity,
    negativity,
    photon_number_moments,
    trace_norm,
)
from macrobell.states import InputError, mean_photons_per_mode

from oracles import (
    bell_vector,
    count_moments,
    pair_spectrum,
    pt_eigenvalues,
    pt_trace_norm,
    schmidt_number,
    thermal_law_decimal,
)


# -- effective mode number ---------------------------------------------------------


def test_schmidt_number_uniform_and_squaring():
    assert schmidt_number(np.full(8, 0.375)) == pytest.approx(8.0, rel=1e-13)
    # the truncated closed form is K of the renormalized truncated spectrum,
    # squared for the four-mode state
    for gamma, n_max in ((0.3, 5), (0.8, 12), (1.5, 40)):
        k_pair = math.sqrt(kbar(gamma, n_max=n_max))
        assert k_pair == pytest.approx(schmidt_number(pair_spectrum(gamma, n_max)), rel=1e-12)
        assert kbar(gamma, n_max=n_max) == pytest.approx(k_pair * k_pair, rel=1e-15)


def test_schmidt_number_validation():
    for bad_gamma in (-0.1, math.nan, math.inf):
        with pytest.raises(InputError):
            kbar(bad_gamma)
        with pytest.raises(InputError):
            trace_norm(bad_gamma, n_max=10)
    with pytest.raises(InputError):
        kbar(0.5, n_max=-1)


def test_kbar_closed_form():
    for gamma in (0.2, 0.5, 1.0):
        n0 = mean_photons_per_mode(gamma)
        assert math.sqrt(kbar(gamma)) == pytest.approx(1 + 2 * n0, rel=1e-14)
        assert kbar(gamma) == pytest.approx((1 + 2 * n0) ** 2, rel=1e-14)
        n_max = cutoff_for_trace_norm(gamma)
        assert kbar(gamma, n_max=n_max) == pytest.approx(kbar(gamma), rel=1e-12)


def test_kbar_nine_at_unit_mean_photons():
    g = gamma_for_mean_photons(1.0)
    assert kbar(g) == pytest.approx(9.0, rel=1e-12)
    assert kbar(g, n_max=cutoff_for_trace_norm(g)) == pytest.approx(9.0, rel=1e-12)


def test_purity_from_reduced_state_is_inverse_kbar():
    # partial trace over a unitarily-rotated partner mode must leave the
    # purity at sum(p^2): the Schmidt count is basis independent
    p = pair_spectrum(0.8, 30)
    u = unitary_group.rvs(31, random_state=np.random.default_rng(5))
    amp = np.diag(np.sqrt(p)) @ u.T
    rho = amp @ amp.conj().T
    purity = float(np.trace(rho @ rho).real)
    assert 1.0 / purity == pytest.approx(math.sqrt(kbar(0.8, n_max=30)), rel=1e-10)


# -- partial transpose --------------------------------------------------------------


def test_pt_spectrum_two_coefficient_case():
    # the dense oracle reproduces the pure-state PT spectrum {c_k^2, +/- c_k c_l}
    c = np.array([math.cos(0.3), math.sin(0.3)])
    eig = pt_eigenvalues(np.diag(c))
    want = np.sort([c[0] ** 2, c[1] ** 2, c[0] * c[1], -c[0] * c[1]])
    assert np.allclose(eig, want, atol=1e-15)
    assert eig.sum() == pytest.approx(1.0, abs=1e-14)
    assert pt_trace_norm(np.diag(c)) == pytest.approx(c.sum() ** 2, rel=1e-14)


def test_pt_structured_matches_dense():
    gamma, n_max = 0.4, 20
    dense = pt_trace_norm(np.diag(np.sqrt(pair_spectrum(gamma, n_max))))
    assert math.sqrt(trace_norm(gamma, n_max=n_max)) == pytest.approx(dense, rel=1e-12)


def test_pt_dense_guard():
    with pytest.raises(ValueError):
        pt_eigenvalues(np.zeros((60, 60)))


def test_pair_negativity_both_methods():
    gamma = 0.5
    dense = pt_trace_norm(np.diag(np.sqrt(pair_spectrum(gamma, 40))))
    # the four-mode state is two identical pairs: each pair measure is read
    # off the four-mode one, the trace norm as its square root
    tn = math.sqrt(trace_norm(gamma, n_max=40))
    assert tn == pytest.approx(dense, rel=1e-12)
    assert tn == pytest.approx(math.exp(2 * gamma), rel=1e-12)
    log_pair = log_negativity(gamma, n_max=40) / 2
    assert math.expm1(log_pair * math.log(2)) == pytest.approx(tn - 1.0, rel=1e-14)
    assert log_pair == pytest.approx(2 * gamma / math.log(2), rel=1e-12)


def test_four_mode_negativity_both_methods():
    # the dense oracle sees the whole four-mode Bell vector across the beam
    # split: (a_H, a_V) rows, (b_H, b_V) columns
    gamma, n_max = 0.5, 5
    d = n_max + 1
    for sign, pairing in ((-1, "cross"), (+1, "parallel")):
        amp = bell_vector(sign, pairing, gamma, n_max).reshape(d * d, d * d)
        dense = pt_trace_norm(amp)
        assert trace_norm(gamma, n_max=n_max) == pytest.approx(dense, rel=1e-12)
        assert negativity(gamma, n_max=n_max) == pytest.approx(dense - 1.0, rel=1e-12)
    assert trace_norm(gamma) == pytest.approx(math.exp(4 * gamma), rel=1e-15)
    assert negativity(gamma) == pytest.approx(math.expm1(4 * gamma), rel=1e-15)


def test_negativity_numeric_routes_and_guard():
    tn_pair = math.sqrt(trace_norm(0.5, n_max=40))
    assert negativity(0.5, n_max=40) == pytest.approx(math.exp(4 * 0.5) - 1.0, rel=1e-12)
    assert negativity(0.5, n_max=40) == pytest.approx(tn_pair * tn_pair - 1.0, rel=1e-14)
    # a heavy tail (mass 2.4e-3 dropped) is no longer refused: the value is
    # exactly that of the renormalized truncated state
    dense = pt_trace_norm(np.diag(np.sqrt(pair_spectrum(1.0, 10))))
    assert math.sqrt(trace_norm(1.0, n_max=10)) == pytest.approx(dense, rel=1e-12)
    with pytest.raises(InputError):
        negativity(0.5, n_max=-1)


def test_log_negativity_linear_in_gain():
    for gamma in (0.25, 0.5, 1.0):
        assert log_negativity(gamma) == pytest.approx(4 * gamma / math.log(2), rel=1e-14)
        n_max = cutoff_for_trace_norm(gamma)
        assert log_negativity(gamma, n_max=n_max) == pytest.approx(
            log_negativity(gamma), rel=1e-12)


# -- photon-number distributions ------------------------------------------------------


def test_photon_number_distributions():
    p = pair_spectrum(0.7, 25)
    mean, var = photon_number_moments(0.7, 25)
    want_mean, want_var = count_moments(p)
    assert mean == pytest.approx(want_mean, rel=1e-13)
    assert var == pytest.approx(want_var, rel=1e-12)
    n0 = mean_photons_per_mode(0.7)
    assert photon_number_moments(0.7) == (n0, n0 * (n0 + 1.0))
    # a single retained level pins the count: zero width exactly, since the
    # two terms of each moment coincide there
    for gamma in (0.1, 1.0, 3.0, 15.0):
        assert photon_number_moments(gamma, 0) == (0.0, 0.0)
        assert fedorov_ratio(gamma, 0, "stddev") == 0.0
    # at N0 = 6.6e9 six levels are nearly uniform: 2 (5/2)^2 = 12.5
    assert fedorov_ratio(12.0, 5) == pytest.approx(12.4999999956, rel=1e-11)


#: cutoffs from far below N0 (the tail t = q^(n_max+1) within 4e-13 of 1
#: at gamma = 15, n_max = 0) to far past it
_SHORT_CUTOFF_GRID = [(g, n) for g in (0.5, 1.0, 3.0, 5.0, 8.0, 10.0, 12.0, 15.0)
                      for n in (0, 1, 2, 5, 20, 200)]


def _assert_close(got: float, want, what) -> None:
    want = float(want)
    err = abs(got - want) / abs(want) if want else abs(got)
    assert err <= 1e-14, (what, got, want, err)


@pytest.mark.parametrize("gamma, n_max", _SHORT_CUTOFF_GRID)
def test_measures_against_decimal_reference_at_short_cutoffs(gamma, n_max):
    # every measure of the renormalized truncated law, pair and four-mode,
    # within 1e-14 of term-by-term decimal sums (1e-14 absolute where it is 0);
    # each pair value is read off the four-mode one (two identical pairs)
    ref = thermal_law_decimal(gamma, n_max)
    mean, var, k, tn = ref["mean"], ref["var"], ref["kbar"], ref["trace_norm"]
    got_mean, got_var = photon_number_moments(gamma, n_max)
    _assert_close(got_mean, mean, "mean")
    _assert_close(got_var, var, "variance")
    four = {
        "kbar": (kbar(gamma, n_max), k),
        "trace norm": (trace_norm(gamma, n_max), tn),
        "stddev ratio": (fedorov_ratio(gamma, n_max, "stddev"), var.sqrt()),
        "sqrt2 ratio": (fedorov_ratio(gamma, n_max, "sqrt2-stddev"), (2 * mean * mean).sqrt()),
    }
    for name, (got, want) in four.items():
        _assert_close(got, want**2, (name, gamma, n_max, "four-mode"))
        _assert_close(math.sqrt(got), want, (name, gamma, n_max, "pair"))
    _assert_close(negativity(gamma, n_max), tn**2 - 1, ("negativity", gamma, n_max, "four-mode"))
    pair_negativity = math.expm1(log_negativity(gamma, n_max) / 2 * math.log(2))
    _assert_close(pair_negativity, tn - 1, ("negativity", gamma, n_max, "pair"))


def test_distribution_validation():
    with pytest.raises(InputError):
        photon_number_moments(-0.1)
    with pytest.raises(InputError):
        photon_number_moments(0.5, n_max=-3)
    with pytest.raises(InputError, match="'fwhm' is not a valid WidthConvention"):
        fedorov_ratio(0.5, convention="fwhm")


def test_distribution_width_conventions():
    # geometric law: stddev = sqrt(N0 (N0 + 1)), mean = N0
    gamma = 0.9
    n0 = mean_photons_per_mode(gamma)
    n_max = cutoff_for_trace_norm(gamma)
    # the pair ratio is the square root of the four-mode one
    assert math.sqrt(fedorov_ratio(gamma, n_max, WidthConvention.STDDEV)) == pytest.approx(
        math.sqrt(n0 * (n0 + 1.0)), rel=1e-12)
    assert math.sqrt(fedorov_ratio(gamma, n_max)) == pytest.approx(
        math.sqrt(2.0) * n0, rel=1e-12)
    # at a short cutoff both widths follow the truncated law term by term
    mean, var = count_moments(pair_spectrum(gamma, 6))
    assert math.sqrt(fedorov_ratio(gamma, 6, "stddev")) == pytest.approx(
        math.sqrt(var), rel=1e-12)
    assert math.sqrt(fedorov_ratio(gamma, 6)) == pytest.approx(
        math.sqrt(2.0) * mean, rel=1e-12)


def test_fedorov_ratio_conventions_and_asymptotes():
    gamma = 1.0
    n0 = mean_photons_per_mode(gamma)
    n_max = cutoff_for_trace_norm(gamma)
    assert math.sqrt(fedorov_ratio(gamma)) == pytest.approx(math.sqrt(2) * n0, rel=1e-14)
    assert fedorov_ratio(gamma) == pytest.approx(2.0 * n0 * n0, rel=1e-14)
    assert math.sqrt(fedorov_ratio(gamma, convention="stddev")) == pytest.approx(
        math.sqrt(n0 * (n0 + 1.0)), rel=1e-14)
    # truncated route converges to the closed form
    assert fedorov_ratio(gamma, n_max=n_max) == pytest.approx(fedorov_ratio(gamma), rel=1e-12)
    # and equals the term-by-term sum over the truncated spectrum
    mean, _ = count_moments(pair_spectrum(gamma, n_max))
    assert fedorov_ratio(gamma, n_max=n_max) == pytest.approx(2.0 * mean * mean, rel=1e-13)


def test_measure_report_consistency():
    # a gain_scan row holds each measure at the budgeted cutoff of its gain
    n0 = mean_photons_per_mode(0.5)
    (row,) = gain_scan([n0])
    gamma, n_max = gamma_for_mean_photons(n0), cutoff_for_trace_norm(0.5)
    assert row["n0"] == n0 and row["gamma"] == gamma == pytest.approx(0.5, rel=1e-14)
    assert row["cutoff"] == n_max == cutoff_for_trace_norm(gamma)
    assert row["negativity"] == negativity(gamma, n_max)
    assert row["kbar"] == kbar(gamma, n_max)
    assert row["fedorov"] == fedorov_ratio(gamma, n_max, WidthConvention.SQRT2_STDDEV)
    assert row["kbar"] == pytest.approx(kbar(0.5), rel=1e-12)
    assert row["negativity"] == pytest.approx(negativity(0.5), rel=1e-12)
    assert log_negativity(gamma, n_max) == pytest.approx(2.0 / math.log(2), rel=1e-12)
    (row2,) = gain_scan([n0], convention="stddev")
    assert row2["fedorov"] == fedorov_ratio(gamma, n_max, "stddev") != row["fedorov"]


@pytest.mark.parametrize("n0", [1.0, 10.0, 1e6])
def test_gain_scan_rows_match_closed_forms(n0):
    # every row sits within 1e-12 of its untruncated limit
    (row,) = gain_scan([n0])
    g = gamma_for_mean_photons(n0)
    assert row["negativity"] == pytest.approx(math.expm1(4 * g), rel=1e-12)
    assert row["kbar"] == pytest.approx((1 + 2 * n0) ** 2, rel=1e-12)
    assert row["fedorov"] == pytest.approx(2 * n0 * n0, rel=1e-12)
    (row,) = gain_scan([n0], convention="stddev")
    assert row["fedorov"] == pytest.approx(n0 * (n0 + 1), rel=1e-12)


def test_gain_scan_ordering_and_norms():
    rows = gain_scan([1.0, 2.0, 5.0, 20.0])
    for r in rows:
        assert r["negativity"] > r["kbar"] > r["fedorov"]
        for key in ("negativity_norm", "kbar_norm", "fedorov_norm"):
            assert math.isfinite(r[key])
    # the normalized curves approach 1 from above as the gain grows
    norms = [r["negativity_norm"] for r in rows]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, rel=0.15)
    # small gain does not trip the ordering guard
    low = gain_scan([0.05])
    assert len(low) == 1


def test_gamma_inversion_round_trip():
    for n0 in (0.0, 0.5, 3.0, 100.0):
        assert mean_photons_per_mode(gamma_for_mean_photons(n0)) == pytest.approx(
            n0, rel=1e-12, abs=1e-15)
    with pytest.raises(InputError):
        gamma_for_mean_photons(-1.0)


def test_cutoff_for_trace_norm_property():
    assert (TRACE_NORM_REL, TRACE_NORM_FLOOR) == (1e-13, 8)
    for gamma in (0.05, 0.3, 0.8, 1.5, 4.0):
        n = cutoff_for_trace_norm(gamma)
        rel = 1.0 - negativity(gamma, n) / negativity(gamma)
        assert 0.0 <= rel <= 1e-13
        # minimal: one level fewer misses the budget (unless at the floor)
        if n > 8:
            assert 1.0 - negativity(gamma, n - 1) / negativity(gamma) > 1e-13 * 0.9
    assert cutoff_for_trace_norm(0.0) == 8  # floor
