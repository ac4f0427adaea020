import itertools
import math
import os
from decimal import Decimal

import numpy as np
import pytest

from macrobell.basis import FourModeBasis
from macrobell.states import (
    BellLabel,
    FourModeState,
    NumericError,
    TruncationMassError,
    _photon_moments,
    build_bell_state,
    geometric_ratio,
    mean_photons_per_mode,
    schmidt_spectrum,
)

from oracles import (
    amplitude_table,
    bell_vector,
    evolve_from_vacuum,
    factors,
    interior_mask,
    ket_index,
    lifted_vector,
    thermal_law_decimal,
    thermal_moments_decimal,
    vector_edge_mass,
    vector_fidelity,
)


# -- spectrum ------------------------------------------------------------------


def test_spectrum_geometric_law():
    gamma = 0.7
    q = math.tanh(gamma) ** 2
    lam = schmidt_spectrum(gamma, 40)
    assert lam[0] == pytest.approx(1.0 - q, rel=1e-14)
    assert np.allclose(lam[1:] / lam[:-1], q, rtol=1e-12)


def test_spectrum_sum_is_retained_mass():
    # the dropped tail is exactly q^(n_max + 1)
    for gamma in (0.2, 0.5, 1.1):
        q = geometric_ratio(gamma)
        lam = schmidt_spectrum(gamma, 25)
        assert lam.sum() == pytest.approx(1.0 - q**26, rel=1e-13)


def test_spectrum_vacuum():
    lam = schmidt_spectrum(0.0, 6)
    assert lam[0] == 1.0
    assert np.all(lam[1:] == 0.0)


def test_spectrum_domain_errors():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            schmidt_spectrum(bad, 5)
    with pytest.raises(ValueError):
        schmidt_spectrum(0.5, -1)


def test_gain_parameterizations_consistent():
    # q = N0 / (N0 + 1)
    for gamma in (0.1, 0.5, 1.3, 2.0):
        n0 = mean_photons_per_mode(gamma)
        assert geometric_ratio(gamma) == pytest.approx(n0 / (n0 + 1.0), rel=1e-12)


def test_random_spectrum_battery():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        gamma = float(rng.uniform(0.0, 1.2))
        n_max = int(rng.integers(5, 40))
        lam = schmidt_spectrum(gamma, n_max)
        q = geometric_ratio(gamma)
        assert lam.sum() == pytest.approx(1.0 - q ** (n_max + 1), rel=1e-12)
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) <= 0.0)  # geometric decay


# -- basis bookkeeping -----------------------------------------------------------


def test_basis_index_occupations_round_trip():
    basis = FourModeBasis(3)
    occ = basis.occupations()
    idx = np.arange(basis.dim)
    assert np.array_equal(ket_index(basis.n_levels, occ[0], occ[1], occ[2], occ[3]), idx)
    assert ket_index(basis.n_levels, 1, 2, 3, 0) == ((1 * 4 + 2) * 4 + 3) * 4 + 0


def test_basis_vacuum_and_interior():
    basis = FourModeBasis(2)
    vac = basis.vacuum()
    assert vac[0] == 1.0 and np.sum(np.abs(vac)) == 1.0
    # the kets with occupation 0 or 1 in each of the four modes
    interior = [ket_index(3, *ket) for ket in itertools.product(range(2), repeat=4)]
    assert np.array_equal(np.flatnonzero(interior_mask(basis)), interior)
    with pytest.raises(ValueError):
        FourModeBasis(-1)


def test_memory_preflight_boundary(monkeypatch):
    # the estimate is the item count times the caller's bytes per item;
    # exactly filling the reported free memory passes, one item more is
    # refused, naming the count and its unit
    from macrobell import states

    monkeypatch.setattr(states, "available_memory", lambda: 160 * 1000)
    states.check_memory(1000, "probe", 160, "items")
    with pytest.raises(NumericError, match="probe: 1e\\+03 items .*available memory"):
        states.check_memory(1001, "probe", 160, "items")
    # a closed-form state allocates nothing, at any cutoff
    assert build_bell_state(BellLabel.PSI_MINUS, 0.5, 1000).norm_sq() == pytest.approx(
        1.0, rel=1e-15)
    monkeypatch.undo()
    pages = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < states.available_memory() <= pages


def test_edge_mass_routes_agree():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.9, 7)
    via_factors = st.edge_mass(depth=2)
    assert vector_edge_mass(lifted_vector(st), depth=2) == pytest.approx(via_factors, rel=1e-12)
    assert via_factors > 1e-10  # gamma too hot for this cutoff, mass visible
    # the tail-sum form against the closed form 1 - (1 - f)^2, f being each
    # factor's share of its kept mass at levels n_max - 1 and n_max
    q = geometric_ratio(st.gamma)
    f = q ** (st.n_max - 1) * (1.0 - q * q) / (1.0 - q ** (st.n_max + 1))
    assert via_factors == pytest.approx(1.0 - (1.0 - f) ** 2, rel=1e-12)


def test_closed_forms_match_factor_sums():
    # norm and edge mass in closed form against sums over the oracle's factor
    # arrays (totals s, tail sums t: (t_u s_v + s_u t_v - t_u t_v) / (s_u s_v)),
    # on random scales and phase steps
    rng = np.random.default_rng(7)
    for _ in range(200):
        gamma = rng.uniform(0.0, 4.0)
        n_max, depth = int(rng.integers(0, 60)), int(rng.integers(1, 4))
        st = FourModeState(gamma=gamma, n_max=n_max, pairing="cross",
                           scale=complex(*rng.normal(size=2)),
                           step_u=np.exp(2j * np.pi * rng.uniform()),
                           step_v=np.exp(2j * np.pi * rng.uniform()))
        wu, wv = (np.abs(f) ** 2 for f in factors(st))
        su, sv = wu.sum(), wv.sum()
        k = max(n_max + 1 - depth, 0)
        tu, tv = wu[k:].sum(), wv[k:].sum()
        assert st.norm_sq() == pytest.approx(su * sv, rel=1e-13)
        assert st.edge_mass(depth) == pytest.approx((tu * sv + su * tv - tu * tv) / (su * sv),
                                                    rel=1e-12, abs=0.0)


def test_photon_moments_against_decimal_reference():
    # the O(1) truncated mean and variance over every gain and level count
    # the measures ask for: gamma up to 177.44 (N0 = 3.3e153) and K up to
    # 2.1e155 (their cutoffs there), through the underflow of z^4 (from
    # gamma ~ 93.8) and past K^2 ~ 1.8e308, within 1e-14 of decimal sums
    rng = np.random.default_rng(11)
    pairs = [(g, int(10.0 ** e)) for g, e in zip(
        np.concatenate([rng.uniform(1e-3, 177.44, 300), 10.0 ** rng.uniform(-3, 2.249, 300)]),
        rng.uniform(0.0, math.log10(2.1e155), 600))]
    pairs += [(177.44, int(2.1e155)), (177.44, 1), (177.44, 2), (93.83, 10), (1e-3, 1),
              (1e-3, int(2.1e155)), (1.0, int(2.1e155)), (2.0, int(1.4e154)), (0.7, 2**511)]
    for gamma, k in pairs:
        want = thermal_moments_decimal(gamma, k)
        for got, ref in zip(_photon_moments(gamma, k), want):
            ref = float(ref)
            assert math.isfinite(got), (gamma, k)
            err = abs(got - ref) / ref if ref else abs(got)
            assert err <= 1e-14, (gamma, k, got, ref)
    # the closed-form reference is the term-by-term sum where both exist
    for gamma in (1e-3, 0.5, 3.0, 15.0):
        for n_max in (0, 1, 7, 200):
            sums = thermal_law_decimal(gamma, n_max)
            mean, var = thermal_moments_decimal(gamma, n_max + 1)
            assert abs(mean - sums["mean"]) <= Decimal("1e-30") * (1 + sums["mean"])
            assert abs(var - sums["var"]) <= Decimal("1e-30") * (1 + sums["var"])


def test_bell_state_allocates_nothing():
    # gamma = 17 gates at a cutoff past 10^16: norm and edge mass are closed
    # forms
    import tracemalloc

    tracemalloc.start()
    try:
        st = build_bell_state(BellLabel.PHI_MINUS, 17.0, 10**16)
        kept, mass = st.norm_sq(), st.edge_mass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000
    assert kept == pytest.approx(1.0, abs=1e-10) and 0.0 < mass < 1e-10


# -- state construction -----------------------------------------------------------


def test_bell_table_amplitudes():
    gamma, n_max = 0.6, 8
    lam = schmidt_spectrum(gamma, n_max)
    for label in BellLabel:
        table = amplitude_table(build_bell_state(label, gamma, n_max))
        for n in (0, 1, 3):
            for m in (0, 2, 5):
                want = (label.sign**m) * math.sqrt(lam[n] * lam[m])
                assert table[n, m] == pytest.approx(want, abs=1e-15)


def test_label_properties():
    assert BellLabel.PSI_PLUS.pairing == "cross"
    assert BellLabel.PHI_MINUS.pairing == "parallel"
    assert BellLabel.PSI_MINUS.sign == -1
    assert BellLabel.PHI_PLUS.sign == +1
    assert "circular" in BellLabel.PHI_PLUS.natural_basis
    assert "45" in BellLabel.PHI_MINUS.natural_basis


def test_norm_is_retained_mass_per_mode():
    gamma, n_max = 0.8, 12
    q = geometric_ratio(gamma)
    st = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    kept = 1.0 - q ** (n_max + 1)
    assert st.norm_sq() == pytest.approx(kept * kept, rel=1e-12)


def test_dense_matches_independent_loop():
    gamma, n_max = 0.45, 5
    for label in BellLabel:
        st = build_bell_state(label, gamma, n_max)
        ref = bell_vector(label.sign, label.pairing, gamma, n_max)
        vec = lifted_vector(st)
        assert np.allclose(vec, ref, atol=1e-14)
        assert float(np.vdot(vec, vec).real) == pytest.approx(st.norm_sq(), rel=1e-13)


def test_storage_validation():
    with pytest.raises(ValueError, match="pairing 'cross' or 'parallel'"):
        FourModeState(gamma=0.0, n_max=1)
    with pytest.raises(ValueError, match="pairing 'cross' or 'parallel'"):
        FourModeState(gamma=0.0, n_max=1, pairing="diagonal")
    # malformed frames are refused at construction, naming what is expected
    for jones in ((np.eye(2),), (np.eye(3), None), (None, 2.0 * np.eye(2))):
        with pytest.raises(ValueError, match="two unitary 2x2 matrices or None"):
            FourModeState(gamma=0.5, n_max=4, pairing="cross", jones=jones)
    with pytest.raises(ValueError, match="unit modulus"):
        FourModeState(gamma=0.5, n_max=4, pairing="cross", step_v=1.5)
    with pytest.raises(ValueError, match="unit modulus"):
        FourModeState(gamma=0.5, n_max=4, pairing="cross", step_u=0.0)
    with pytest.raises(ValueError, match="n_max"):
        FourModeState(gamma=0.5, n_max=-1, pairing="cross")
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="gain"):
            build_bell_state(BellLabel.PSI_MINUS, bad, 4)
    # past gamma of about 372, ln tanh(gamma)^2 itself rounds to 0
    with pytest.raises(NumericError, match="rounds to 0"):
        build_bell_state(BellLabel.PSI_MINUS, 400.0, 4)


# -- sectors -----------------------------------------------------------------------


def _sectors(st):
    """Total-photon sectors of a state's (n, m) table: sector n holds the
    entries (n - m, m), m = 0..n, the kets with n photons in beam a."""
    table = amplitude_table(st)
    return [table[n - np.arange(n + 1), np.arange(n + 1)] for n in range(st.n_levels)]


def test_sector_weights_law():
    gamma, n_max = 0.9, 14
    st = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    q = geometric_ratio(gamma)
    for n, amps in enumerate(_sectors(st)):
        w = float(np.sum(np.abs(amps) ** 2))
        assert w == pytest.approx((n + 1) * q**n * (1 - q) ** 2, rel=1e-12)


def test_singlet_like_sector_amplitudes():
    sectors = [amps / np.linalg.norm(amps)
               for amps in _sectors(build_bell_state(BellLabel.PSI_MINUS, 0.5, 6))]
    assert np.allclose(sectors[1], np.array([1.0, -1.0]) / math.sqrt(2.0), atol=1e-15)
    # the alternating maximally-entangled pattern in every sector
    for n in range(2, 5):
        amps = sectors[n]
        want = np.array([(-1.0) ** m for m in range(n + 1)]) / math.sqrt(n + 1.0)
        assert np.allclose(amps, want, atol=1e-14)


# -- Hamiltonian evolution cross-check -------------------------------------------------


def test_evolution_matches_closed_form_all_labels():
    for label in BellLabel:
        ev = evolve_from_vacuum(label, 0.3, 12)
        ref = build_bell_state(label, 0.3, 12)
        assert 1.0 - vector_fidelity(ev, lifted_vector(ref)) <= 1e-9


def test_evolution_substeps_agree():
    one = evolve_from_vacuum(BellLabel.PSI_PLUS, 0.3, 10, steps=1)
    three = evolve_from_vacuum(BellLabel.PSI_PLUS, 0.3, 10, steps=3)
    assert 1.0 - vector_fidelity(one, three) <= 1e-10
    with pytest.raises(ValueError):
        evolve_from_vacuum(BellLabel.PSI_PLUS, 0.3, 10, steps=0)


def test_evolution_rejects_tight_cutoff():
    with pytest.raises(TruncationMassError):
        evolve_from_vacuum(BellLabel.PSI_MINUS, 1.0, 6)
