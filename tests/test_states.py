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
    project_total_sector,
    schmidt_spectrum,
    sector_weights,
)

from oracles import (
    bell_vector,
    evolve_from_vacuum,
    thermal_law_decimal,
    thermal_moments_decimal,
    vector_edge_mass,
    vector_fidelity,
)

#: a quarter-wave plate at 45 degrees, which no phase step can absorb
_QWP45 = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2


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
    assert np.array_equal(basis.index(occ[0], occ[1], occ[2], occ[3]), idx)
    assert basis.index(1, 2, 3, 0) == ((1 * 4 + 2) * 4 + 3) * 4 + 0


def test_basis_vacuum_and_interior():
    basis = FourModeBasis(2)
    vac = basis.vacuum()
    assert vac[0] == 1.0 and np.sum(np.abs(vac)) == 1.0
    mask = basis.interior_mask()
    occ = basis.occupations()
    assert np.array_equal(mask, (occ <= 1).all(axis=0))
    with pytest.raises(ValueError):
        FourModeBasis(-1)


def test_memory_preflight_boundary(monkeypatch):
    # the estimate is PEAK_ARRAYS complex128 arrays; exactly filling the
    # reported free memory passes, one amplitude more is refused
    from macrobell import states

    monkeypatch.setattr(states, "available_memory", lambda: states.PEAK_ARRAYS * 16 * 1000)
    states.check_memory(1000, "probe")
    with pytest.raises(NumericError, match="available memory"):
        states.check_memory(1001, "probe")
    # a closed-form state allocates nothing; each Schmidt factor built from
    # it is priced on its own: 1000 amplitudes fit, 1001 do not
    fits = build_bell_state(BellLabel.PSI_MINUS, 0.5, 999)
    assert fits.u.size == fits.v.size == 1000
    too_big = build_bell_state(BellLabel.PSI_MINUS, 0.5, 1000)
    assert too_big.norm_sq() == pytest.approx(1.0, rel=1e-15)
    for factor in ("u", "v"):
        with pytest.raises(NumericError, match="Schmidt factor at cutoff 1000"):
            getattr(too_big, factor)
    monkeypatch.undo()
    pages = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < states.available_memory() <= pages


def test_edge_mass_routes_agree():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.9, 7)
    via_factors = st.edge_mass(depth=2)
    assert vector_edge_mass(st.dense(), depth=2) == pytest.approx(via_factors, rel=1e-12)
    assert via_factors > 1e-10  # gamma too hot for this cutoff, mass visible
    # the tail-sum form against the closed form 1 - (1 - f)^2, f being each
    # factor's share of its kept mass at levels n_max - 1 and n_max
    q = geometric_ratio(st.gamma)
    f = q ** (st.n_max - 1) * (1.0 - q * q) / (1.0 - q ** (st.n_max + 1))
    assert via_factors == pytest.approx(1.0 - (1.0 - f) ** 2, rel=1e-12)


def test_closed_forms_match_factor_sums():
    # norm and edge mass in closed form against sums over the factor arrays
    # (totals s, tail sums t: (t_u s_v + s_u t_v - t_u t_v) / (s_u s_v)),
    # on random scales and phase steps
    rng = np.random.default_rng(7)
    for _ in range(200):
        gamma = rng.uniform(0.0, 4.0)
        n_max, depth = int(rng.integers(0, 60)), int(rng.integers(1, 4))
        st = FourModeState(gamma=gamma, n_max=n_max, pairing="cross",
                           scale=complex(*rng.normal(size=2)),
                           step_u=np.exp(2j * np.pi * rng.uniform()),
                           step_v=np.exp(2j * np.pi * rng.uniform()))
        wu, wv = np.abs(st.u) ** 2, np.abs(st.v) ** 2
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
    # forms, and only the factor arrays are refused by the pre-flight
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
    with pytest.raises(NumericError, match="GiB"):
        st.u


# -- state construction -----------------------------------------------------------


def test_bell_table_amplitudes():
    gamma, n_max = 0.6, 8
    lam = schmidt_spectrum(gamma, n_max)
    for label in BellLabel:
        st = build_bell_state(label, gamma, n_max)
        for n in (0, 1, 3):
            for m in (0, 2, 5):
                want = (label.sign**m) * math.sqrt(lam[n] * lam[m])
                assert st.amplitude(n, m) == pytest.approx(want, abs=1e-15)


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


def test_dense_ket_placement():
    basis = FourModeBasis(4)
    st = build_bell_state(BellLabel.PSI_PLUS, 0.5, 4)
    vec = st.dense()
    assert vec[basis.index(2, 1, 1, 2)] == pytest.approx(st.amplitude(2, 1))
    assert vec[basis.index(2, 1, 2, 1)] == 0.0
    st = build_bell_state(BellLabel.PHI_PLUS, 0.5, 4)
    vec = st.dense()
    assert vec[basis.index(2, 1, 2, 1)] == pytest.approx(st.amplitude(2, 1))
    assert vec[basis.index(2, 1, 1, 2)] == 0.0


def test_dense_matches_independent_loop():
    gamma, n_max = 0.45, 5
    for label in BellLabel:
        st = build_bell_state(label, gamma, n_max)
        ref = bell_vector(label.sign, label.pairing, gamma, n_max)
        vec = st.dense()
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


def test_amplitude_requires_table():
    framed = FourModeState(gamma=0.5, n_max=1, pairing="cross", jones=(None, _QWP45))
    with pytest.raises(ValueError, match="amplitude is an H/V-basis view.*J_b"):
        framed.amplitude(0, 0)


# -- sectors -----------------------------------------------------------------------


def test_sector_weights_law():
    gamma, n_max = 0.9, 14
    st = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    q = geometric_ratio(gamma)
    w = sector_weights(st)
    for n in range(n_max + 1):
        assert w[n] == pytest.approx((n + 1) * q**n * (1 - q) ** 2, rel=1e-12)


def test_singlet_like_sector_amplitudes():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.5, 6)
    _, amps = project_total_sector(st, 1)
    assert np.allclose(amps, np.array([1.0, -1.0]) / math.sqrt(2.0), atol=1e-15)
    # the alternating maximally-entangled pattern in every sector
    for n in range(2, 5):
        _, amps = project_total_sector(st, n)
        want = np.array([(-1.0) ** m for m in range(n + 1)]) / math.sqrt(n + 1.0)
        assert np.allclose(amps, want, atol=1e-14)


def test_sector_errors():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.5, 6)
    with pytest.raises(ValueError):
        project_total_sector(st, 7)
    framed = FourModeState(gamma=0.5, n_max=1, pairing="cross", jones=(_QWP45, None))
    with pytest.raises(ValueError, match="H/V-basis view.*J_a"):
        project_total_sector(framed, 0)


# -- normalization / fidelity -------------------------------------------------------


def test_normalized_fixes_norm_and_phase():
    st = build_bell_state(BellLabel.PHI_MINUS, 0.7, 9)
    twisted = FourModeState(gamma=st.gamma, n_max=st.n_max, label=st.label,
                            pairing=st.pairing, scale=2.0 * np.exp(0.3j), step_v=st.step_v)
    np.testing.assert_allclose(twisted.u, st.u * (2.0 * np.exp(0.3j)), rtol=1e-15)
    unit = twisted.normalized()
    assert unit.norm_sq() == pytest.approx(1.0, rel=1e-13)
    assert abs(unit.table[0, 0].imag) < 1e-15
    assert unit.table[0, 0].real > 0
    # only the scale moves: the phase steps, and with them the table's shape, stay
    assert (unit.step_u, unit.step_v) == (st.step_u, st.step_v)
    np.testing.assert_allclose(unit.table, st.table / st.norm_sq() ** 0.5, rtol=1e-14)


def test_normalize_zero_state_raises():
    zero = FourModeState(gamma=0.0, n_max=2, pairing="cross", scale=0.0)
    with pytest.raises(NumericError):
        zero.normalized()


def test_fidelity_table_and_dense_routes():
    a = build_bell_state(BellLabel.PSI_MINUS, 0.5, 8)
    assert a.fidelity(a) == pytest.approx(1.0, rel=1e-13)
    b = build_bell_state(BellLabel.PSI_PLUS, 0.5, 8)
    f = a.fidelity(b)
    assert f < 1.0
    assert vector_fidelity(a.dense(), b.dense()) == pytest.approx(f, rel=1e-12)
    # factors at different cutoffs overlap on the shorter one's levels, and
    # so do dense tensors, in either argument order; the two pairings
    # overlap on their shared kets n = m alone
    rng = np.random.default_rng(5)
    for pairing in ("cross", "parallel"):
        c = FourModeState(gamma=0.5, n_max=10, pairing=pairing, scale=0.3 - 0.8j,
                          step_u=np.exp(1j * rng.uniform(0, 6)), step_v=np.exp(1j * rng.uniform(0, 6)))
        for x, y in ((a, c), (c, a), (b, c)):
            want = vector_fidelity(x.dense(), y.dense())
            assert x.fidelity(y) == pytest.approx(want, rel=1e-12, abs=1e-15)


# -- serialization -------------------------------------------------------------------


def test_json_round_trip():
    st = build_bell_state(BellLabel.PHI_MINUS, 0.8, 7)
    again = FourModeState.from_json(st.to_json())
    assert again.label is BellLabel.PHI_MINUS
    assert again.gamma == st.gamma
    assert again.n_max == st.n_max
    # reading factors the table through its largest entry: a product and
    # a quotient of stored entries, so each entry is back to 6 roundings
    np.testing.assert_allclose(again.table, st.table, rtol=3 * np.finfo(float).eps, atol=0)


def test_json_rejects_bad_entries():
    st = build_bell_state(BellLabel.PSI_PLUS, 0.3, 3)
    doc = st.to_json_dict()
    doc["amplitudes"][0] = [9, 0, 0.1, 0.0]  # outside the cutoff
    with pytest.raises(ValueError):
        FourModeState.from_json_dict(doc)
    doc = st.to_json_dict()
    doc["amplitudes"][0] = [0, 0, math.nan, 0.0]
    with pytest.raises(ValueError):
        FourModeState.from_json_dict(doc)
    # the (n, m) schema only carries rank-one tables u_n v_m; a file with
    # one entry off the product (or a total-photon triangle) is refused
    doc = st.to_json_dict()
    doc["amplitudes"][1][2] *= 1.5
    with pytest.raises(ValueError, match="rank-one"):
        FourModeState.from_json_dict(doc)
    doc = st.to_json_dict()
    doc["amplitudes"] = [row for row in doc["amplitudes"] if row[0] + row[1] <= 3]
    with pytest.raises(ValueError, match="rank-one"):
        FourModeState.from_json_dict(doc)


def test_json_refuses_rank_one_tables_off_the_closed_form():
    # a rank-one table that is not scale * step_u^n step_v^m sqrt(lambda_n
    # lambda_m) at the file's gain -- one column rescaled, or the gain
    # changed -- has no closed-form storage and is refused
    st = build_bell_state(BellLabel.PSI_PLUS, 0.3, 3)
    doc = st.to_json_dict()
    doc["amplitudes"] = [[n, m, re * (1.5 if m == 2 else 1.0), im]
                         for n, m, re, im in doc["amplitudes"]]
    with pytest.raises(ValueError, match="rank-one"):
        FourModeState.from_json_dict(doc)
    doc = st.to_json_dict()
    doc["gamma"] = 0.31
    with pytest.raises(ValueError, match="rank-one"):
        FourModeState.from_json_dict(doc)
    # a phase-stepped, rescaled state reads back in closed form
    stepped = FourModeState(gamma=0.7, n_max=6, pairing="parallel", scale=0.5j,
                            step_u=np.exp(0.4j), step_v=-1.0)
    again = FourModeState.from_json(stepped.to_json())
    assert again.jones == (None, None) and again.pairing == "cross"  # no label: cross pairing
    assert again.scale == pytest.approx(0.5j, rel=1e-15)
    assert again.step_u == pytest.approx(np.exp(0.4j), rel=1e-15) and again.step_v == -1.0
    np.testing.assert_allclose(again.table, stepped.table, rtol=1e-14, atol=0)


def test_json_requires_table_backing():
    framed = FourModeState(gamma=0.5, n_max=1, pairing="cross", jones=(_QWP45, _QWP45))
    with pytest.raises(ValueError, match="to_json_dict is an H/V-basis view"):
        framed.to_json_dict()


# -- Hamiltonian evolution cross-check -------------------------------------------------


def test_evolution_matches_closed_form_all_labels():
    for label in BellLabel:
        ev = evolve_from_vacuum(label, 0.3, 12)
        ref = build_bell_state(label, 0.3, 12)
        assert 1.0 - vector_fidelity(ev, ref.dense()) <= 1e-9


def test_evolution_substeps_agree():
    one = evolve_from_vacuum(BellLabel.PSI_PLUS, 0.3, 10, steps=1)
    three = evolve_from_vacuum(BellLabel.PSI_PLUS, 0.3, 10, steps=3)
    assert 1.0 - vector_fidelity(one, three) <= 1e-10
    with pytest.raises(ValueError):
        evolve_from_vacuum(BellLabel.PSI_PLUS, 0.3, 10, steps=0)


def test_evolution_rejects_tight_cutoff():
    with pytest.raises(TruncationMassError):
        evolve_from_vacuum(BellLabel.PSI_MINUS, 1.0, 6)
