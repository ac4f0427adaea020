"""Acceptance gate: one test per acceptance criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED line
per criterion.  Each body prints the numbers it judged, so a failing
criterion shows its measured values directly in the report.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from macrobell import cli
from macrobell.basis import FourModeBasis
from macrobell.measures import (
    cutoff_for_trace_norm,
    fedorov_ratio,
    gamma_for_mean_photons,
    kbar,
    log_negativity,
    negativity,
    trace_norm,
)
from macrobell.simulate import (
    SimConfig,
    estimate_fedorov,
    estimate_witness,
    matched_witness,
)
from macrobell.states import (
    BellLabel,
    build_bell_state,
    mean_photons_per_mode,
)
from macrobell.truncation import (
    alpha_from_epsilon,
    cutoff_for_epsilon,
    epsilon_from_cutoff,
    occupancy_at_epsilon,
    subspace_dimension,
    truncated_kbar,
)
from macrobell.witnesses import (
    WitnessKind,
    cross_witness_matrix,
    evaluate_witness,
    witness_term_coeffs,
)

import oracles


def test_criterion_01_effective_mode_number_closed_form():
    # truncated K-bar matches (1 + 2 N0)^2 to 1e-12 relative at three gains
    t0 = time.perf_counter()
    for gamma in (0.2, 0.5, 1.0):
        n_max = cutoff_for_trace_norm(gamma)
        truncated = kbar(gamma, n_max=n_max)
        analytic = (1.0 + 2.0 * mean_photons_per_mode(gamma)) ** 2
        rel = abs(truncated / analytic - 1.0)
        print(f"gamma={gamma}: kbar at cutoff {n_max} {truncated:.12g} vs closed form "
              f"{analytic:.12g} (rel {rel:.2e})")
        assert rel <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"wall time {elapsed:.3f} s")
    assert elapsed < 1.0


def test_criterion_02_negativity_trace_norm():
    # closed-form truncated trace norm at gamma=0.5, cutoff 25, against the
    # dense partial-transpose eigensolve: pair trace norm -> e, four-mode
    # negativity -> e^2 - 1; the pair trace norm is the square root of the
    # four-mode one, the state being two identical pairs
    t0 = time.perf_counter()
    tn_pair = math.sqrt(trace_norm(0.5, n_max=25))
    neg_four = negativity(0.5, n_max=25)
    dense = oracles.pt_trace_norm(np.diag(np.sqrt(oracles.pair_spectrum(0.5, 25))))
    rel_oracle = abs(tn_pair / dense - 1.0)
    print(f"pair trace norm {tn_pair:.15f} vs dense eigensolve {dense:.15f} "
          f"(rel {rel_oracle:.2e})")
    assert rel_oracle <= 1e-12
    rel_tn = abs(tn_pair / math.e - 1.0)
    rel_neg = abs(neg_four / (math.e ** 2 - 1.0) - 1.0)
    print(f"pair trace norm {tn_pair:.10f} vs e (rel {rel_tn:.2e})")
    print(f"four-mode negativity {neg_four:.10f} vs e^2-1 (rel {rel_neg:.2e})")
    assert rel_tn <= 1e-5
    assert rel_neg <= 1e-4
    elapsed = time.perf_counter() - t0
    print(f"wall time {elapsed:.3f} s")
    assert elapsed < 30.0


def test_criterion_03_log_negativity_linearity():
    got = log_negativity(0.5, n_max=40)
    want = 4.0 * 0.5 / math.log(2.0)
    rel = abs(got / want - 1.0)
    print(f"E_N at gamma=0.5 cutoff 40: {got:.12f} vs 4 gamma / ln 2 = "
          f"{want:.12f} (rel {rel:.2e})")
    assert rel <= 1e-4


def test_criterion_04_matched_witness_saturation():
    # every matched witness saturates: variance terms vanish and the value
    # is -2 <S_0> = -8 N0 on the untruncated state; the 4x4 cross table keeps
    # its diagonal strictly negative
    gamma = 0.5
    for label in BellLabel:
        rep = evaluate_witness(matched_witness(label), build_bell_state(label, gamma))
        worst = max(abs(t) for t in rep.variance_terms)
        print(f"{label.value}: max variance term {worst:.2e}, "
              f"value {rep.value:.10f}, -2<S0> {-2 * rep.mean_s0:.10f}")
        assert worst == 0.0
        assert rep.value == -2.0 * rep.mean_s0
        assert rep.value == pytest.approx(-8.0 * mean_photons_per_mode(gamma), rel=1e-15)
        assert rep.value < 0.0
    mat, kinds, labels = cross_witness_matrix(gamma)
    print("cross-witness diagonal:", np.diag(mat))
    assert all(mat[i, i] < 0.0 for i in range(4))


def test_criterion_05_separable_battery_nonnegative():
    # Var(S_1) + Var(S_2) + Var(S_3) - 2 <S_0> with kron-built operators at
    # 13 levels per mode, on product states and separable mixtures, and on
    # the dense lift of psi-minus at the same cutoff
    battery = oracles.product_state_battery(2024)
    assert len(battery) >= 20
    worst_name, worst = None, math.inf
    for name, ensemble in battery:
        gap = oracles.separability_gap(ensemble)
        if gap < worst:
            worst_name, worst = name, gap
    print(f"{len(battery)} separable states; most negative gap "
          f"{worst:.3e} ({worst_name})")
    assert worst >= -1e-9
    psi_minus = oracles.lifted_vector(build_bell_state(BellLabel.PSI_MINUS, 0.5, 12))
    entangled = oracles.separability_gap([(1.0, psi_minus)])
    print(f"entangled reference gap {entangled:.6f}")
    assert entangled < -1.0


def test_criterion_06_local_unitary_structure():
    # conjugating the W_S terms by the pi-phase unitary (-1)^n_bH gives the
    # W_T1 terms exactly on kron-built operators; the wave-plate
    # substitution S_1 -> S_3, S_3 -> -S_1 reverses the sign pattern, which
    # carries W_T1 onto W_T2 (the S_1 term negated, its variance unchanged)
    d = 6
    u = np.where(FourModeBasis(d - 1).occupations()[2] % 2 == 0, 1.0, -1.0)
    pairs = zip(witness_term_coeffs(WitnessKind.W_S), witness_term_coeffs(WitnessKind.W_T1))
    for ws, wt1 in pairs:
        conjugated = u[:, None] * oracles.kron_combination(ws, d).toarray() * u[None, :]
        assert np.array_equal(conjugated, oracles.kron_combination(wt1, d).toarray())
    t1, t2 = WitnessKind.W_T1.signs, WitnessKind.W_T2.signs
    print(f"W_T1 signs {t1}, W_T2 signs {t2}")
    assert t2 == t1[::-1]
    print("conjugation and substitution identities hold with zero residual")


def test_criterion_07_truncation_budget():
    # alpha solver, closed-form dropped mass, K-bar sandwich, occupancy
    # gain-invariance, and the alpha^2 N0^2 / 2 dimension cost
    for target, expect in ((1e-12, 31.1), (1e-2, 6.64), (1e-1, 3.89)):
        a = alpha_from_epsilon(target)
        print(f"alpha({target:g}) = {a:.4f}")
        assert abs(a - expect) < 0.5
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = rng.uniform(0.2, 1.5)
        n = int(rng.integers(1, 60))
        closed = epsilon_from_cutoff(g, n)
        assert closed == pytest.approx(oracles.epsilon_brute_force(g, n), rel=1e-12)
        lo, hi = oracles.kbar_truncation_bounds(g, n)
        assert lo * (1 - 1e-12) <= truncated_kbar(g, n) <= hi * (1 + 1e-12)
    probe = np.geomspace(0.01, 0.9, 9)
    drift = np.max(np.abs(occupancy_at_epsilon(100.0, probe)
                          - occupancy_at_epsilon(10.0, probe))
                   / occupancy_at_epsilon(10.0, probe))
    print(f"occupancy drift N0=10 vs 100: {drift:.2%}")
    assert drift <= 0.01
    for n0 in (20.0, 50.0):
        g = gamma_for_mean_photons(n0)
        for eps in (0.01, 0.1):
            d = subspace_dimension(cutoff_for_epsilon(g, eps))
            ratio = d / (alpha_from_epsilon(eps) ** 2 * n0 * n0 / 2.0)
            print(f"N0={n0:g} eps={eps:g}: dim ratio {ratio:.4f}")
            assert 0.8 < ratio < 1.2


def test_criterion_08_evolution_reaches_bell_state():
    t0 = time.perf_counter()
    evolved = oracles.evolve_from_vacuum(BellLabel.PSI_MINUS, 0.3, 30)
    target = build_bell_state(BellLabel.PSI_MINUS, 0.3, 30)
    fid = oracles.vector_fidelity(evolved, oracles.lifted_vector(target))
    elapsed = time.perf_counter() - t0
    print(f"fidelity {fid:.12f} (deficit {1 - fid:.2e}), wall {elapsed:.2f} s")
    assert fid >= 1.0 - 1e-8
    assert elapsed < 10.0


def test_criterion_09_ideal_simulation_statistics():
    # 1e5 ideal pulses on psi-plus: variance terms exactly zero, sampled
    # value within 3 sigma of the exact evaluation, photon marginal
    # passes a chi-square test
    t0 = time.perf_counter()
    cfg = SimConfig(label="psi-plus", gamma=1.0, pulses=100_000, seed=42)
    rep = estimate_witness(cfg)
    assert rep.variance_terms == (0.0, 0.0, 0.0)
    exact = evaluate_witness(WitnessKind.W_T1, build_bell_state(BellLabel.PSI_PLUS, 1.0))
    z = abs(rep.value - exact.value) / rep.value_error
    print(f"sampled {rep.value:.6f} +- {rep.value_error:.6f}, "
          f"exact {exact.value:.6f}, z = {z:.2f}")
    assert z <= 3.0

    counts = oracles._sample_series_counts(cfg, "cross", series=0, run=0)
    q = math.tanh(1.0) ** 2
    kmax = 0
    while cfg.pulses * q ** (kmax + 2) >= 5.0:
        kmax += 1
    probs = np.append((1.0 - q) * q ** np.arange(kmax), q ** kmax)
    observed = np.bincount(np.minimum(counts[:, 0], kmax), minlength=kmax + 1)
    p_value = stats.chisquare(observed, cfg.pulses * probs).pvalue
    print(f"photon-number chi-square p = {p_value:.4f} ({kmax + 1} bins)")
    assert p_value > 0.01
    elapsed = time.perf_counter() - t0
    print(f"wall time {elapsed:.2f} s")
    assert elapsed < 30.0


def test_criterion_10_loss_model_variances():
    # thinning noise: each matched variance term estimates 4 eta(1-eta) N0;
    # an independent binomial-convolution oracle confirms the formula
    eta = 0.9
    cfg = SimConfig(label="psi-minus", gamma=0.7, eta=eta, pulses=100_000, seed=1)
    rep = estimate_witness(cfg)
    expected = 4.0 * eta * (1.0 - eta) * mean_photons_per_mode(0.7)
    for term, sigma in zip(rep.variance_terms, rep.variance_errors):
        z = abs(term - expected) / sigma
        print(f"variance term {term:.6f} vs {expected:.6f} (z = {z:.2f})")
        assert z <= 3.0

    gamma_o, n_cut = 0.3, 12
    q = math.tanh(gamma_o) ** 2
    lam = (1.0 - q) * q ** np.arange(n_cut + 1)
    offset = 2 * n_cut
    acc = np.zeros(4 * n_cut + 1)
    for n in range(n_cut + 1):
        bn = stats.binom.pmf(np.arange(n + 1), n, eta)
        for m in range(n_cut + 1):
            bm = stats.binom.pmf(np.arange(m + 1), m, eta)
            plus = np.convolve(bn, bm)          # x_a + x_b given (n, m)
            r_pmf = np.convolve(plus, plus[::-1])  # (x_a+x_b) - (y_a+y_b)
            lo = offset - (n + m)
            acc[lo:lo + r_pmf.size] += lam[n] * lam[m] * r_pmf
    acc /= acc.sum()
    r = np.arange(-offset, offset + 1, dtype=np.float64)
    mean = float(r @ acc)
    var = float(r * r @ acc) - mean * mean
    brute_expected = 4.0 * eta * (1.0 - eta) * mean_photons_per_mode(gamma_o)
    rel = abs(var / brute_expected - 1.0)
    print(f"convolution oracle: var {var:.12f} vs {brute_expected:.12f} "
          f"(rel {rel:.2e}), mean {mean:.2e}")
    assert abs(mean) < 1e-15
    assert rel <= 1e-10


def test_criterion_11_width_ratio():
    # truncated width ratio tracks 2 N0^2, and a large simulated run
    # reproduces the per-pair analytic ratio within 5%
    for n0 in (5.0, 10.0, 50.0):
        g = gamma_for_mean_photons(n0)
        ratio = fedorov_ratio(g, n_max=cutoff_for_trace_norm(g))
        norm = ratio / (2.0 * n0 * n0)
        print(f"N0={n0:g}: four-mode width ratio / 2 N0^2 = {norm:.4f}")
        assert 0.95 <= norm <= 1.05
    est = estimate_fedorov(SimConfig(label="psi-minus", gamma=1.5, pulses=1_000_000, seed=5),
                           bin_width=1)
    exact_pair = math.sqrt(fedorov_ratio(1.5))
    print(f"simulated pair ratios {est.ratio_h:.4f} / {est.ratio_v:.4f} "
          f"vs exact {exact_pair:.4f}")
    assert est.ratio_h == pytest.approx(exact_pair, rel=0.05)
    assert est.ratio_v == pytest.approx(exact_pair, rel=0.05)


def test_criterion_12_reproducible_cli_runs(tmp_path, monkeypatch):
    # a manifest rerun and any worker count reproduce a simulated run
    # byte for byte (16385 pulses span five RNG blocks); --workers may not
    # exceed the CPU count, so report enough CPUs for the 8-worker rerun
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    argv = ["witness", "--state", "psi-minus", "--gamma", "0.8", "--simulate",
            "--eta", "0.85", "--pulses", "16385", "--seed", "9",
            "--pulse-log", "pulses.ndjson", "--workers", "1", "--out", "run.csv"]
    assert cli.main(argv) == 0
    csv_bytes = Path("run.csv").read_bytes()
    log_bytes = Path("pulses.ndjson").read_bytes()
    print(f"reference run: {len(csv_bytes)} CSV bytes, {len(log_bytes)} log bytes")

    assert cli.run_from_manifest("run.csv.manifest.json") == 0
    assert Path("run.csv").read_bytes() == csv_bytes
    assert Path("pulses.ndjson").read_bytes() == log_bytes
    print("manifest rerun: byte-identical")

    for workers in (4, 8):
        out = f"run_w{workers}.csv"
        log = f"pulses_w{workers}.ndjson"
        rerun = list(argv)
        rerun[rerun.index("--workers") + 1] = str(workers)
        rerun[rerun.index("--out") + 1] = out
        rerun[rerun.index("--pulse-log") + 1] = log
        assert cli.main(rerun) == 0
        assert Path(out).read_bytes() == csv_bytes
        assert Path(log).read_bytes() == log_bytes
        print(f"workers={workers}: byte-identical")
