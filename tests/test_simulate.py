import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from macrobell.basis import FourModeBasis
from macrobell.measures import fedorov_ratio
from macrobell.simulate import (
    BLOCK_PULSES,
    CANONICAL_SETTINGS,
    LOG_CHUNK_PULSES,
    FedorovEstimate,
    SimConfig,
    _PartnerBins,
    _SeriesSums,
    count_pairing,
    efficiency_sweep,
    estimate_fedorov,
    estimate_witness,
    matched_witness,
    witness_under_loss,
)
from macrobell.states import (BellLabel, NumericError, build_bell_state, mean_photons_per_mode,
                              schmidt_spectrum)
from macrobell.witnesses import WitnessKind
from oracles import (
    MeasurementSetting,
    _conditional_width,
    _jackknife_series,
    _sample_series_counts,
    analyzer_distribution,
    analyzer_jones,
    conditional_width_exact,
    jackknife_exact,
    pairing_distribution,
    pulse_log_bytes,
    recomputed_value,
    sample_analyzer_counts,
    sample_pulse,
    witness_reference,
)


def _streamed_series(readout: np.ndarray, totals: np.ndarray) -> tuple:
    """The library's per-series statistics, fed one block at a time."""
    sums = _SeriesSums()
    for lo in range(0, readout.size, BLOCK_PULSES):
        sums.add(readout[lo:lo + BLOCK_PULSES], totals[lo:lo + BLOCK_PULSES])
    return sums.statistics()


def _streamed_width(values: np.ndarray, partners: np.ndarray, bin_width: int) -> float:
    """The library's conditional width, fed one block at a time."""
    bins = _PartnerBins(bin_width)
    for lo in range(0, values.size, BLOCK_PULSES):
        bins.add(values[lo:lo + BLOCK_PULSES], partners[lo:lo + BLOCK_PULSES])
    return bins.conditional_width()


# -- configuration and settings -------------------------------------------------------


def test_sim_config_validation():
    cfg = SimConfig(label="psi-minus", gamma=0.5)
    assert cfg.label is BellLabel.PSI_MINUS
    assert cfg.eta == 1.0 and cfg.pulses == 100_000
    for bad in ({"eta": 0.0}, {"eta": 1.2}, {"pulses": 0}):
        with pytest.raises(ValueError):
            SimConfig(label="psi-minus", gamma=0.5, **bad)
    with pytest.raises(ValueError, match="bin width"):
        estimate_fedorov(cfg, bin_width=0)
    for bad_gamma in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="gain must be finite and nonnegative"):
            SimConfig(label="psi-minus", gamma=bad_gamma)
    # past gamma ~ 19.06 the geometric law has no representable ratio below 1
    assert SimConfig(label="psi-minus", gamma=19.0).gamma == 19.0
    for big in (19.1, 25.0):
        with pytest.raises(NumericError, match=f"rounds to 1 at gamma={big}"):
            SimConfig(label="psi-minus", gamma=big)


def test_measurement_setting_components():
    assert MeasurementSetting(0.0, 0.0).component == 1
    assert MeasurementSetting(22.5, 45.0).component == 2
    assert MeasurementSetting(0.0, 45.0).component == 3
    assert MeasurementSetting(10.0, 0.0).component is None
    for comp, (h, q) in CANONICAL_SETTINGS.items():
        j = analyzer_jones(MeasurementSetting(h, q))
        assert np.allclose(j @ j.conj().T, np.eye(2), atol=1e-14)


def test_pairing_table_shape():
    for label in BellLabel:
        pairings = [count_pairing(label, comp) for comp in CANONICAL_SETTINGS]
        assert set(pairings) <= {"cross", "parallel"}
        # the H/V analyzer (S_1) sees the state's own ket pairing
        assert pairings[0] == label.pairing


# -- single pulses ---------------------------------------------------------------------


def test_sample_pulse_cross_correlations():
    rng = np.random.default_rng(12)
    setting = MeasurementSetting(0.0, 0.0)
    for _ in range(50):
        rec = sample_pulse(BellLabel.PSI_MINUS, 1.0, setting, 1.0, rng)
        x_a, y_a, x_b, y_b = rec.counts
        assert (x_a, y_a) == (y_b, x_b)
        assert rec.readout_a + rec.readout_b == 0
        assert rec.total == 2 * (x_a + y_a)


def test_sample_pulse_parallel_correlations():
    rng = np.random.default_rng(13)
    setting = MeasurementSetting(0.0, 0.0)  # phi-plus pairs S_1 in parallel
    for _ in range(50):
        rec = sample_pulse("phi-plus", 1.0, setting, 1.0, rng)
        x_a, y_a, x_b, y_b = rec.counts
        assert (x_a, y_a) == (x_b, y_b)
        assert rec.readout_a == rec.readout_b


def test_sample_pulse_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_pulse(BellLabel.PSI_MINUS, 0.5, MeasurementSetting(10.0, 0.0), 1.0, rng)
    with pytest.raises(ValueError):
        sample_pulse(BellLabel.PSI_MINUS, 0.5, MeasurementSetting(0.0, 0.0), 0.0, rng)
    with pytest.raises(ValueError):
        sample_pulse(BellLabel.PSI_MINUS, 0.5, MeasurementSetting(0.0, 0.0), 1.5, rng)


# -- witness estimation ------------------------------------------------------------


def test_matched_witness_map():
    assert matched_witness(BellLabel.PSI_MINUS) is WitnessKind.W_S
    assert matched_witness(BellLabel.PSI_PLUS) is WitnessKind.W_T1
    assert matched_witness(BellLabel.PHI_PLUS) is WitnessKind.W_T2
    assert matched_witness(BellLabel.PHI_MINUS) is WitnessKind.W_T3


def test_matched_run_has_exactly_zero_variance_terms():
    # perfect pairing at unit efficiency cancels every readout pulse by pulse
    cfg = SimConfig(label="psi-minus", gamma=1.0, pulses=20_000, seed=5)
    rep = estimate_witness(cfg)
    assert rep.kind is WitnessKind.W_S
    assert rep.variance_terms == (0.0, 0.0, 0.0)
    assert rep.value < 0.0
    assert rep.value == pytest.approx(recomputed_value(rep), rel=1e-12)
    assert rep.meta["source"] == "simulation"
    assert rep.meta["label"] == "psi-minus"


def test_vacuum_run_is_degenerate():
    cfg = SimConfig(label="psi-minus", gamma=0.0, pulses=100, seed=3)
    rep = estimate_witness(cfg)
    assert rep.value == 0.0
    assert rep.value_error == 0.0
    assert rep.meta["degenerate_series"] == [1, 2, 3]


def test_determinism_same_seed_and_worker_count_invariance():
    base = dict(label="psi-plus", gamma=0.8, eta=0.7, pulses=10_000, seed=21)
    a = estimate_witness(SimConfig(**base))
    b = estimate_witness(SimConfig(**base))
    assert a.value == b.value and a.variance_terms == b.variance_terms
    assert a.value_error == b.value_error


def test_jackknife_matches_explicit_delete_one():
    rng = np.random.default_rng(17)
    x = rng.integers(-5, 6, 200)
    t = rng.integers(0, 20, 200)
    var, mean, theta, s_theta, s_var = _streamed_series(x, t)
    assert var == pytest.approx(np.var(x, ddof=1), rel=1e-12)
    assert mean == pytest.approx(t.mean(), rel=1e-12)
    assert theta == pytest.approx(var - (2.0 / 3.0) * mean, rel=1e-12)
    n = x.size
    theta_del = np.array([
        np.var(np.delete(x, i), ddof=1) - (2.0 / 3.0) * np.mean(np.delete(t, i))
        for i in range(n)
    ])
    var_del = np.array([np.var(np.delete(x, i), ddof=1) for i in range(n)])
    want_s_theta = math.sqrt((n - 1) / n * np.sum((theta_del - theta_del.mean()) ** 2))
    want_s_var = math.sqrt((n - 1) / n * np.sum((var_del - var_del.mean()) ** 2))
    assert s_theta == pytest.approx(want_s_theta, rel=1e-10)
    assert s_var == pytest.approx(want_s_var, rel=1e-10)


def test_jackknife_tiny_series():
    var, mean, theta, s_theta, s_var = _streamed_series(np.array([1, 2]), np.array([3, 4]))
    assert math.isinf(s_theta) and math.isinf(s_var)


# sha256 of the (pulses, 4) counts of series 1 at gamma 2.5, seed 5 and
# 2 * BLOCK_PULSES + 1 pulses, as the row-per-pulse sampler drew them
PINNED_COUNTS = {
    ("cross", 1.0, 0): "ac2a3bd1cdd6e0ed88e9c9eeafb8c28eb52b32a8df3e99a912c16aace6f5bb23",
    ("cross", 1.0, 1): "206bece02b57540f6bd31b8bcdf988ebf9440cdd646970b7c6d8eb9faf0568f1",
    ("cross", 0.85, 0): "9bb3fd7b5eb4276dd825a27e12c2f80329c061d85f7c76155fa5df9614d58a8e",
    ("cross", 0.85, 1): "dee474c1ed06ce2c69d2e39c1efe7b4dfd71f20b0d39615148f10b70cd94de96",
    ("parallel", 1.0, 0): "840e3cb40529f79d0e92074bcbdd20d62c8f663770e83db994a064c94ceeb58e",
    ("parallel", 1.0, 1): "d4c65f9a17f3eb35b1d88b6c63f70b0d9571e9b03a55ab54571e385c0264bb1c",
    ("parallel", 0.85, 0): "8b706875afd73883722f850a56753b392cae11bceee4b605b060ca80beeefc33",
    ("parallel", 0.85, 1): "07d1d6c59a7a2eade39d8b58da132da62f1c2ff678ec574d5ac5fb31b14ea3e9",
}


@pytest.mark.parametrize("pairing, eta, run", sorted(PINNED_COUNTS))
def test_sampled_stream_is_pinned(pairing, eta, run):
    # any change to the draws, their order or the stream keying moves these
    cfg = SimConfig(label="phi-minus", gamma=2.5, eta=eta, pulses=2 * BLOCK_PULSES + 1, seed=5)
    counts = _sample_series_counts(cfg, pairing, series=1, run=run)
    assert counts.shape == (cfg.pulses, 4) and counts.dtype == np.int64
    digest = hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest()
    assert digest == PINNED_COUNTS[pairing, eta, run]


def test_estimates_are_pinned():
    # values are pinned to the digit; the jackknife errors and the width
    # ratio to 1e-12, the rounding of the leave-one-out and sort routes
    # that first printed them
    base = dict(label="phi-minus", gamma=2.5, pulses=2 * BLOCK_PULSES + 1, seed=5)
    matched = estimate_witness(SimConfig(eta=1.0, **base), run=1)
    assert repr(matched.value) == "-291.1358476748444"
    assert matched.value_error == pytest.approx(float("1.3323331057311578"), rel=1e-12)
    crossed = estimate_witness(SimConfig(eta=0.85, **base), kind=WitnessKind.W_S, run=1)
    assert repr(crossed.value) == "15830.873227981472"
    assert crossed.value_error == pytest.approx(float("281.8143243517508"), rel=1e-12)
    for eta, ratio in ((1.0, "2683.896316034523"), (0.85, "278.15878781804196")):
        est = estimate_fedorov(SimConfig(eta=eta, **base), bin_width=1, run=1)
        assert est.ratio == pytest.approx(float(ratio), rel=1e-12)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("pulses", [3, 4096, 100_001])
def test_jackknife_matches_reference_exactly(pulses, sign):
    cfg = SimConfig(label="psi-plus", gamma=1.5, eta=0.85, pulses=pulses, seed=8)
    xa, ya, xb, yb = _sample_series_counts(cfg, "parallel", series=0, run=0).T
    readout = (xa - ya) + sign * (xb - yb)
    totals = xa + ya + xb + yb
    kept = readout.copy(), totals.copy()
    got, want = _streamed_series(readout, totals), _jackknife_series(readout, totals)
    assert got[:3] == want[:3]  # var, mean and theta from the same exact sums
    assert got[3:] == pytest.approx(want[3:], rel=1e-12)
    # the streamed route reads the caller's arrays, never writes them
    assert np.array_equal(readout, kept[0]) and np.array_equal(totals, kept[1])


@pytest.mark.parametrize("sign", [1, -1])
def test_streamed_sigmas_beat_leave_one_out(sign):
    # the leave-one-out route subtracts one pulse from sums over all of them,
    # so its rounding grows with the pulse count; central sums do not.  The
    # bound on the streamed route is at least ten times below what the
    # leave-one-out route misses the exact errors by
    bound = 1e-15
    cfg = SimConfig(label="psi-plus", gamma=1.5, eta=0.85, pulses=20_001, seed=8)
    xa, ya, xb, yb = _sample_series_counts(cfg, "parallel", series=0, run=0).T
    readout, totals = (xa - ya) + sign * (xb - yb), xa + ya + xb + yb
    exact = jackknife_exact(readout, totals)
    new = _streamed_series(readout, totals)[3:]
    old = _jackknife_series(readout, totals)[3:]
    for got, was, want in zip(new, old, exact):
        assert abs(Fraction(got) - want) <= bound * want
        assert abs(Fraction(was) - want) >= 10 * bound * want


def test_streamed_width_beats_sort_route():
    # each bin's variance is exact and the weighted sum is rounded once, so
    # the width is within half an ulp; the sort route accumulates float
    # roundings over the 667 used partner bins of this run and misses by 34
    # half-ulps (by 4 to 39 over the few runs tried)
    cfg = SimConfig(label="psi-minus", gamma=3.0, eta=0.9, pulses=200_000, seed=4)
    xa, _, _, yb = _sample_series_counts(cfg, "cross", series=0, run=0).T
    exact = conditional_width_exact(xa, yb, 1)[0]
    new, old = _streamed_width(xa, yb, 1), _conditional_width(xa, yb, 1)
    bound = math.ulp(new) / 2
    assert abs(Fraction(new) - exact) <= bound
    assert abs(Fraction(old) - exact) >= 10 * bound


def test_streamed_sums_stay_exact_past_int64():
    # counts of 2**36 and more square past int64 within one block: the
    # series sums and the partner-bin sums go on in Python ints
    rng = np.random.default_rng(5)
    totals = rng.integers(2**36, 2**37, 1000)
    readout = totals - 2 * rng.integers(0, 2**36, 1000)
    sums = _SeriesSums()
    sums.add(readout, totals)
    xs = readout.tolist()
    assert (sums.s1, sums.s2, sums.t1) == (sum(xs), sum(v * v for v in xs), sum(totals.tolist()))
    for got, want in zip(sums.statistics()[3:], jackknife_exact(readout, totals)):
        assert abs(Fraction(got) - want) <= 1e-15 * want
    values, partners = rng.integers(2**32, 2**33, 5000), rng.integers(0, 50, 5000)
    width, exact = _streamed_width(values, partners, 1), conditional_width_exact(values, partners, 1)
    assert abs(Fraction(width) - exact[0]) <= math.ulp(width) / 2


@pytest.mark.parametrize("bin_width, scale", [(1, 1), (200, 1), (1, 2**17)])
def test_conditional_width_matches_int64_sort(caplog, bin_width, scale):
    # scale 2**17 spreads the partners over a span of at least 2**16 bins:
    # past the 16-bit keys of the sort route, and a long partner-bin table
    cfg = SimConfig(label="psi-minus", gamma=2.0, eta=0.85, pulses=50_000, seed=4)
    xa, _, _, yb = _sample_series_counts(cfg, "cross", series=0, run=0).T
    partners = yb * scale + xa % scale
    assert int(partners.max() - partners.min()) // bin_width >= (2**16 if scale > 1 else 0)
    _, empty, singles = conditional_width_exact(xa, partners, bin_width)
    with caplog.at_level("WARNING", logger="macrobell.simulate"):
        width = _streamed_width(xa, partners, bin_width)
    assert width == pytest.approx(_conditional_width(xa, partners, bin_width), rel=1e-12)
    if empty or singles:
        assert f"{empty} empty and {singles} singleton" in caplog.text
    else:
        assert "conditional histograms" not in caplog.text


@pytest.mark.parametrize("pulses", [3, BLOCK_PULSES, 2 * BLOCK_PULSES + 1, 100_001])
@pytest.mark.parametrize("eta", [1.0, 0.85])
@pytest.mark.parametrize("label, kind", [("psi-minus", None), ("psi-minus", WitnessKind.W_T1),
                                         ("phi-plus", None), ("phi-plus", WitnessKind.W_T1)])
def test_streamed_witness_matches_count_table(label, kind, eta, pulses):
    # psi-minus pairs every series crossed, phi-plus mixes both pairings; W_T1
    # mismatches both states, so readouts take both signs
    # the errors go to the exact reference (1.7e-15 off at most here): the
    # leave-one-out route misses it by up to 1.4e-12 at 100,001 pulses
    cfg = SimConfig(label=label, gamma=1.5, eta=eta, pulses=pulses, seed=9)
    rep = estimate_witness(cfg, kind=kind, run=1)
    value, value_error, terms, errors, mean_s0 = witness_reference(cfg, kind, run=1)
    assert (rep.value, rep.variance_terms, rep.mean_s0) == (value, terms, mean_s0)
    assert (rep.value_error, *rep.variance_errors) == pytest.approx(
        (value_error, *errors), rel=1e-14)


def _peak_growth(estimate, cfg) -> int:
    """Traced peak bytes at ten times ``cfg.pulses`` less the peak at ``cfg.pulses``."""
    estimate(replace(cfg, pulses=10))  # first-call imports stay out of the peak
    peaks = []
    for pulses in (cfg.pulses, 10 * cfg.pulses):
        tracemalloc.start()
        try:
            estimate(replace(cfg, pulses=pulses))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[1] - peaks[0]


def test_estimate_witness_memory_per_pulse():
    # blocks are reduced to sums as drawn, so 2M pulses peak as 200k do
    cfg = SimConfig(label="psi-minus", gamma=0.5, eta=0.85, pulses=200_000, seed=3)
    assert abs(_peak_growth(estimate_witness, cfg)) <= 2**20


def test_estimate_fedorov_memory_per_pulse():
    # only the partner-bin sums grow, with the largest partner count
    cfg = SimConfig(label="psi-minus", gamma=1.5, eta=0.85, pulses=200_000, seed=3)
    assert abs(_peak_growth(estimate_fedorov, cfg)) <= 2**20


def test_sampled_marginal_photon_law():
    # chi-square of the sampled n marginal against (1-q) q^n, tail-lumped
    # so every bin keeps an expected count of at least five
    cfg = SimConfig(label="psi-plus", gamma=1.0, pulses=100_000, seed=42)
    counts = _sample_series_counts(cfg, "cross", series=0, run=0)
    n_samples = counts[:, 0]
    q = math.tanh(1.0) ** 2
    kmax = 0
    while cfg.pulses * q ** (kmax + 2) >= 5.0:
        kmax += 1
    probs = (1.0 - q) * q ** np.arange(kmax)
    probs = np.append(probs, q ** kmax)  # lumped tail
    observed = np.bincount(np.minimum(n_samples, kmax), minlength=kmax + 1)
    result = stats.chisquare(observed, cfg.pulses * probs)
    assert result.pvalue > 0.01


def test_empirical_joint_law_converges():
    # total-variation distance to the exact joint law shrinks with pulses
    lam = schmidt_spectrum(0.8, 60)
    exact = np.outer(lam, lam) / lam.sum() ** 2

    def tv(pulses):
        cfg = SimConfig(label="psi-minus", gamma=0.8, pulses=pulses, seed=9)
        counts = _sample_series_counts(cfg, "cross", series=0, run=0)
        emp = {}
        for n, m in zip(counts[:, 0], counts[:, 1]):
            emp[(n, m)] = emp.get((n, m), 0) + 1.0 / pulses
        dist = 0.0
        for n in range(61):
            for m in range(61):
                dist += abs(emp.pop((n, m), 0.0) - exact[n, m])
        dist += sum(emp.values())  # samples beyond the exact table, if any
        return 0.5 * dist

    tv_small, tv_big = tv(10_000), tv(1_000_000)
    assert tv_big < tv_small / 3.0
    # expected TV ~ 0.5 sqrt(2/(pi N)) sum sqrt(p_nm) ~ 2e-3 at 1e6 pulses
    assert tv_big < 3e-3


def test_sim_agrees_with_loss_formula():
    cfg = SimConfig(label="psi-minus", gamma=0.7, eta=0.8, pulses=50_000, seed=2)
    rep = estimate_witness(cfg)
    exact = witness_under_loss(0.7, 0.8)
    assert abs(rep.value - exact) <= 5.0 * rep.value_error
    assert rep.value_error > 0.0


def test_witness_under_loss_formula():
    n0 = mean_photons_per_mode(0.9)
    assert witness_under_loss(0.9, 1.0) == pytest.approx(-8.0 * n0, rel=1e-14)
    assert witness_under_loss(0.9, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert witness_under_loss(0.9, 0.2) > 0.0  # certification lost below 1/3


def test_pulse_log_format(tmp_path):
    cfg = SimConfig(label="psi-plus", gamma=0.5, pulses=50, seed=7)
    path = tmp_path / "pulses.ndjson"
    estimate_witness(cfg, pulse_log=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3 * cfg.pulses
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["pulse_id"] == i
        series = i // cfg.pulses
        comp = rec["setting"]["component"]
        assert comp == series + 1
        h, qw = CANONICAL_SETTINGS[comp]
        assert rec["setting"]["hwp_deg"] == h
        assert rec["setting"]["qwp_deg"] == qw
        assert len(rec["counts"]) == 4
        assert all(isinstance(c, int) and c >= 0 for c in rec["counts"])


@pytest.mark.parametrize("run", [1, 2])
@pytest.mark.parametrize("pulses", [1, 3, LOG_CHUNK_PULSES - 1, LOG_CHUNK_PULSES,
                                    LOG_CHUNK_PULSES + 1, BLOCK_PULSES + 1,
                                    2 * BLOCK_PULSES + 1])
def test_pulse_log_matches_per_pulse_reference(tmp_path, pulses, run):
    # gamma=2.5 (N0 ~ 37) gives multi-digit counts; the pulse counts straddle
    # the log chunk and, at 4097 and 8193, the RNG blocks the log is written
    # in; each run index keys its own Philox streams
    cfg = SimConfig(label="phi-minus", gamma=2.5, eta=0.85, pulses=pulses, seed=5)
    path = tmp_path / "pulses.ndjson"
    estimate_witness(cfg, kind=WitnessKind.W_S, run=run, pulse_log=str(path))
    expected = pulse_log_bytes(cfg, run=run)
    assert path.read_bytes() == expected
    if pulses > 1000:
        assert max(max(json.loads(line)["counts"]) for line in expected.splitlines()) >= 100


# -- exact distributions and the generic analyzer route ------------------------------


def test_pairing_distribution_support():
    support, probs = pairing_distribution(BellLabel.PSI_MINUS, 1, 0.5, 8)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(support[:, 0] == support[:, 3])  # x_a = y_b
    assert np.all(support[:, 1] == support[:, 2])  # y_a = x_b
    support_p, _ = pairing_distribution(BellLabel.PHI_PLUS, 1, 0.5, 8)
    assert np.all(support_p[:, 0] == support_p[:, 2])
    assert np.all(support_p[:, 1] == support_p[:, 3])


def test_analyzer_route_reproduces_pairing_law():
    # the wave-plate transform route must agree with the closed-form table
    # for every state and every canonical setting
    gamma, n_max = 0.25, 10
    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        for comp in (1, 2, 3):
            support, probs = pairing_distribution(label, comp, gamma, n_max)
            table = {tuple(row): p for row, p in zip(support, probs)}
            occ, aprobs = analyzer_distribution(state, MeasurementSetting(*CANONICAL_SETTINGS[comp]))
            tv = 0.0
            for row, p in zip(occ, aprobs):
                tv += abs(p - table.pop(tuple(row), 0.0))
            tv += sum(table.values())
            assert 0.5 * tv <= 1e-10, (label, comp)


def test_sample_analyzer_counts_identities_and_thinning():
    state = build_bell_state(BellLabel.PSI_MINUS, 0.25, 10)
    setting = MeasurementSetting(0.0, 0.0)
    counts = sample_analyzer_counts(state, setting, 200, np.random.default_rng(3))
    assert np.all(counts[:, 0] == counts[:, 3])
    assert np.all(counts[:, 1] == counts[:, 2])
    full = sample_analyzer_counts(state, setting, 5000, np.random.default_rng(4))
    thin = sample_analyzer_counts(state, setting, 5000, np.random.default_rng(4), eta=0.5)
    assert np.all(thin >= 0)
    assert thin.sum() < full.sum()


# -- photon-number correlation estimate ------------------------------------------


def test_estimate_fedorov_matches_analytic():
    cfg = SimConfig(label="psi-minus", gamma=1.2, pulses=100_000, seed=6)
    est = estimate_fedorov(cfg, bin_width=1)
    assert isinstance(est, FedorovEstimate)
    exact_pair = fedorov_ratio(1.2, four_mode=False)
    assert est.ratio_h == pytest.approx(exact_pair, rel=0.03)
    assert est.ratio_v == pytest.approx(exact_pair, rel=0.03)
    assert est.conditional_width_h == 1.0  # perfect correlation, floored
    assert est.conditional_width_v == 1.0
    assert est.ratio == est.ratio_h * est.ratio_v
    assert est.convention == "sqrt2-stddev"
    assert est.meta["bin_width"] == 1 and est.meta["seed"] == 6


@pytest.mark.parametrize("seed", range(5))
def test_default_config_estimates_the_width_ratio(seed):
    # the library default bins partner counts one by one, as the fedorov
    # command does: a default-configured estimate lands within 5% of the
    # exact ratio (at the old default of 200 it read 0.04 of it)
    est = estimate_fedorov(SimConfig(BellLabel.PSI_MINUS, 1.5, pulses=20_000, seed=seed))
    assert est.meta["bin_width"] == 1
    assert est.ratio == pytest.approx(fedorov_ratio(1.5), rel=0.05)


def test_estimate_fedorov_coarse_bins_degrade_ratio():
    cfg = SimConfig(label="psi-minus", gamma=1.2, pulses=50_000, seed=6)
    fine = estimate_fedorov(cfg, bin_width=1)
    coarse = estimate_fedorov(cfg, bin_width=200)
    assert coarse.conditional_width_h > 1.0
    assert coarse.ratio < fine.ratio


# -- efficiency sweep -----------------------------------------------------------------


def test_efficiency_sweep_threshold_and_crossing():
    cfg = SimConfig(label="psi-minus", gamma=0.8, pulses=30_000, seed=11)
    grid = np.linspace(0.15, 0.95, 9)
    res = efficiency_sweep(cfg, grid)
    assert [p.eta for p in res.points] == [pytest.approx(e) for e in grid]
    for p in res.points:
        assert p.exact == witness_under_loss(0.8, p.eta)
        assert p.certifies == (p.value + 3.0 * p.sigma < 0.0)
    assert res.certification_threshold == pytest.approx(0.35)
    assert res.zero_crossing == pytest.approx(1.0 / 3.0, abs=0.03)


def test_efficiency_sweep_grid_validation():
    cfg = SimConfig(label="psi-minus", gamma=0.8, pulses=100, seed=0)
    with pytest.raises(ValueError):
        efficiency_sweep(cfg, [0.5, 1.2])
    with pytest.raises(ValueError):
        efficiency_sweep(cfg, [0.0, 0.5])
