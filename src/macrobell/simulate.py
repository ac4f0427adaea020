"""Monte-Carlo photocounting experiment on the four-mode Bell states.

A virtual run measures one Stokes component per series (three series
per witness estimate).  For the canonical analyzer settings the exact
joint photocount distribution of a Bell state is known in closed form:
the pair occupation (n, m) is drawn with probability
``lambda_n lambda_m`` and the two beams' analyzer-basis counts are
either crossed, (x_a, y_a; x_b, y_b) = (n, m; m, n), or parallel,
(n, m; n, m) (:func:`~macrobell.states.paired_modes`).  Crossed counts
make x - y sum to zero across the beams, parallel ones make it cancel
under subtraction, so the pairing of component i is read off the
matched witness's sign pattern: crossed exactly where ``s_i = +1``
(:func:`count_pairing`).  Detection loss is binomial thinning, applied
per mode.

Reproducibility: pulses are generated in fixed blocks of
``BLOCK_PULSES``; each block owns a counter-addressed Philox stream
keyed by (seed; block, series, run), so the blocks fix the RNG stream
and a seed gives the same bytes on every run.  Each block is reduced as
it is drawn: a witness series holds only its per-pulse readouts and
totals (and writes its pulse log block by block), never a count table;
the width-ratio estimate keeps one contiguous row per detector.  At
eta = 1 no thinning variates are drawn (they would come last in a
block's own stream, so skipping them moves no count).  The stream and
every output byte are the same as when counts were stored one row per
pulse.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
# numpy imports numpy.random on first use; importing it here keeps that cost in start-up
from numpy.random import Generator, Philox, SeedSequence

from .states import BellLabel, check_memory, geometric_ratio, mean_photons_per_mode, paired_modes
from .witnesses import WitnessKind, WitnessReport, matched_witness

log = logging.getLogger(__name__)

#: pulses per RNG block; each block draws from its own Philox stream, which fixes
#: the RNG stream of a run
BLOCK_PULSES = 4096

#: pulses formatted per write of the NDJSON pulse log (bounds its buffers)
LOG_CHUNK_PULSES = 1024

#: analyzer plate angles (hwp_deg, qwp_deg) realizing each Stokes component
CANONICAL_SETTINGS = {1: (0.0, 0.0), 2: (22.5, 45.0), 3: (0.0, 45.0)}


def count_pairing(label: BellLabel, component: int) -> str:
    """'cross' or 'parallel' pairing of the counts of Stokes component 1..3."""
    return "cross" if matched_witness(label).signs[component - 1] > 0 else "parallel"


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer wave-plate angles, applied identically to both beams."""

    hwp_deg: float
    qwp_deg: float

    @property
    def component(self) -> int | None:
        """Stokes component this setting realizes, if canonical."""
        for comp, (h, q) in CANONICAL_SETTINGS.items():
            if abs(self.hwp_deg - h) < 1e-12 and abs(self.qwp_deg - q) < 1e-12:
                return comp
        return None


@dataclass
class SimConfig:
    label: BellLabel
    gamma: float
    eta: float = 1.0
    pulses: int = 100_000
    seed: int = 0
    bin_width: int = 200  # partner-count bin width for conditional histograms

    def __post_init__(self):
        if isinstance(self.label, str):
            self.label = BellLabel(self.label)
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.pulses < 1:
            raise ValueError("need at least 1 pulse")
        if self.bin_width < 1:
            raise ValueError("bin width must be >= 1")


# -- block sampling ------------------------------------------------------------


def _count_blocks(config: SimConfig, pairing: str, series: int, run: int):
    """Detected counts of one series, one ``BLOCK_PULSES`` block at a time.

    Yields ``(lo, (x_a, y_a, x_b, y_b))`` with the block's first pulse
    index and one int64 array per detector.  At eta = 1 the rows alias
    the two geometric draws, so they are read, never written.
    """
    p_geom = 1.0 - geometric_ratio(config.gamma)
    key = SeedSequence(config.seed).generate_state(2, dtype=np.uint64)
    for lo in range(0, config.pulses, BLOCK_PULSES):
        # counter-addressed stream: one Philox per (seed; block, series, run)
        counter = np.array([0, lo // BLOCK_PULSES, series, run], dtype=np.uint64)
        rng = Generator(Philox(counter=counter, key=key))
        size = min(config.pulses - lo, BLOCK_PULSES)
        n = rng.geometric(p_geom, size) - 1
        m = rng.geometric(p_geom, size) - 1
        rows = paired_modes(n, m, pairing)
        if config.eta < 1.0:  # fixed thinning order: x_a, y_a, x_b, y_b
            rows = tuple(rng.binomial(k, config.eta) for k in rows)
        yield lo, rows


def _sample_series_counts(
    config: SimConfig, pairing: str, series: int, run: int
) -> np.ndarray:
    """Detected counts (pulses, 4) = (x_a, y_a, x_b, y_b) for one series.

    Filled as a (4, pulses) buffer, one contiguous row per detector; the
    result is its transposed view.
    """
    cols = np.empty((4, config.pulses), dtype=np.int64)
    for lo, rows in _count_blocks(config, pairing, series, run):
        cols[:, lo:lo + BLOCK_PULSES] = rows
    return cols.T


# -- single-pulse view ----------------------------------------------------------


@dataclass(frozen=True)
class PulseRecord:
    """Detected counts of one pulse in the analyzer basis.

    ``counts`` holds (x_a, y_a, x_b, y_b): the two polarizing-splitter
    outputs per beam after the wave plates.  The per-beam readouts are
    the detector differences.
    """

    pulse_id: int
    counts: tuple[int, int, int, int]
    setting: MeasurementSetting

    @property
    def readout_a(self) -> int:
        return self.counts[0] - self.counts[1]

    @property
    def readout_b(self) -> int:
        return self.counts[2] - self.counts[3]

    @property
    def total(self) -> int:
        return int(sum(self.counts))


def sample_pulse(
    label: BellLabel,
    gamma: float,
    setting: MeasurementSetting,
    eta: float,
    rng: Generator,
    pulse_id: int = 0,
) -> PulseRecord:
    """One pulse through the closed-form sampling path.

    Draws the pair occupation (n, m) from the joint law
    ``lambda_n lambda_m``, assigns perfectly correlated raw counts per
    the state's pairing for the setting's Stokes component, then thins
    each mode independently with probability ``eta``.
    """
    if isinstance(label, str):
        label = BellLabel(label)
    comp = setting.component
    if comp is None:
        raise ValueError("setting does not realize a canonical Stokes component")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    q = geometric_ratio(gamma)
    n = int(rng.geometric(1.0 - q)) - 1
    m = int(rng.geometric(1.0 - q)) - 1
    ideal = paired_modes(n, m, count_pairing(label, comp))
    detected = tuple(int(rng.binomial(k, eta)) for k in ideal)
    return PulseRecord(pulse_id=pulse_id, counts=detected, setting=setting)


# -- witness estimation --------------------------------------------------------


def _jackknife_series(readout: np.ndarray, totals: np.ndarray):
    """One series' statistic theta = Var(readout) - (2/3) mean(totals).

    Returns (var, mean_total, theta, sigma_theta, sigma_var) with the
    errors from a delete-one-pulse jackknife, fully vectorized from the
    leave-one-out sums.
    """
    x = readout.astype(np.float64)
    t = totals.astype(np.float64)
    n = x.size
    S1, S2, T1 = x.sum(), float(x @ x), t.sum()
    mean_full = T1 / n
    var_full = (S2 - S1 * S1 / n) / (n - 1) if n > 1 else 0.0
    theta_full = var_full - (2.0 / 3.0) * mean_full
    if n < 3:
        return var_full, mean_full, theta_full, math.inf, math.inf

    # leave-one-out statistics in place on the two copies and one more buffer,
    # with the roundings of (s2 - s1 s1 / m) / (m - 1) - (2/3) t1 / m
    m = n - 1.0
    var_del = np.square(x)
    np.subtract(S2, var_del, out=var_del)
    s1 = np.subtract(S1, x, out=x)
    np.square(s1, out=s1)
    s1 /= m
    var_del -= s1
    var_del /= m - 1.0
    theta_del = np.subtract(T1, t, out=t)
    theta_del /= m
    theta_del *= 2.0 / 3.0
    np.subtract(var_del, theta_del, out=theta_del)
    theta_del -= theta_del.mean()
    var_del -= var_del.mean()
    sigma_theta = math.sqrt((n - 1) / n * np.sum(np.square(theta_del, out=theta_del)))
    sigma_var = math.sqrt((n - 1) / n * np.sum(np.square(var_del, out=var_del)))
    return var_full, mean_full, theta_full, sigma_theta, sigma_var


def _write_pulse_log(fh, series: int, first: int, rows) -> None:
    """Append the NDJSON records of one block of a series to the binary file ``fh``.

    One line per pulse j of the block, ``{"pulse_id":first+j,"setting":{...},
    "counts":[x_a,y_a,x_b,y_b]}``, in compact JSON, from the block's four
    detector rows.  The line template is filled ``LOG_CHUNK_PULSES``
    pulses at a time from a (chunk, 5) buffer of pulse ids and counts,
    byte for byte what ``json.dumps`` gives per record.
    """
    comp = series + 1
    h, qw = CANONICAL_SETTINGS[comp]
    setting = json.dumps({"hwp_deg": h, "qwp_deg": qw, "component": comp},
                         separators=(",", ":"))
    line = b'{"pulse_id":%d,"setting":' + setting.encode() + b',"counts":[%d,%d,%d,%d]}\n'
    buf = np.empty((LOG_CHUNK_PULSES, 5), dtype=np.int64)
    size = rows[0].size
    for j in range(0, size, LOG_CHUNK_PULSES):
        n = min(LOG_CHUNK_PULSES, size - j)
        buf[:n, 0] = np.arange(first + j, first + j + n)
        for col, row in enumerate(rows, 1):
            buf[:n, col] = row[j:j + n]
        fh.write((line * n) % tuple(buf[:n].ravel().tolist()))


def estimate_witness(
    config: SimConfig,
    kind: WitnessKind | None = None,
    run: int = 0,
    pulse_log: str | None = None,
) -> WitnessReport:
    """Sampled witness value with jackknife errors.

    Three series (one Stokes component each, canonical settings); the
    reported value is sum_i [Var_i - (2/3) mean_i(total counts)], an
    unbiased estimate of sum Var(S_i^a + s_i S_i^b) - 2 <S_0> at the
    detected-photon level.
    """
    # peak: int64 readout and totals plus the jackknife's three float64 buffers
    check_memory(config.pulses, "witness estimate", 40, "pulses")
    kind = kind or matched_witness(config.label)
    signs = kind.signs
    log_fh = open(pulse_log, "wb") if pulse_log else None

    variance_terms = []
    theta_sigmas = []
    var_sigmas = []
    degenerate = []
    theta_sum = 0.0
    mean_s0_acc = 0.0
    try:
        for series, sign in enumerate(signs):
            # counts always follow the state's own pairing; a mismatched witness
            # only changes the sign in the readout combination below
            pairing = count_pairing(config.label, series + 1)
            # each block is reduced as it is drawn, so no count table is held
            readout = np.empty(config.pulses, dtype=np.int64)
            totals = np.empty(config.pulses, dtype=np.int64)
            add_b, sub_b = (np.add, np.subtract) if sign > 0 else (np.subtract, np.add)
            for lo, (xa, ya, xb, yb) in _count_blocks(config, pairing, series, run):
                r = readout[lo:lo + BLOCK_PULSES]
                t = totals[lo:lo + BLOCK_PULSES]
                np.subtract(xa, ya, out=r)  # (xa - ya) + sign * (xb - yb), exact in int64
                add_b(r, xb, out=r)
                sub_b(r, yb, out=r)
                np.add(xa, ya, out=t)
                t += xb
                t += yb
                if log_fh is not None:
                    _write_pulse_log(log_fh, series, series * config.pulses + lo,
                                     (xa, ya, xb, yb))
            var_full, mean_full, theta, s_theta, s_var = _jackknife_series(readout, totals)
            if var_full == 0.0 and mean_full == 0.0:
                degenerate.append(series + 1)
            variance_terms.append(var_full)
            theta_sigmas.append(s_theta)
            var_sigmas.append(s_var)
            theta_sum += theta
            mean_s0_acc += mean_full / 3.0
    finally:
        if log_fh is not None:
            log_fh.close()

    if degenerate:
        log.warning("series %s returned zero variance and zero mean", degenerate)
    sigma = math.sqrt(sum(s * s for s in theta_sigmas))
    meta = {
        "source": "simulation",
        "label": config.label.value,
        "gamma": config.gamma,
        "eta": config.eta,
        "pulses": config.pulses,
        "seed": config.seed,
        "bin_width": config.bin_width,
        "run": run,
    }
    if degenerate:
        meta["degenerate_series"] = degenerate
    return WitnessReport(
        kind=kind,
        value=float(theta_sum),
        variance_terms=tuple(variance_terms),
        mean_s0=float(mean_s0_acc),
        variance_errors=tuple(var_sigmas),
        value_error=float(sigma),
        meta=meta,
    )


def witness_under_loss(gamma: float, eta: float, matched: bool = True) -> float:
    """Detected-level witness at efficiency eta (exact, no cutoff).

    Each matched variance term is 4 eta (1 - eta) N0 of thinning noise
    and <S_0> drops to 4 eta N0, so the matched value is 4 eta N0 (1 - 3 eta):
    entanglement stays certified for eta > 1/3 at any gain.  A mismatched
    witness flips the sign of two of its three terms, each of which then
    gains 8 eta^2 N0 (N0 + 1).
    """
    n0 = mean_photons_per_mode(gamma)
    value = 4.0 * eta * n0 * (1.0 - 3.0 * eta)
    if not matched:
        value += 16.0 * eta * eta * n0 * (n0 + 1.0)
    return value


# -- photon-number correlation estimate ----------------------------------------


@dataclass
class FedorovEstimate:
    ratio: float            # four-mode: product of the two pair ratios
    ratio_h: float
    ratio_v: float
    marginal_width_h: float
    conditional_width_h: float
    marginal_width_v: float
    conditional_width_v: float
    convention: str
    meta: dict = field(default_factory=dict)


def _marginal_width(samples: np.ndarray, convention) -> float:
    from .measures import WidthConvention

    conv = WidthConvention(convention) if isinstance(convention, str) else convention
    if conv is WidthConvention.SQRT2_STDDEV:
        return math.sqrt(2.0) * float(samples.mean())
    return float(samples.std(ddof=1))


def _conditional_width(values: np.ndarray, partners: np.ndarray, bin_width: int) -> float:
    """Count-weighted std of values across binned partner counts, >= 1 count.

    Partner counts are grouped into intervals of ``bin_width``; the
    conditional histogram of ``values`` within each occupied interval
    contributes its standard deviation, weighted by occupancy.  Bins in
    the observed partner range with no usable statistics are skipped
    with a warning.  Perfect correlation concentrates each conditional
    on a point, so the width is floored at one count.
    """
    bins = partners // bin_width
    bins -= bins.min() if bins.size else 0
    span = int(bins.max(initial=-1)) + 1
    # a stable sort gives one permutation for any key dtype; spans under 2**16 sort by radix
    key = bins.astype(np.min_scalar_type(span))
    del bins  # each array goes as soon as it is spent, which bounds the peak
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    del key
    v_sorted = values[order].astype(np.float64)
    del order
    groups = np.split(v_sorted, cuts)
    total = 0.0
    weight = 0.0
    skipped = 0
    for grp in groups:
        if grp.size >= 2:
            total += grp.size * grp.std(ddof=1)
            weight += grp.size
        else:
            skipped += 1
    empty = span - len(groups)
    if skipped or empty > 0:
        log.warning(
            "conditional histograms: %d empty and %d singleton partner bin(s) skipped",
            max(empty, 0), skipped,
        )
    width = total / weight if weight > 0 else 0.0
    return max(width, 1.0)


def estimate_fedorov(
    config: SimConfig, convention="sqrt2-stddev", run: int = 0
) -> FedorovEstimate:
    """Width-ratio estimate from an H/V-basis photocounting series.

    The H-polarized count of beam a pairs with whichever beam-b mode
    the state correlates it to (cross: b_V, parallel: b_H); same for
    the V count.  The four-mode ratio is the product of the two pair
    ratios, each marginal width over conditional width, the latter
    floored at one bin.
    """
    # peak: four int64 count rows, the sort order and the sorted values as int64 and float64
    check_memory(config.pulses, "width-ratio estimate", 56, "pulses")
    pairing = count_pairing(config.label, 1)
    counts = _sample_series_counts(config, pairing, series=0, run=run)
    xa, ya, xb, yb = counts.T
    partner_h, partner_v = paired_modes(xb, yb, pairing)[2:]
    mw_h = _marginal_width(xa, convention)
    cw_h = _conditional_width(xa, partner_h, config.bin_width)
    mw_v = _marginal_width(ya, convention)
    cw_v = _conditional_width(ya, partner_v, config.bin_width)
    conv = convention if isinstance(convention, str) else convention.value
    return FedorovEstimate(
        ratio=(mw_h / cw_h) * (mw_v / cw_v),
        ratio_h=mw_h / cw_h,
        ratio_v=mw_v / cw_v,
        marginal_width_h=mw_h,
        conditional_width_h=cw_h,
        marginal_width_v=mw_v,
        conditional_width_v=cw_v,
        convention=conv,
        meta={
            "label": config.label.value,
            "gamma": config.gamma,
            "eta": config.eta,
            "pulses": config.pulses,
            "seed": config.seed,
            "bin_width": config.bin_width,
            "run": run,
        },
    )


# -- efficiency sweep -----------------------------------------------------------


@dataclass
class SweepPoint:
    eta: float
    value: float
    sigma: float
    certifies: bool  # value + 3 sigma < 0
    exact: float


@dataclass
class SweepResult:
    points: list[SweepPoint]
    #: smallest grid eta whose 3-sigma interval stays below zero; below
    #: it the interval includes zero and certification is lost
    certification_threshold: float | None
    #: interpolated eta where the estimated value itself changes sign
    zero_crossing: float | None


def efficiency_sweep(
    config: SimConfig, eta_grid, kind: WitnessKind | None = None
) -> SweepResult:
    """Witness estimates across detection efficiencies.

    Each grid point runs an independent three-series estimate (run
    index = grid position).  The certification threshold is the
    smallest sampled efficiency still resolving the witness below zero
    at three jackknife sigma; the zero crossing interpolates where the
    estimate itself changes sign (None if not bracketed).
    """
    etas = [float(e) for e in eta_grid]
    if any(not 0.0 < e <= 1.0 for e in etas):
        raise ValueError("efficiency grid must lie in (0, 1]")
    matched = kind in (None, matched_witness(config.label))
    points = []
    for i, eta in enumerate(etas):
        rep = estimate_witness(replace(config, eta=eta), kind=kind, run=i)
        points.append(SweepPoint(
            eta=eta,
            value=rep.value,
            sigma=rep.value_error,
            certifies=bool(rep.value + 3.0 * rep.value_error < 0.0),
            exact=witness_under_loss(config.gamma, eta, matched),
        ))
    certified = [p.eta for p in points if p.certifies]
    threshold = min(certified) if certified else None
    crossing = None
    for a, b in zip(points, points[1:]):
        if a.value >= 0.0 > b.value or a.value < 0.0 <= b.value:
            # linear interpolation of the sign change
            t = a.value / (a.value - b.value)
            crossing = a.eta + t * (b.eta - a.eta)
            break
    return SweepResult(points=points, certification_threshold=threshold,
                       zero_crossing=crossing)
