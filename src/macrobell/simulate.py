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
and a seed gives the same bytes on every run.  At eta = 1 no thinning
variates are drawn (they would come last in a block's own stream, so
skipping them moves no count).

Memory is set by the block, not by the pulse count: each block is
reduced to sums as it is drawn and then dropped.  A witness series keeps
its exact integer sums (n, sum x, sum x^2, sum t) and the central sums
its jackknife needs, merged block by block (:class:`_SeriesSums`); a
width-ratio run keeps per partner-bin counts and exact integer sums
(:class:`_PartnerBins`), whose length grows with the largest partner
count seen and is checked against free memory before it does.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
# numpy imports numpy.random on first use; importing it here keeps that cost in start-up
from numpy.random import Generator, Philox, SeedSequence

from .states import (BellLabel, NumericError, _log_q, check_memory, geometric_ratio,
                     mean_photons_per_mode, paired_modes)
from .witnesses import WitnessKind, WitnessReport, matched_witness

log = logging.getLogger(__name__)

#: pulses per RNG block; each block draws from its own Philox stream, which fixes
#: the RNG stream of a run
BLOCK_PULSES = 4096

#: pulses formatted per write of the NDJSON pulse log (bounds its buffers)
LOG_CHUNK_PULSES = 1024

#: analyzer plate angles (hwp_deg, qwp_deg) realizing each Stokes component
CANONICAL_SETTINGS = {1: (0.0, 0.0), 2: (22.5, 45.0), 3: (0.0, 45.0)}

#: peak bytes per pulse of a witness block: the geometric draws, four thinned
#: detector rows, the int64 readout and totals and three float64 buffers
#: (tracemalloc: 125 at eta < 1, 81 at eta = 1)
BLOCK_BYTES_PER_PULSE = 128

#: bytes per partner bin of a width-ratio run: (pulses, sum x, sum x^2) as int64
#: for each of the H and V sides, twice over while a table grows
PARTNER_BIN_BYTES = 96

#: bytes per grid point of an efficiency sweep: the grid as numpy scalars and
#: floats, its SweepPoint and its CSV row (tracemalloc: 360)
SWEEP_BYTES_PER_POINT = 384

_INT64_LIMIT = 2**63


def count_pairing(label: BellLabel, component: int) -> str:
    """'cross' or 'parallel' pairing of the counts of Stokes component 1..3."""
    return "cross" if matched_witness(label).signs[component - 1] > 0 else "parallel"


@dataclass
class SimConfig:
    label: BellLabel
    gamma: float
    eta: float = 1.0
    pulses: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.label, str):
            self.label = BellLabel(self.label)
        _log_q(self.gamma)  # refuses a gain that is negative or not finite
        if geometric_ratio(self.gamma) == 1.0:
            raise NumericError(f"tanh(gamma)^2 rounds to 1 at gamma={self.gamma}: "
                               "no photon-number law to sample")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.pulses < 1:
            raise ValueError("need at least 1 pulse")


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


# -- witness estimation --------------------------------------------------------


def _merge_central(na: int, a: tuple, nb: int, b: tuple) -> tuple:
    """Central sums of the union of two disjoint pulse sets.

    Each set is ``(mean_x, mean_t, M2, M3, M4, C11, C21, E2)`` with
    ``M_k = sum d^k``, ``C11 = sum d e``, ``C21 = sum d^2 e`` and
    ``E2 = sum e^2`` about its own means (d = x - mean_x, e = t - mean_t).
    These are the pairwise update formulas of Chan, Golub & LeVeque (1983)
    and Pebay (SAND2008-6212); C21 follows as M3 does, with one of the
    three deviations taken in t.
    """
    mxa, mta, m2a, m3a, m4a, c11a, c21a, e2a = a
    mxb, mtb, m2b, m3b, m4b, c11b, c21b, e2b = b
    n = na + nb
    fa, fb = na / n, nb / n
    w = na * fb  # na nb / n
    dx, dt = mxb - mxa, mtb - mta
    return (
        mxa + fb * dx,
        mta + fb * dt,
        m2a + m2b + dx * dx * w,
        m3a + m3b + dx**3 * w * (fa - fb) + 3.0 * dx * (fa * m2b - fb * m2a),
        m4a + m4b + dx**4 * w * (fa * fa - fa * fb + fb * fb)
        + 6.0 * dx * dx * (fa * fa * m2b + fb * fb * m2a) + 4.0 * dx * (fa * m3b - fb * m3a),
        c11a + c11b + dx * dt * w,
        c21a + c21b + dx * dx * dt * w * (fa - fb) + dt * (fa * m2b - fb * m2a)
        + 2.0 * dx * (fa * c11b - fb * c11a),
        e2a + e2b + dt * dt * w,
    )


class _SeriesSums:
    """Streamed statistic theta = Var(readout) - (2/3) mean(totals) of one series.

    :meth:`add` takes one block of int64 readouts x and totals t.  The
    exact sums n, sum x, sum x^2 and sum t are int64 per block and Python
    ints across blocks; the central sums about the running means are
    float64 per block and merged by :func:`_merge_central`.
    """

    def __init__(self):
        self.n = self.s1 = self.s2 = self.t1 = 0
        self.central: tuple | None = None
        self._buf = np.empty((3, BLOCK_PULSES))

    def add(self, x: np.ndarray, t: np.ndarray) -> None:
        size = x.size
        big = int(t.max())  # |x| <= t pulse by pulse
        if big * big * size < _INT64_LIMIT:
            s1, s2, t1 = int(x.sum()), int(x @ x), int(t.sum())
        else:  # Python ints, exact past int64
            xs = x.tolist()
            s1, s2, t1 = sum(xs), sum(v * v for v in xs), sum(t.tolist())
        self.s1 += s1
        self.s2 += s2
        self.t1 += t1
        mx, mt = s1 / size, t1 / size
        d = np.subtract(x, mx, out=self._buf[0, :size])
        e = np.subtract(t, mt, out=self._buf[1, :size])
        d2 = np.multiply(d, d, out=self._buf[2, :size])
        block = (mx, mt, float(d @ d), float(d2 @ d), float(d2 @ d2),
                 float(d @ e), float(d2 @ e), float(e @ e))
        self.central = (block if self.central is None
                        else _merge_central(self.n, self.central, size, block))
        self.n += size

    def statistics(self) -> tuple:
        """(var, mean_total, theta, sigma_theta, sigma_var) with delete-one jackknife errors.

        With d = x - mean x and e = t - mean t, the delete-one statistic
        is ``theta_i - mean = -c (d_i^2 - M2/n) + k e_i`` with
        ``c = n/((n-1)(n-2))`` and ``k = (2/3)/(n-1)``, so
        ``sigma_theta^2 = (n-1)/n [c^2 (M4 - M2^2/n) - 2 c k C21 + k^2 E2]``
        and ``sigma_var^2`` is its first term.
        """
        n = self.n
        s1, s2 = float(self.s1), float(self.s2)
        mean_full = float(self.t1) / n
        var_full = (s2 - s1 * s1 / n) / (n - 1) if n > 1 else 0.0
        theta_full = var_full - (2.0 / 3.0) * mean_full
        if n < 3:
            return var_full, mean_full, theta_full, math.inf, math.inf
        _, _, m2, _, m4, _, c21, e2 = self.central
        c, k = n / ((n - 1) * (n - 2)), (2.0 / 3.0) / (n - 1)
        spread = c * c * (m4 - m2 * m2 / n)
        sigma_theta = math.sqrt(max((n - 1) / n * (spread - 2.0 * c * k * c21 + k * k * e2), 0.0))
        sigma_var = math.sqrt(max((n - 1) / n * spread, 0.0))
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
    check_memory(min(config.pulses, BLOCK_PULSES), "witness estimate",
                 BLOCK_BYTES_PER_PULSE, "pulses per block")
    kind = kind or matched_witness(config.label)
    signs = kind.signs
    log_fh = open(pulse_log, "wb") if pulse_log else None

    variance_terms = []
    theta_sigmas = []
    var_sigmas = []
    degenerate = []
    theta_sum = 0.0
    mean_s0_acc = 0.0
    readout = np.empty(BLOCK_PULSES, dtype=np.int64)
    totals = np.empty(BLOCK_PULSES, dtype=np.int64)
    try:
        for series, sign in enumerate(signs):
            # counts always follow the state's own pairing; a mismatched witness
            # only changes the sign in the readout combination below
            pairing = count_pairing(config.label, series + 1)
            sums = _SeriesSums()
            add_b, sub_b = (np.add, np.subtract) if sign > 0 else (np.subtract, np.add)
            for lo, (xa, ya, xb, yb) in _count_blocks(config, pairing, series, run):
                r = readout[:xa.size]
                t = totals[:xa.size]
                np.subtract(xa, ya, out=r)  # (xa - ya) + sign * (xb - yb), exact in int64
                add_b(r, xb, out=r)
                sub_b(r, yb, out=r)
                np.add(xa, ya, out=t)
                t += xb
                t += yb
                sums.add(r, t)
                if log_fh is not None:
                    _write_pulse_log(log_fh, series, series * config.pulses + lo,
                                     (xa, ya, xb, yb))
            var_full, mean_full, theta, s_theta, s_var = sums.statistics()
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


class _PartnerBins:
    """Per partner-count bin of one detector: its pulses, sum x and sum x^2.

    A pulse falls in bin k when its partner count lies in
    ``[k w, (k+1) w)`` for bin width w.  The sums are exact: int64 while
    ``pulses * max(x)^2`` stays below 2**63, which bounds every bin's sum
    of squares, and Python ints from the block that would pass it.  The
    table grows with the largest partner bin seen, after
    :func:`~macrobell.states.check_memory` admits the new length.
    """

    def __init__(self, bin_width: int):
        # counts stay below 2**63, so a wider bin bins exactly as this one
        self.bin_width = min(bin_width, _INT64_LIMIT - 1)
        self.count = np.zeros(0, dtype=np.int64)
        self.sums = np.zeros((2, 0), dtype=np.int64)  # sum x, sum x^2 per bin
        self.pulses = self.largest = 0

    def add(self, values: np.ndarray, partners: np.ndarray) -> None:
        bins = partners // self.bin_width
        grow = int(bins.max()) + 1 - self.count.size
        if grow > 0:
            check_memory(self.count.size + grow, "width-ratio estimate", PARTNER_BIN_BYTES,
                         "partner bins")
            self.count = np.pad(self.count, (0, grow))
            self.sums = np.pad(self.sums, ((0, 0), (0, grow)))
        self.pulses += values.size
        self.largest = max(self.largest, int(values.max()))
        if self.sums.dtype != object and self.pulses * self.largest**2 >= _INT64_LIMIT:
            self.sums = self.sums.astype(object)
        if self.sums.dtype == object:
            values = values.astype(object)
        np.add.at(self.count, bins, 1)
        np.add.at(self.sums[0], bins, values)
        np.add.at(self.sums[1], bins, values * values)

    def marginal_width(self, convention) -> float:
        from .measures import WidthConvention

        conv = WidthConvention(convention) if isinstance(convention, str) else convention
        n, s1, s2 = self.pulses, int(self.sums[0].sum()), int(self.sums[1].sum())
        if conv is WidthConvention.SQRT2_STDDEV:
            return math.sqrt(2.0) * (s1 / n)
        return math.sqrt((n * s2 - s1 * s1) / (n * (n - 1))) if n > 1 else math.nan

    def conditional_width(self) -> float:
        """Count-weighted std of the values across partner bins, >= 1 count.

        Each bin with at least two pulses contributes its standard
        deviation (ddof 1), weighted by occupancy.  Bins in the observed
        partner range with no usable statistics are skipped with a
        warning.  Perfect correlation concentrates each conditional on a
        point, so the width is floored at one count.  The weighted sum is
        formed in integers to 2**-64 of its value, then rounded once.
        """
        occupied = np.flatnonzero(self.count)
        used = occupied[self.count[occupied] >= 2]
        empty = int(occupied[-1] - occupied[0]) + 1 - occupied.size if occupied.size else 0
        skipped = occupied.size - used.size
        if skipped or empty:
            log.warning(
                "conditional histograms: %d empty and %d singleton partner bin(s) skipped",
                empty, skipped,
            )
        n = self.count[used].tolist()
        if not n:
            return 1.0
        # n_b sd_b = sqrt(n_b (n_b S2_b - S1_b^2) / (n_b - 1)), in fixed point 2**-shift
        shift = 64 + len(n).bit_length()
        total = sum(math.isqrt((k * (k * q - p * p) << 2 * shift) // (k - 1))
                    for k, p, q in zip(n, self.sums[0, used].tolist(),
                                       self.sums[1, used].tolist()))
        return max(total / (sum(n) << shift), 1.0)


def estimate_fedorov(
    config: SimConfig, convention="sqrt2-stddev", bin_width: int = 1, run: int = 0
) -> FedorovEstimate:
    """Width-ratio estimate from an H/V-basis photocounting series.

    The H-polarized count of beam a pairs with whichever beam-b mode
    the state correlates it to (cross: b_V, parallel: b_H); same for
    the V count.  The four-mode ratio is the product of the two pair
    ratios, each marginal width over conditional width, the latter
    floored at one count.  Partner counts are binned ``bin_width`` at a
    time for the conditional histograms.
    """
    if bin_width < 1:
        raise ValueError("bin width must be >= 1")
    pairing = count_pairing(config.label, 1)
    side_h, side_v = _PartnerBins(bin_width), _PartnerBins(bin_width)
    for _, (xa, ya, xb, yb) in _count_blocks(config, pairing, series=0, run=run):
        partner_h, partner_v = paired_modes(xb, yb, pairing)[2:]
        side_h.add(xa, partner_h)
        side_v.add(ya, partner_v)
    mw_h = side_h.marginal_width(convention)
    cw_h = side_h.conditional_width()
    mw_v = side_v.marginal_width(convention)
    cw_v = side_v.conditional_width()
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
            "bin_width": bin_width,
            "run": run,
            "partner_bins": max(side_h.count.size, side_v.count.size),
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
