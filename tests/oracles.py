"""Independently constructed reference objects for the test suite.

Everything here is assembled from single-mode ladder matrices chained
with scipy.sparse.kron, a sparse matrix exponential, explicit index
loops, Schmidt factors and full ``(n, m)`` amplitude tables built entry
by entry from a Bell state's label, term-by-term tail sums,
sector-by-sector polarization transforms of dense vectors and dense
eigensolves -- deliberately a different construction from the library's
stride arithmetic and closed forms, so that agreement between the two is
a meaningful check rather than a tautology.  The simulation oracles are
the library's former full-table routes: a (pulses, 4) count table per
series, the leave-one-out jackknife and the sort-based conditional
width, plus a one-pulse-at-a-time sampler and the block sampler as first
written, a fresh Philox and four whole-row thinning calls per block; the
exact references repeat their statistics in rational arithmetic.  The
truncated thermal law is referenced in stdlib ``decimal`` arithmetic.  The kron-built Stokes
operators are the one dense reference for Stokes moments, and the only
route that takes product states: the separability bound is checked with
them on a seeded battery of product states and separable mixtures.
"""

import functools
import json
import logging
import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from numpy.random import Generator, Philox, SeedSequence
from scipy.sparse.linalg import expm_multiply

from macrobell.basis import FourModeBasis
from macrobell.measures import kbar
from macrobell.polarization import half_wave_plate, quarter_wave_plate
from macrobell.simulate import (
    BLOCK_PULSES,
    CANONICAL_SETTINGS,
    _count_blocks,
    count_pairing,
    matched_witness,
)
from macrobell.states import (
    BellLabel,
    FourModeState,
    NumericError,
    TruncationMassError,
    geometric_ratio,
    paired_modes,
)
from macrobell.stokes import _TERMS
from macrobell.truncation import epsilon_from_cutoff

log = logging.getLogger(__name__)


def _norm_sq(arr: np.ndarray) -> float:
    return float(np.vdot(arr, arr).real)


def mode_annihilator(d: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, d, dtype=np.float64)), 1).tocsr()


def kron_mode_operator(op: sp.spmatrix, slot: int, d: int) -> sp.csr_matrix:
    """Lift a single-mode operator onto one of the four kron slots.

    Slot order (a_H, a_V, b_H, b_V) with a_H slowest, matching
    index = ((n_ah * d + n_av) * d + n_bh) * d + n_bv.
    """
    eye = sp.identity(d, format="csr")
    mats = [eye, eye, eye, eye]
    mats[slot] = op.tocsr()
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


@functools.cache
def kron_stokes(component: int, beam: str, d: int) -> sp.csr_matrix:
    """Stokes operator built from kron-lifted ladder products over d levels
    per mode.  Cached and shared between callers, so never modify the result
    in place; the eight of one cutoff hold about 80 MB at d = 25."""
    a = mode_annihilator(d)
    num = (a.conj().T @ a).tocsr()
    h, v = (0, 1) if beam == "a" else (2, 3)
    if component == 0:
        return (kron_mode_operator(num, h, d) + kron_mode_operator(num, v, d)).tocsr()
    if component == 1:
        return (kron_mode_operator(num, h, d) - kron_mode_operator(num, v, d)).tocsr()
    ah = kron_mode_operator(a, h, d)
    av = kron_mode_operator(a, v, d)
    if component == 2:
        return (ah.conj().T @ av + av.conj().T @ ah).tocsr()
    if component == 3:
        return (1j * (av.conj().T @ ah - ah.conj().T @ av)).tocsr()
    raise ValueError(component)


def kron_combination(coeffs: dict, d: int) -> sp.csr_matrix:
    """O = sum c S_k^beam over d levels per mode, from :func:`kron_stokes`."""
    return sum(c * kron_stokes(k, beam, d) for (k, beam), c in coeffs.items())


def kron_apply(coeffs: dict, vec: np.ndarray) -> np.ndarray:
    """O psi for O = sum c S_k^beam on a dense vector, at the cutoff its
    length gives, one :func:`kron_stokes` term at a time."""
    d = round(vec.size ** 0.25)
    return sum(c * (kron_stokes(k, beam, d) @ vec) for (k, beam), c in coeffs.items())


def kron_moments(coeffs: dict, vec: np.ndarray) -> tuple[float, float]:
    """Normalized (<O>, <O^2>) of O = sum c S_k^beam on a dense vector, from
    :func:`kron_apply`; O is Hermitian, so ``<O^2> = ||O psi||^2``."""
    o_vec = kron_apply(coeffs, vec)
    den = _norm_sq(vec)
    return float(np.vdot(vec, o_vec).real) / den, _norm_sq(o_vec) / den


def separability_gap(ensemble) -> float:
    """Var(S_1) + Var(S_2) + Var(S_3) - 2 <S_0> of the compound beam on a
    mixture ``[(weight, vector), ...]`` of dense vectors, with kron-built
    operators at the cutoff the vectors' length gives.  Mixing can only
    raise the variances, so separable mixtures of product vectors stay >= 0.
    """
    gap = 0.0
    for i in range(4):
        parts = [(w, kron_moments({(i, "a"): 1.0, (i, "b"): 1.0}, vec)) for w, vec in ensemble]
        mean = sum(w * m1 for w, (m1, _) in parts)
        if i == 0:
            gap -= 2.0 * mean
        else:
            gap += sum(w * m2 for w, (_, m2) in parts) - mean * mean
    return float(gap)


def product_state_battery(seed: int, n_states: int = 24, n_max: int = 12) -> list:
    """Named separable test states: coherent / Fock / thermal-like products.

    Every entry is separable across the a|b beam split by construction:
    pure products ``|beam a> (x) |beam b>``, or convex mixtures of such
    products.  Returns ``[(name, ensemble), ...]`` with ensembles in the
    format :func:`separability_gap` takes.
    """
    rng = np.random.default_rng(seed)
    d = n_max + 1
    sqrt_factorial = np.exp(0.5 * np.array([math.lgamma(k + 1.0) for k in range(d)]))

    def coherent_mode(alpha):
        # exp(-|a|^2/2) a^n / sqrt(n!), renormalized after the cutoff
        if alpha == 0:
            amp = np.zeros(d, complex)
            amp[0] = 1.0
        else:
            amp = np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** np.arange(d) / sqrt_factorial
        return amp / np.linalg.norm(amp)

    def beam_vec(kind):
        if kind == "coherent":
            a1 = (rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform())
            a2 = (rng.uniform(0, 1.5)) * np.exp(2j * np.pi * rng.uniform())
            return np.kron(coherent_mode(a1), coherent_mode(a2))
        vec = np.zeros(d * d, complex)
        nh, nv = rng.integers(0, 4, size=2)
        vec[nh * d + nv] = 1.0
        return vec

    battery = [("vacuum", [(1.0, FourModeBasis(n_max).vacuum())])]
    n_coh = max(8, n_states // 2)
    for k in range(n_coh):
        vec = np.kron(beam_vec("coherent"), beam_vec("coherent"))
        battery.append((f"coherent-product-{k}", [(1.0, vec)]))
    for k in range((n_states - n_coh) // 2):
        vec = np.kron(beam_vec("fock"), beam_vec("fock"))
        battery.append((f"fock-product-{k}", [(1.0, vec)]))
    # thermal-like separable mixtures: convex combinations of product kets
    while len(battery) < n_states + 1:
        parts = []
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            parts.append((float(w), np.kron(beam_vec("fock"), beam_vec("fock"))))
        battery.append((f"thermal-mixture-{len(battery)}", parts))
    return battery


def table_vector(table: np.ndarray, pairing: str, d: int) -> np.ndarray:
    """Dense amplitudes of a paired (n, m) table over d levels per mode,
    by an explicit per-ket loop."""
    vec = np.zeros(d**4, dtype=np.complex128)
    for n in range(table.shape[0]):
        for m in range(table.shape[1]):
            if pairing == "cross":
                idx = ((n * d + m) * d + m) * d + n
            else:
                idx = ((n * d + m) * d + n) * d + m
            vec[idx] = table[n, m]
    return vec


def bell_vector(sign: int, pairing: str, gamma: float, n_max: int) -> np.ndarray:
    """Dense Bell-state amplitudes by an explicit per-ket loop."""
    d = n_max + 1
    q = math.tanh(gamma) ** 2
    lam = [(q**k) * (1.0 - q) if q > 0 else (1.0 if k == 0 else 0.0) for k in range(d)]
    table = np.array([[(sign**m) * math.sqrt(lam[n] * lam[m]) for m in range(d)]
                      for n in range(d)])
    return table_vector(table, pairing, d)


def vector_edge_mass(vec: np.ndarray, depth: int = 2) -> float:
    """Fraction of a dense vector's mass with any mode occupation within
    ``depth`` photons of its cutoff, summed over the four-mode tensor."""
    d = round(vec.size ** 0.25)
    w = np.abs(vec.reshape((d,) * 4)) ** 2
    total = w.sum()
    if total == 0.0:
        return 0.0
    w[(slice(max(d - depth, 0)),) * 4] = 0.0
    return float(w.sum() / total)


def vector_fidelity(x: np.ndarray, y: np.ndarray) -> float:
    """|<x|y>|^2 / (<x|x> <y|y>) of two dense vectors, each at the cutoff its
    length gives; beyond the smaller cutoff one of the two is zero."""
    dx, dy = (round(v.size ** 0.25) for v in (x, y))
    k = min(dx, dy)
    ov = np.vdot(x.reshape((dx,) * 4)[:k, :k, :k, :k], y.reshape((dy,) * 4)[:k, :k, :k, :k])
    return float(abs(ov) ** 2 / (_norm_sq(x) * _norm_sq(y)))


def sector_matrix(jones: np.ndarray, n: int) -> np.ndarray:
    """Action of a 2x2 mode unitary on the n-photon sector of one beam.

    Basis ordering inside the sector is ``|k, n-k>`` for k = 0..n (k
    photons in H).  The creation operators transform with the columns of
    the Jones matrix; expanding ``(J_HH aH+ + J_VH aV+)^k (J_HV aH+ +
    J_VV aV+)^{n-k}`` binomially gives the matrix column of ``|k, n-k>``.
    """
    out = np.zeros((n + 1, n + 1), dtype=complex)
    lf = np.array([math.lgamma(k + 1.0) for k in range(n + 2)]) / 2.0  # log sqrt(k!)
    for k in range(n + 1):
        # coefficient polynomials in aH+ of the two binomials
        p1 = np.array([math.comb(k, i) * jones[0, 0] ** i * jones[1, 0] ** (k - i)
                       for i in range(k + 1)])
        p2 = np.array([math.comb(n - k, i) * jones[0, 1] ** i * jones[1, 1] ** (n - k - i)
                       for i in range(n - k + 1)])
        poly = np.convolve(p1, p2)  # index j: amplitude on (aH+)^j (aV+)^{n-j}
        j = np.arange(n + 1)
        norm = np.exp(lf[j] + lf[n - j] - lf[k] - lf[n - k])
        out[:, k] = poly * norm
    return out


def beam_transform_matrix(jones: np.ndarray, n_max: int) -> np.ndarray:
    """Dense transform on one beam's flattened (n_H, n_V) two-mode space.

    Sectors with total photon number above ``n_max`` are only partially
    representable under a per-mode cutoff; their blocks are the sector
    unitary restricted to the representable kets, which is where a
    transform can leak norm.
    """
    d = n_max + 1
    out = np.zeros((d * d, d * d), dtype=complex)
    for total in range(2 * n_max + 1):
        kmin, kmax = max(0, total - n_max), min(total, n_max)
        ks = np.arange(kmin, kmax + 1)
        flat = ks * d + (total - ks)  # (n_H, n_V) -> n_H * d + n_V
        out[np.ix_(flat, flat)] = sector_matrix(jones, total)[np.ix_(ks, ks)]
    return out


def _through_frames(psi: np.ndarray, jones: tuple, n_max: int) -> np.ndarray:
    """A ``(d*d, d*d)`` amplitude matrix (rows: beam a) with each beam's
    Jones matrix applied sector by sector over ``n_max + 1`` levels per mode."""
    ja, jb = jones
    if ja is not None:
        psi = beam_transform_matrix(np.asarray(ja), n_max) @ psi
    if jb is not None:
        psi = psi @ beam_transform_matrix(np.asarray(jb), n_max).T
    return psi


def _h_v_form(state: FourModeState) -> tuple[str, int]:
    """(pairing, sign) of a state's table in the H/V frame, read off its
    label, never its frame; an unlabelled state must be unframed psi-plus."""
    if state.label is not None:
        return state.label.pairing, state.label.sign
    if any(j is not None for j in state.jones):
        raise ValueError("an unlabelled framed state has no H/V-frame table")
    return "cross", 1


def _schmidt_root(state: FourModeState) -> list:
    """``sqrt(q^n (1 - q))`` for n = 0..n_max, q = tanh(gamma)^2, entry by entry."""
    q = math.tanh(state.gamma) ** 2
    return [math.sqrt(q**k * (1.0 - q)) for k in range(state.n_levels)]


def factors(state: FourModeState) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt factors ``(u, v)`` of a Bell state's H/V-frame table from its
    label: ``u_n = sqrt(q^n (1 - q))`` and ``v_m = sign^m sqrt(q^m (1 - q))``
    for n, m = 0..n_max, each entry built on its own."""
    root = _schmidt_root(state)
    sign = _h_v_form(state)[1]
    return np.array(root), np.array([sign**k * r for k, r in enumerate(root)])


def amplitude_table(state: FourModeState) -> np.ndarray:
    """The ``(n, m)`` amplitude table ``u_n v_m`` of a Bell state in the H/V
    frame, on the kets its label's pairing names."""
    return np.outer(*factors(state))


def lifted_vector(state: FourModeState, n_max: int | None = None) -> np.ndarray:
    """Dense amplitudes of a state, in any frame, over ``n_max + 1`` levels
    per mode (default: the state's own cutoff).

    The psi-plus closed form's table is placed by an explicit per-ket loop
    and each beam's Jones frame applied sector by sector.  A beam sector of
    ``t`` photons needs ``t`` levels per mode, so a lift at the state's own
    cutoff can lose norm; losing more than 1e-10 of it is refused.  At
    twice the state's cutoff every sector fits and nothing is lost.
    """
    n_max = state.n_max if n_max is None else n_max
    if n_max < state.n_max:
        raise ValueError(f"cannot lift cutoff {state.n_max} into {n_max}")
    d = n_max + 1
    root = _schmidt_root(state)
    psi = table_vector(np.outer(root, root), "cross", d).reshape(d * d, d * d)
    norm_before = _norm_sq(psi)
    psi = _through_frames(psi, state.jones, n_max)
    leak = norm_before - _norm_sq(psi)
    if not abs(leak) <= 1e-10 * norm_before:
        raise NumericError(f"lift leaked norm {leak:.3e}: the frame moves mass into "
                           f"sectors the per-mode cutoff {n_max} cannot represent")
    return psi.reshape(-1)


def framed_moments(coeffs: dict, state: FourModeState) -> tuple:
    """Normalized (<O>, <O^2>) of a state in any frame, from its lift at
    twice its cutoff, where every beam sector fits and O is exact.

    ``<O> = <psi|O psi>``; ``<O^2>`` is the squared norm of ``O psi``
    taken back through the inverse frames and cut to the state's own
    cutoff: O compressed to the cutoff in the frame where the state is
    truncated, as the library's moments are.
    """
    n_max, k = 2 * state.n_max, state.n_levels
    d = n_max + 1
    psi = lifted_vector(state, n_max)
    o_psi = kron_apply(coeffs, psi).reshape(d * d, d * d)
    den = _norm_sq(psi)
    inverse = tuple(None if j is None else np.conj(j).T for j in state.jones)
    back = _through_frames(o_psi, inverse, n_max).reshape((d,) * 4)[:k, :k, :k, :k]
    return float(np.vdot(psi, o_psi.reshape(-1)).real) / den, _norm_sq(back) / den


def edge_mass_cutoff(gamma: float) -> int:
    """``cutoff_for_edge_mass`` by stepping the cutoff until the untruncated
    tail mass ``1 - (1 - q^(n-1))^2`` drops below 1e-10, plus two levels."""
    q = math.tanh(gamma) ** 2
    n = 2
    while True:
        mass = 1.0 - (1.0 - q ** (n - 1)) ** 2
        if mass < 1e-10:
            return n + 2
        n += 1


def matvec_expectation(op: sp.spmatrix, vec: np.ndarray) -> float:
    den = float(np.vdot(vec, vec).real)
    return float(np.vdot(vec, op @ vec).real) / den


def matvec_variance(op: sp.spmatrix, vec: np.ndarray) -> float:
    """Var(O) through matvecs only: <O^2> = ||O psi||^2 for Hermitian O."""
    den = float(np.vdot(vec, vec).real)
    ov = op @ vec
    mean = float(np.vdot(vec, ov).real) / den
    second = float(np.vdot(ov, ov).real) / den
    return second - mean * mean


def pair_spectrum(gamma: float, n_max: int) -> np.ndarray:
    """Renormalized truncated pair weights q^n (1 - q), summed term by term."""
    q = math.tanh(gamma) ** 2
    lam = np.array([(q**k) * (1.0 - q) for k in range(n_max + 1)])
    return lam / lam.sum()


def schmidt_number(p: np.ndarray) -> float:
    """K = 1 / sum(p^2) of a probability vector (renormalized first)."""
    p = np.asarray(p, dtype=np.float64)
    p = p / p.sum()
    return float(1.0 / np.sum(p * p))


def count_moments(p: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a photon-number law indexed n = 0, 1, ..."""
    n = np.arange(p.size, dtype=np.float64)
    mean = float(np.sum(n * p))
    return mean, float(np.sum((n - mean) ** 2 * p))


def thermal_law_decimal(gamma: float, n_max: int) -> dict:
    """Mean, variance, Schmidt number K and partial-transpose trace norm of
    one pair's truncated thermal law, q^n on n = 0..n_max (n_max <= 200),
    summed term by term in 60-digit decimal arithmetic on the exact binary
    gamma, with ``sqrt q = tanh(gamma) = (1 - x) / (1 + x)``, x = e^(-2 gamma)."""
    if not 0 <= n_max <= 200:
        raise ValueError("term-by-term sums stop at n_max = 200")
    with localcontext() as ctx:
        ctx.prec = 60
        x = (-2 * Decimal(gamma)).exp()
        r = (1 - x) / (1 + x)
        roots = [r**n for n in range(n_max + 1)]
        w = [a * a for a in roots]
        total = sum(w)
        mean = sum(n * wn for n, wn in enumerate(w)) / total
        second = sum(n * n * wn for n, wn in enumerate(w)) / total
        return {"mean": mean, "var": second - mean * mean,
                "kbar": total * total / sum(wn * wn for wn in w),
                "trace_norm": sum(roots) ** 2 / total}


def thermal_moments_decimal(gamma: float, n_levels: int) -> tuple[Decimal, Decimal]:
    """Mean and variance of n under q^n on n = 0..K-1 (K = n_levels) from
    ``1/expm1(y) - K/expm1(K y)`` and ``1/(4 sinh(y/2)^2) - K^2/(4 sinh(K
    y/2)^2)`` in decimal arithmetic, y = -ln q = 2 (ln(1 + x) - ln(1 - x)),
    x = e^(-2 gamma) on the exact binary gamma.  Each difference cancels up
    to 2 |log10 y| digits and each ``exp(z) - 1`` loses up to |log10 y|, so
    40 + 3 |log10 y| digits are carried; past K y = 1e5 the K terms are
    below 1e-43000 of the first and are dropped."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = (-2 * Decimal(gamma)).exp()
        ctx.prec = 40 + 3 * max(1, -(2 * x).adjusted())  # y ~ 4 x for small x
        y = 2 * ((1 + x).ln() - (1 - x).ln())
        ctx.prec = 40 + 3 * abs(y.adjusted())
        y = +y  # rounded to the working precision, so that K y is exact at K = 1

        def terms(z: Decimal, scale: Decimal) -> tuple[Decimal, Decimal]:
            if z > 100_000:
                return Decimal(0), Decimal(0)
            em1 = z.exp() - 1
            return scale / em1, scale * scale * z.exp() / (em1 * em1)

        k = Decimal(n_levels)
        (h1, j1), (hk, jk) = terms(y, Decimal(1)), terms(k * y, k)
        return h1 - hk, j1 - jk


#: dense-eigensolver guard: the partial transpose is (da*db) square
DENSE_PT_DIM_LIMIT = 3000


def pt_eigenvalues(amplitude_matrix: np.ndarray) -> np.ndarray:
    """Partial-transpose eigenvalues of |psi><psi| by a dense eigensolve.

    ``amplitude_matrix`` holds <i|<j|psi> as a (da, db) array.  The
    density matrix is reshaped to (da, db, da, db) and the second ket
    index is swapped with the second bra index (Vidal & Werner,
    PRA 65, 032314, 2002).
    """
    a = np.asarray(amplitude_matrix, dtype=np.complex128)
    da, db = a.shape
    dim = da * db
    if dim > DENSE_PT_DIM_LIMIT:
        raise ValueError(f"PT matrix dim {dim} exceeds dense limit {DENSE_PT_DIM_LIMIT}")
    vec = a.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj()).reshape(da, db, da, db)
    return np.linalg.eigvalsh(rho.transpose(0, 3, 2, 1).reshape(dim, dim))


def pt_trace_norm(amplitude_matrix: np.ndarray) -> float:
    """||rho^PT||_1 as the absolute eigenvalue sum of the dense solve."""
    return float(np.abs(pt_eigenvalues(amplitude_matrix)).sum())


def reference_count_blocks(config, pairing: str, series: int, run: int):
    """The library's ``_count_blocks`` as first written, block for block.

    Each block builds a fresh ``Philox`` at counter (0, block, series, run),
    draws n and then m in two ``geometric`` calls, and thins the four
    detector rows x_a, y_a, x_b, y_b in four whole-row ``binomial`` calls,
    zeros included.  Yields ``(lo, (x_a, y_a, x_b, y_b))`` in new arrays.
    """
    p_geom = 1.0 - geometric_ratio(config.gamma)
    key = SeedSequence(config.seed).generate_state(2, dtype=np.uint64)
    for lo in range(0, config.pulses, BLOCK_PULSES):
        counter = np.array([0, lo // BLOCK_PULSES, series, run], dtype=np.uint64)
        rng = Generator(Philox(counter=counter, key=key))
        size = min(config.pulses - lo, BLOCK_PULSES)
        n = rng.geometric(p_geom, size) - 1
        m = rng.geometric(p_geom, size) - 1
        rows = paired_modes(n, m, pairing)
        if config.eta < 1.0:
            rows = tuple(rng.binomial(k, config.eta) for k in rows)
        yield lo, rows


def _sample_series_counts(config, pairing: str, series: int, run: int) -> np.ndarray:
    """Detected counts (pulses, 4) = (x_a, y_a, x_b, y_b) for one series.

    Filled as a (4, pulses) buffer, one contiguous row per detector; the
    result is its transposed view.
    """
    cols = np.empty((4, config.pulses), dtype=np.int64)
    for lo, rows in _count_blocks(config, pairing, series, run):
        cols[:, lo:lo + BLOCK_PULSES] = rows
    return cols.T


def pulse_records(series: int, first: int, counts) -> bytes:
    """NDJSON records of pulses ``first, first+1, ...`` of a series, one
    ``json.dumps`` each, from the (pulses, 4) table ``counts``."""
    comp = series + 1
    h, qw = CANONICAL_SETTINGS[comp]
    setting = {"hwp_deg": h, "qwp_deg": qw, "component": comp}
    return "".join(json.dumps({
        "pulse_id": first + j,
        "setting": setting,
        "counts": row,
    }, separators=(",", ":")) + "\n" for j, row in enumerate(np.asarray(counts).tolist())).encode()


def pulse_log_bytes(config, run: int = 0) -> bytes:
    """The NDJSON pulse log of ``estimate_witness``, one ``json.dumps`` per pulse.

    Re-draws each series' counts as a full count table and serializes
    every pulse record on its own, the reference for the library's
    block-at-a-time numpy writer.
    """
    return b"".join(
        pulse_records(series, series * config.pulses, _sample_series_counts(
            config, count_pairing(config.label, series + 1), series, run))
        for series in range(3))


def witness_reference(config, kind=None, run: int = 0) -> tuple:
    """``estimate_witness`` reducing each series' full (pulses, 4) count table.

    Returns (value, value_error, variance_terms, variance_errors, mean_s0):
    the values from :func:`_jackknife_series`, whose integer sums are exact
    on every route, so they must agree exactly with the library's, and the
    errors from :func:`jackknife_exact`, each rounded once.
    """
    kind = kind or matched_witness(config.label)
    variance_terms, theta_sigmas, var_sigmas = [], [], []
    theta_sum = mean_s0 = 0.0
    for series, sign in enumerate(kind.signs):
        pairing = count_pairing(config.label, series + 1)
        xa, ya, xb, yb = _sample_series_counts(config, pairing, series, run).T
        readout = xa - ya
        readout += sign * (xb - yb)
        totals = xa + ya + xb + yb
        var_full, mean_full, theta = _jackknife_series(readout, totals)[:3]
        s_theta, s_var = map(float, jackknife_exact(readout, totals))
        variance_terms.append(var_full)
        theta_sigmas.append(s_theta)
        var_sigmas.append(s_var)
        theta_sum += theta
        mean_s0 += mean_full / 3.0
    sigma = math.sqrt(sum(s * s for s in theta_sigmas))
    return float(theta_sum), float(sigma), tuple(variance_terms), tuple(var_sigmas), float(mean_s0)


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


def _sqrt_fraction(value: Fraction, bits: int = 160) -> Fraction:
    """sqrt(value) to 2**-bits relative, from an integer square root."""
    return Fraction(math.isqrt(value.numerator * value.denominator << 2 * bits),
                    value.denominator << bits)


def jackknife_exact(readout: np.ndarray, totals: np.ndarray) -> tuple[Fraction, Fraction]:
    """(sigma_theta, sigma_var) of one series in rational arithmetic.

    Straight from the delete-one definition: without pulse i the
    variance is ``N_i / D`` with ``N_i = (n-1)(S2 - x_i^2) - (S1 - x_i)^2``
    and ``D = (n-1)(n-2)``, and theta is ``Q_i / (3 D)`` with
    ``Q_i = 3 N_i - 2 (n-2)(T1 - t_i)``, all integers (as Python ints).
    Only the final square roots are approximated, to 2**-160.
    """
    x, t = readout.astype(object), totals.astype(object)
    n = x.size
    s1, s2, t1 = x.sum(), (x * x).sum(), t.sum()
    var_num = (n - 1) * (s2 - x * x) - (s1 - x) ** 2
    theta_num = 3 * var_num - 2 * (n - 2) * (t1 - t)
    den = (n - 1) * (n - 2)

    def sigma(num, scale):
        spread = n * (num * num).sum() - num.sum() ** 2
        return _sqrt_fraction(Fraction((n - 1) * spread, n * n * scale * scale))

    return sigma(theta_num, 3 * den), sigma(var_num, den)


def conditional_width_exact(values: np.ndarray, partners: np.ndarray, bin_width: int):
    """The conditional width in rational arithmetic, with its skipped bins.

    Returns (width, empty bins, singleton bins); each bin's variance is
    exact and its square root good to 2**-160.
    """
    groups: dict[int, list[int]] = {}
    for b, v in zip((partners // bin_width).tolist(), values.tolist()):
        groups.setdefault(b, []).append(v)
    total, weight = Fraction(0), 0
    for vals in groups.values():
        k = len(vals)
        if k >= 2:
            mean = Fraction(sum(vals), k)
            total += k * _sqrt_fraction(sum((v - mean) ** 2 for v in vals) / (k - 1))
            weight += k
    span = max(groups) - min(groups) + 1 if groups else 0
    singles = sum(len(vals) == 1 for vals in groups.values())
    width = total / weight if weight else Fraction(0)
    return max(width, Fraction(1)), span - len(groups), singles


# -- single-pulse view -------------------------------------------------------------


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
    rng: np.random.Generator,
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
    q = math.tanh(gamma) ** 2
    n = int(rng.geometric(1.0 - q)) - 1
    m = int(rng.geometric(1.0 - q)) - 1
    ideal = paired_modes(n, m, count_pairing(label, comp))
    detected = tuple(int(rng.binomial(k, eta)) for k in ideal)
    return PulseRecord(pulse_id=pulse_id, counts=detected, setting=setting)


def epsilon_brute_force(gamma: float, n_total: int, rel_tol: float = 1e-18) -> float:
    """Direct positive tail sum sum_{s > N} (s+1) q^s (1-q)^2.

    No cancellation: terms are added until they stop mattering at
    ``rel_tol`` relative to the accumulated tail (the neglected
    remainder is then O(rel_tol * q / (1-q)) relative).
    """
    q = math.tanh(gamma) ** 2
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


def kbar_truncation_bounds(gamma: float, n_total: int) -> tuple[float, float]:
    """(lower, upper) sandwich for ``truncated_kbar`` in terms of the full K.

    ((1-eps)/(1+eps))^2 K  <=  K^T  <=  (1 - eps) K.

    Exact-arithmetic bounds; numerical evaluations of K^T can graze
    either end within a few ulps once eps underflows, so comparisons
    should allow ~1e-12 relative slack.
    """
    eps = epsilon_from_cutoff(gamma, n_total)
    if eps == 1.0:  # as truncated_kbar: no K^T to bound, and kbar can overflow
        raise ValueError(f"epsilon rounds to 1 at gamma {gamma}, cutoff {n_total}")
    k = kbar(gamma)
    return (((1.0 - eps) / (1.0 + eps)) ** 2 * k, (1.0 - eps) * k)


def recomputed_value(report) -> float:
    """A witness value from its parts: sum of the variance terms minus 2 <S_0>."""
    return float(sum(report.variance_terms) - 2.0 * report.mean_s0)


def mode_strides(n_levels: int) -> tuple[int, int, int, int]:
    """Strides of (a_H, a_V, b_H, b_V) in the flattened four-mode index."""
    return (n_levels**3, n_levels**2, n_levels, 1)


def ket_index(n_levels: int, n_ah, n_av, n_bh, n_bv):
    """Flattened index of one four-mode ket (a_H slowest); scalars or arrays."""
    s = mode_strides(n_levels)
    return n_ah * s[0] + n_av * s[1] + n_bh * s[2] + n_bv * s[3]


def interior_mask(basis: FourModeBasis, margin: int = 1) -> np.ndarray:
    """Kets with every occupation <= n_max - margin.

    Commutation relations of the truncated Stokes operators hold exactly
    only on this sub-block; the cutoff edge rows see amputated raising
    transitions.
    """
    return (basis.occupations() <= basis.n_max - margin).all(axis=0)


def _pair_creation_generator(label: BellLabel, gamma: float, basis: FourModeBasis) -> sp.csr_matrix:
    """Sparse anti-Hermitian generator gamma*(K+ - K-) of the label's Hamiltonian.

    K+ = aH+ bV+ + sign * aV+ bH+   (cross pairing, psi labels)
    K+ = aH+ bH+ + sign * aV+ bV+   (parallel pairing, phi labels)
    """
    occ = basis.occupations()
    s = mode_strides(basis.n_levels)
    if label.pairing == "cross":
        pairs = [((0, 3), 1.0), ((1, 2), float(label.sign))]
    else:
        pairs = [((0, 2), 1.0), ((1, 3), float(label.sign))]
    rows, cols, vals = [], [], []
    src = np.arange(basis.dim)
    for (i, j), coef in pairs:
        ok = (occ[i] < basis.n_max) & (occ[j] < basis.n_max)
        amp = coef * np.sqrt((occ[i][ok] + 1.0) * (occ[j][ok] + 1.0))
        tgt = src[ok] + s[i] + s[j]
        # creation part K+
        rows.append(tgt)
        cols.append(src[ok])
        vals.append(gamma * amp)
        # minus the annihilation part K-
        rows.append(src[ok])
        cols.append(tgt)
        vals.append(-gamma * amp)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))


def evolve_from_vacuum(
    label: BellLabel, gamma: float, n_max: int, steps: int = 1
) -> np.ndarray:
    """Bell state, as a dense vector, by numerically exponentiating the
    two-process Hamiltonian.

    This is the independent cross-check of :func:`build_bell_state`: the
    generator ``gamma (K+ - K-)`` is applied to the vacuum with a
    truncated matrix exponential (``steps`` > 1 splits it into equal
    substeps).  The truncated generator is still anti-Hermitian, so the
    evolution is exactly unitary; truncation error appears as amplitude
    reaching the cutoff edge, which is measured and gated rather than
    showing up as norm loss.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    basis = FourModeBasis(n_max)
    gen = _pair_creation_generator(label, gamma / steps, basis)
    vec = basis.vacuum(dtype=np.float64)
    for _ in range(steps):
        vec = expm_multiply(gen, vec)
    drift = abs(float(vec @ vec) - 1.0)
    if drift > 1e-8:
        raise NumericError(f"unitarity drift {drift:.3e} in truncated evolution")
    leak = vector_edge_mass(vec, depth=2)
    if leak > 1e-8:
        raise TruncationMassError(
            leak, 1e-8,
            f"evolved state puts mass {leak:.3e} within two photons of the "
            f"cutoff {n_max}; raise the cutoff or lower gamma",
        )
    return vec.astype(np.complex128)


def _outer_pair_norm(x1, y1, x2, y2) -> float:
    """||x1 y1^T + x2 y2^T||^2 without cancellation: splitting x2 into
    kappa x1 plus a part orthogonal to x1 leaves two orthogonal outer products."""
    xx = _norm_sq(x1)
    # Python's complex division divides by a subnormal xx directly; numpy's
    # takes its reciprocal first, which overflows
    kappa = complex(np.vdot(x1, x2)) / xx if xx else 0.0
    return xx * _norm_sq(y1 + kappa * y2) + _norm_sq(x2 - kappa * x1) * _norm_sq(y2)


def factored_moments(coeffs: dict, state: FourModeState) -> tuple:
    """Normalized (<O>, <O^2>) from the Schmidt factor arrays of a paired state.

    With amplitudes ``u_n v_m``, O psi has three mutually orthogonal
    parts, each a sum of two outer products:

    * ``(A n u) v^T + u (B m v)^T`` on the paired kets, ``A, B = c0 +- c1``
      with ``c0 = c0a + c0b`` and ``c1 = c1a -+ c1b`` (- for cross
      pairing, + for parallel);
    * ``ra p q^T + rb r s^T`` and ``conj(rb) p q^T + conj(ra) r s^T`` on
      the two hop planes, with ``p_i, r_i = sqrt(i+1) (u_i, u_{i+1})``,
      ``q_j, s_j = sqrt(j+1) (v_{j+1}, v_j)``, ``ra = c2a - i c3a`` and
      ``rb = c2b - i c3b`` (conjugated for parallel pairing).

    The mean comes from the paired part alone and ``<O^2> = ||O psi||^2``,
    each a sum over the arrays in O(n_max).  On a Bell state the two
    terms of a matched hop plane cancel to the last digit, which
    :func:`_outer_pair_norm` survives.
    """
    u, v = factors(state)
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = _h_v_form(state)[0] == "cross"
    su, sv = _norm_sq(u), _norm_sq(v)
    if su * sv == 0.0:
        raise ValueError("zero state")
    n = np.arange(u.size, dtype=np.float64)
    c0 = c[0, "a"] + c[0, "b"]
    c1 = c[1, "a"] - c[1, "b"] if cross else c[1, "a"] + c[1, "b"]
    mean = second = 0.0
    if c0 or c1:
        a, b = c0 + c1, c0 - c1
        mean = a * float(n @ np.abs(u) ** 2) / su + b * float(n @ np.abs(v) ** 2) / sv
        second = _outer_pair_norm(n * u, a * v, u, b * n * v)
    ra, rb = complex(c[2, "a"], -c[3, "a"]), complex(c[2, "b"], -c[3, "b"])
    if not cross:
        rb = rb.conjugate()
    if ra or rb:
        k = np.sqrt(n[1:])
        p, r, q, s = k * u[:-1], k * u[1:], k * v[1:], k * v[:-1]
        second += (_outer_pair_norm(p, ra * q, r, rb * s)
                   + _outer_pair_norm(p, rb.conjugate() * q, r, ra.conjugate() * s))
    return mean, second / (su * sv)


def _table_moments(coeffs: dict, state: FourModeState) -> tuple:
    """Normalized (<O>, <O^2>) straight from the (n, m) table.

    With T the table and 0 <= n, m <= n_max, O psi has three parts:

    * on the paired kets, ``((c1a -+ c1b)(n - m) + (c0a + c0b)(n + m)) T[n, m]``
      (- for cross pairing, + for parallel);
    * the "+1" plane over ``T[:-1, 1:]``,
      ``sqrt((n+1) m) (ra T[n, m] + rb T[n+1, m-1])``;
    * the "-1" plane over ``T[1:, :-1]``,
      ``sqrt(n (m+1)) (la T[n, m] + lb T[n-1, m+1])``;

    with ``ra = c2a - i c3a``, ``la = c2a + i c3a`` and, for cross
    pairing, ``rb = c2b - i c3b``, ``lb = c2b + i c3b`` (swapped for
    parallel pairing).  The three parts are mutually orthogonal, so the
    mean comes from the paired part alone and ``<O^2> = ||O psi||^2`` is
    the sum of their squared norms.
    """
    table = amplitude_table(state)
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = _h_v_form(state)[0] == "cross"
    weight = np.abs(table) ** 2
    den = float(weight.sum())
    if den == 0.0:
        raise ValueError("zero state")
    n = np.arange(table.shape[0], dtype=np.float64)
    c0 = c[0, "a"] + c[0, "b"]
    c1 = c[1, "a"] - c[1, "b"] if cross else c[1, "a"] + c[1, "b"]
    mean = second = 0.0
    if c0 or c1:
        diag = c1 * (n[:, None] - n) + c0 * (n[:, None] + n)
        mean = float(np.sum(diag * weight)) / den
        second = float(np.sum(diag * diag * weight))
    ra, la = complex(c[2, "a"], -c[3, "a"]), complex(c[2, "a"], c[3, "a"])
    rb, lb = complex(c[2, "b"], -c[3, "b"]), complex(c[2, "b"], c[3, "b"])
    if not cross:
        rb, lb = lb, rb
    if ra or rb:
        w = np.sqrt(np.outer(n[1:], n[1:]))
        up, down = w * table[:-1, 1:], w * table[1:, :-1]
        second += _norm_sq(ra * up + rb * down) + _norm_sq(la * down + lb * up)
    return mean, second / den


def pairing_distribution(label: BellLabel, component: int, gamma: float, n_max: int):
    """Exact joint photocount probabilities for a canonical setting.

    Returns (support, probs): support rows are (x_a, y_a, x_b, y_b).
    """
    lam = pair_spectrum(gamma, n_max)
    n = np.arange(n_max + 1, dtype=np.int64)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    support = np.stack(paired_modes(nn.ravel(), mm.ravel(), count_pairing(label, component)),
                       axis=1)
    return support, np.outer(lam, lam).ravel()


def analyzer_jones(setting) -> np.ndarray:
    """Jones matrix of a ``MeasurementSetting``: the half-wave plate after
    the quarter-wave plate."""
    return half_wave_plate(setting.hwp_deg, "a")[0] @ quarter_wave_plate(setting.qwp_deg, "a")[0]


def analyzer_distribution(state: FourModeState, setting):
    """Joint count probabilities straight from the transformed amplitudes.

    Lifts the state through the setting's plates on both beams and reads
    |amplitude|^2 in the H/V number basis -- the generic (slow) route that
    the library's ``count_pairing`` shortcuts.
    """
    jones = analyzer_jones(setting)
    vec = lifted_vector(replace(state, label=None, jones=tuple(jones if j is None else jones @ j
                                                               for j in state.jones)))
    probs = np.abs(vec) ** 2
    probs = probs / probs.sum()
    return FourModeBasis(state.n_max).occupations().T.copy(), probs


def sample_analyzer_counts(
    state: FourModeState,
    setting,
    pulses: int,
    rng: np.random.Generator,
    eta: float = 1.0,
) -> np.ndarray:
    """Sample (pulses, 4) detected counts through the generic slow path."""
    support, probs = analyzer_distribution(state, setting)
    idx = rng.choice(probs.size, size=pulses, p=probs)
    counts = support[idx]
    if eta < 1.0:
        counts = rng.binomial(counts, eta)
    return counts.astype(np.int64)
