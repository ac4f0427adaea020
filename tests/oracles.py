"""Independently constructed reference objects for the test suite.

Everything here is assembled from single-mode ladder matrices chained
with scipy.sparse.kron, a sparse matrix exponential, explicit index
loops, full ``(n, m)`` amplitude tables, term-by-term tail sums and
dense eigensolves -- deliberately a
different construction from the library's stride arithmetic and closed
forms, so that agreement between the two is a meaningful check rather
than a tautology.  The simulation references repeat the library's
arithmetic with a full count table, a full-length temporary per
expression and an int64 sort, so there the two must agree exactly.
"""

import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from macrobell.basis import FourModeBasis
from macrobell.polarization import BasisTransform, apply_transform, half_wave_plate, quarter_wave_plate
from macrobell.simulate import count_pairing
from macrobell.states import (
    BellLabel,
    FourModeState,
    NumericError,
    TruncationMassError,
    _norm_sq,
    check_memory,
    geometric_ratio,
    paired_modes,
    schmidt_spectrum,
)
from macrobell.stokes import _TERMS


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


def kron_stokes(component: int, beam: str, d: int) -> sp.csr_matrix:
    """Stokes operator built from kron-lifted ladder products."""
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


def edge_mass_cutoff(gamma: float, tol: float = 1e-10, margin: int = 2) -> int:
    """Smallest per-mode cutoff passing the witness edge-mass gate, by
    stepping the cutoff until the mass ``1 - (1 - q^(n-1))^2`` drops
    below ``tol``."""
    q = math.tanh(gamma) ** 2
    if q == 0.0:
        return 2
    n = 2
    while True:
        mass = 1.0 - (1.0 - q ** (n - 1)) ** 2
        if mass < tol:
            return n + margin
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


def tensor_route_matrix(coeffs: dict, d: int) -> np.ndarray:
    """Dense matrix of the library's matrix-free ``apply_combination_tensor``
    over d levels per mode, tabulated column by column (d**4 applications,
    so keep d <= 6).

    Not an oracle: it exposes the production route at the matrix level so
    that operator identities can be checked on it and against the
    kron-built operators above.
    """
    from macrobell.stokes import apply_combination_tensor

    dim = d**4
    out = np.empty((dim, dim), dtype=np.complex128)
    unit = np.zeros(dim, dtype=np.complex128)
    for col in range(dim):
        unit[col] = 1.0
        out[:, col] = apply_combination_tensor(coeffs, unit.reshape(d, d, d, d)).ravel()
        unit[col] = 0.0
    return out


def pulse_log_bytes(config, run: int = 0) -> bytes:
    """The NDJSON pulse log of ``estimate_witness``, one ``json.dumps`` per pulse.

    Re-draws each series' counts from the library's block sampler and
    serializes every pulse record on its own, the reference for the
    library's chunked template writer.
    """
    from macrobell.simulate import CANONICAL_SETTINGS, _sample_series_counts, count_pairing

    lines = []
    for series in range(3):
        comp = series + 1
        counts = _sample_series_counts(config, count_pairing(config.label, comp), series, run)
        h, qw = CANONICAL_SETTINGS[comp]
        setting = {"hwp_deg": h, "qwp_deg": qw, "component": comp}
        for j in range(config.pulses):
            lines.append(json.dumps({
                "pulse_id": series * config.pulses + j,
                "setting": setting,
                "counts": counts[j].tolist(),
            }, separators=(",", ":")) + "\n")
    return "".join(lines).encode()


def witness_reference(config, kind=None, run: int = 0) -> tuple:
    """``estimate_witness`` reducing each series' full (pulses, 4) count table.

    Returns (value, value_error, variance_terms, variance_errors, mean_s0).
    The library reduces each block as it is drawn instead; integer sums
    are exact, so the two must agree exactly.
    """
    from macrobell.simulate import _jackknife_series, _sample_series_counts, matched_witness

    kind = kind or matched_witness(config.label)
    variance_terms, theta_sigmas, var_sigmas = [], [], []
    theta_sum = mean_s0 = 0.0
    for series, sign in enumerate(kind.signs):
        pairing = count_pairing(config.label, series + 1)
        xa, ya, xb, yb = _sample_series_counts(config, pairing, series, run).T
        readout = xa - ya
        readout += sign * (xb - yb)
        totals = xa + ya + xb + yb
        var_full, mean_full, theta, s_theta, s_var = _jackknife_series(readout, totals)
        variance_terms.append(var_full)
        theta_sigmas.append(s_theta)
        var_sigmas.append(s_var)
        theta_sum += theta
        mean_s0 += mean_full / 3.0
    sigma = math.sqrt(sum(s * s for s in theta_sigmas))
    return float(theta_sum), float(sigma), tuple(variance_terms), tuple(var_sigmas), float(mean_s0)


def jackknife_reference(readout: np.ndarray, totals: np.ndarray):
    """``_jackknife_series`` as full-length temporaries, one per expression.

    The library computes the same float64 operations in the same order in
    place, so the two must agree exactly, not to a tolerance.
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
    m = n - 1.0
    s1 = S1 - x
    s2 = S2 - x * x
    t1 = T1 - t
    var_del = (s2 - s1 * s1 / m) / (m - 1.0)
    mean_del = t1 / m
    theta_del = var_del - (2.0 / 3.0) * mean_del
    sigma_theta = math.sqrt((n - 1) / n * np.sum((theta_del - theta_del.mean()) ** 2))
    sigma_var = math.sqrt((n - 1) / n * np.sum((var_del - var_del.mean()) ** 2))
    return var_full, mean_full, theta_full, sigma_theta, sigma_var


def conditional_width_reference(values: np.ndarray, partners: np.ndarray, bin_width: int):
    """``_conditional_width`` sorting the int64 bin numbers themselves.

    Returns (width, empty bins, singleton bins); the library sorts a
    narrowed key stably, which must give the same permutation.
    """
    bins = partners // bin_width
    order = np.argsort(bins, kind="stable")
    b_sorted = bins[order]
    groups = np.split(values[order].astype(np.float64), np.flatnonzero(np.diff(b_sorted)) + 1)
    total = weight = 0.0
    skipped = 0
    for grp in groups:
        if grp.size >= 2:
            total += grp.size * grp.std(ddof=1)
            weight += grp.size
        else:
            skipped += 1
    span = int(b_sorted[-1] - b_sorted[0]) + 1 if b_sorted.size else 0
    width = total / weight if weight > 0 else 0.0
    return max(width, 1.0), max(span - len(groups), 0), skipped


def epsilon_brute_force(gamma: float, n_total: int, rel_tol: float = 1e-18) -> float:
    """Direct positive tail sum sum_{s > N} (s+1) q^s (1-q)^2.

    No cancellation: terms are added until they stop mattering at
    ``rel_tol`` relative to the accumulated tail (the neglected
    remainder is then O(rel_tol * q / (1-q)) relative).
    """
    q = geometric_ratio(gamma)
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


def _pair_creation_generator(label: BellLabel, gamma: float, basis: FourModeBasis) -> sp.csr_matrix:
    """Sparse anti-Hermitian generator gamma*(K+ - K-) of the label's Hamiltonian.

    K+ = aH+ bV+ + sign * aV+ bH+   (cross pairing, psi labels)
    K+ = aH+ bH+ + sign * aV+ bV+   (parallel pairing, phi labels)
    """
    occ = basis.occupations()
    s = basis.strides
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
) -> FourModeState:
    """Bell state by numerically exponentiating the two-process Hamiltonian.

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
    state = FourModeState(gamma=gamma, n_max=n_max, label=None, vector=vec.astype(np.complex128))
    leak = state.edge_mass(depth=2)
    if leak > 1e-8:
        raise TruncationMassError(
            leak, 1e-8,
            f"evolved state puts mass {leak:.3e} within two photons of the "
            f"cutoff {n_max}; raise the cutoff or lower gamma",
        )
    return state


def _outer_pair_norm(x1, y1, x2, y2) -> float:
    """||x1 y1^T + x2 y2^T||^2 without cancellation: splitting x2 into
    kappa x1 plus a part orthogonal to x1 leaves two orthogonal outer products."""
    xx = _norm_sq(x1)
    kappa = np.vdot(x1, x2) / xx if xx else 0.0
    return xx * _norm_sq(y1 + kappa * y2) + _norm_sq(x2 - kappa * x1) * _norm_sq(y2)


def factored_moments(coeffs: dict, state: FourModeState, basis: FourModeBasis | None) -> tuple:
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
    :func:`_outer_pair_norm` survives.  A basis larger than the state's
    cutoff zero-pads the factors, which moves the amputation to its edge.
    """
    u, v = state.u, state.v
    if basis is not None and basis.n_max != state.n_max:
        if basis.n_max < state.n_max:
            raise ValueError("target basis cutoff smaller than the state's")
        pad = (0, basis.n_max - state.n_max)
        u, v = np.pad(u, pad), np.pad(v, pad)
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = state.pairing == "cross"
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


def _table_moments(coeffs: dict, state: FourModeState, basis: FourModeBasis | None) -> tuple:
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
    the sum of their squared norms.  A basis larger than the state's
    cutoff zero-pads the table, which moves the amputation to its edge.
    """
    table = state.table
    if basis is not None and basis.n_max != state.n_max:
        if basis.n_max < state.n_max:
            raise ValueError("target basis cutoff smaller than the state's")
        check_memory(basis.n_levels**2, f"amplitude table padded to cutoff {basis.n_max}")
        pad = basis.n_max - state.n_max
        table = np.pad(table, ((0, pad), (0, pad)))
    c = {key: float(coeffs.get(key, 0.0)) for key in _TERMS}
    cross = state.pairing == "cross"
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
    lam = schmidt_spectrum(gamma, n_max)
    lam = lam / lam.sum()
    n = np.arange(n_max + 1, dtype=np.int64)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    support = np.stack(paired_modes(nn.ravel(), mm.ravel(), count_pairing(label, component)),
                       axis=1)
    return support, np.outer(lam, lam).ravel()


def analyzer_jones(setting) -> np.ndarray:
    """Jones matrix of a ``MeasurementSetting``: the half-wave plate after
    the quarter-wave plate."""
    return half_wave_plate(setting.hwp_deg).jones @ quarter_wave_plate(setting.qwp_deg).jones


def analyzer_distribution(state: FourModeState, setting):
    """Joint count probabilities straight from the transformed amplitudes.

    Rotates the state through the setting's plates on both beams and
    reads |amplitude|^2 in the H/V number basis -- the generic (slow)
    route that the library's ``count_pairing`` shortcuts.
    """
    tr = BasisTransform(kind="analyzer", target="both", jones=analyzer_jones(setting))
    rotated = apply_transform(state, tr)
    basis = FourModeBasis(state.n_max)
    vec = rotated.dense(basis)
    probs = np.abs(vec) ** 2
    probs = probs / probs.sum()
    return basis.occupations().T.copy(), probs


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
