"""Independently constructed reference objects for the test suite.

Everything here is assembled from single-mode ladder matrices chained
with scipy.sparse.kron, explicit index loops and dense eigensolves --
deliberately a different construction from the library's stride
arithmetic and closed forms, so that agreement between the two is a
meaningful check rather than a tautology.
"""

import json
import math

import numpy as np
import scipy.sparse as sp


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
