"""Variance-based entanglement witnesses for the compound two-beam field.

Any state separable across the beams obeys

    Var(S_1) + Var(S_2) + Var(S_3)  >=  2 <S_0>,

with ``S_i = S_i^a + S_i^b``.  Replacing selected beam-*b* operators by
their negatives gives three more inequalities; each of the four sign
patterns is violated maximally (all three variances vanish) by exactly
one of the macroscopic Bell states:

    kind    signs (s_1, s_2, s_3)    maximally violated by
    W_S        (+, +, +)             psi-minus
    W_T1       (+, -, -)             psi-plus
    W_T2       (-, -, +)             phi-plus
    W_T3       (-, +, -)             phi-minus

where the witness value is ``sum_i Var(S_i^a + s_i S_i^b) - 2 <S_0>``;
a negative value certifies entanglement, and on the matched state it
equals ``-2 <S_0>``.

The sign patterns are connected by local unitaries: conjugating W_S by
``exp(i pi n_bH)`` flips the beam-*b* sign of S_2 and S_3 and yields
W_T1 (exactly, at the matrix level); substituting S_1 -> S_3,
S_3 -> -S_1 (a quarter-wave rotation of the Poincare sphere) turns W_T1
into W_T2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import FourModeBasis
from .states import BellLabel, FourModeState, TruncationMassError, build_bell_state
from .stokes import (
    combination_matrix,
    stokes_operator,
    variance_of_combination,
    _as_vector,
    _real_expectation,
)

#: gate for exact variance claims (see stokes module docstring)
EDGE_MASS_TOL = 1e-10


class WitnessKind(enum.Enum):
    W_S = "W_S"
    W_T1 = "W_T1"
    W_T2 = "W_T2"
    W_T3 = "W_T3"

    @property
    def signs(self) -> tuple[int, int, int]:
        return {
            WitnessKind.W_S: (+1, +1, +1),
            WitnessKind.W_T1: (+1, -1, -1),
            WitnessKind.W_T2: (-1, -1, +1),
            WitnessKind.W_T3: (-1, +1, -1),
        }[self]

    @property
    def matched_state(self) -> BellLabel:
        return {
            WitnessKind.W_S: BellLabel.PSI_MINUS,
            WitnessKind.W_T1: BellLabel.PSI_PLUS,
            WitnessKind.W_T2: BellLabel.PHI_PLUS,
            WitnessKind.W_T3: BellLabel.PHI_MINUS,
        }[self]


@dataclass
class WitnessReport:
    """Value and per-term breakdown of one witness evaluation.

    ``value = sum(variance_terms) - 2 * mean_s0`` always; the error
    fields are populated for sampled (Monte-Carlo) estimates only.
    """

    kind: WitnessKind
    value: float
    variance_terms: tuple[float, float, float]
    mean_s0: float
    variance_errors: tuple[float, float, float] | None = None
    value_error: float | None = None
    meta: dict = field(default_factory=dict)

    def recomputed_value(self) -> float:
        return float(sum(self.variance_terms) - 2.0 * self.mean_s0)


def witness_term_coeffs(kind: WitnessKind) -> list[dict]:
    """The three (component, beam) -> coefficient maps of a witness kind."""
    return [
        {(i, "a"): 1.0, (i, "b"): float(s)}
        for i, s in zip((1, 2, 3), kind.signs)
    ]


def evaluate_witness(
    kind: WitnessKind,
    state: FourModeState,
    basis: FourModeBasis | None = None,
    method: str = "auto",
) -> WitnessReport:
    """Exact witness value on a truncated state.

    Refuses (raises :class:`TruncationMassError`) when the state keeps
    more than ``EDGE_MASS_TOL`` of its mass within two photons of the
    cutoff -- variances would then be truncation artifacts rather than
    physics.
    """
    mass = state.edge_mass(depth=2)
    if mass > EDGE_MASS_TOL:
        raise TruncationMassError(mass, EDGE_MASS_TOL)
    basis = basis or FourModeBasis(state.n_max)
    terms = tuple(
        variance_of_combination(c, state, basis=basis, method=method)
        for c in witness_term_coeffs(kind)
    )
    vec, _ = _as_vector(state, basis)
    den = float(np.vdot(vec, vec).real)
    occ = basis.occupations()
    s0_diag = (occ[0] + occ[1] + occ[2] + occ[3]).astype(np.float64)
    mean_s0 = float(np.sum(s0_diag * np.abs(vec) ** 2) / den)
    value = float(sum(terms) - 2.0 * mean_s0)
    return WitnessReport(
        kind=kind, value=value, variance_terms=terms, mean_s0=mean_s0,
        meta={"gamma": state.gamma, "cutoff": state.n_max,
              "label": state.label.value if state.label else None,
              "source": "exact"},
    )


def cutoff_for_edge_mass(gamma: float, tol: float = EDGE_MASS_TOL, margin: int = 2) -> int:
    """Smallest per-mode cutoff that passes the witness edge-mass gate.

    For the geometric spectrum the mass with either Schmidt index at
    ``n_max - 1`` or above is ``1 - (1 - q^{n_max-1})^2`` with
    ``q = tanh(gamma)^2``; a couple of extra levels of headroom are
    added on top.
    """
    q = math.tanh(gamma) ** 2
    if q == 0.0:
        return 2
    n = 2
    while True:
        mass = 1.0 - (1.0 - q ** (n - 1)) ** 2
        if mass < tol:
            return n + margin
        n += 1
        if n > 10_000:
            raise ValueError("no feasible cutoff below 10000; gamma too large")


# -- separability -------------------------------------------------------------


def separability_gap(state, basis: FourModeBasis | None = None) -> float:
    """Var(S_1) + Var(S_2) + Var(S_3) - 2 <S_0> of the compound beam.

    Negative only for beam-beam entangled states (this is the W_S
    pattern).  Accepts a FourModeState, a dense vector, or a mixed
    state as an iterable of ``(weight, vector)`` pairs (weights
    summing to 1); mixing can only increase the gap, so separable
    mixtures of product vectors stay >= 0.
    """
    ensemble = _as_ensemble(state, basis)
    basis = ensemble[0][2]
    total = 0.0
    mats = [combination_matrix({(i, "a"): 1.0, (i, "b"): 1.0}, basis) for i in (1, 2, 3)]
    occ = basis.occupations()
    s0_diag = (occ.sum(axis=0)).astype(np.float64)
    mean_s0 = 0.0
    for i, mat in enumerate(mats):
        second = 0.0
        first = 0.0
        for w, vec, _ in ensemble:
            ov = mat @ vec
            den = float(np.vdot(vec, vec).real)
            first += w * _real_expectation(np.vdot(vec, ov), den, "gap mean")
            second += w * float(np.vdot(ov, ov).real) / den
        total += second - first * first
    for w, vec, _ in ensemble:
        den = float(np.vdot(vec, vec).real)
        mean_s0 += w * float(np.sum(s0_diag * np.abs(vec) ** 2) / den)
    return float(total - 2.0 * mean_s0)


def _as_ensemble(state, basis):
    from .stokes import _as_vector as asv

    if isinstance(state, FourModeState) or isinstance(state, np.ndarray):
        vec, basis = asv(state, basis)
        return [(1.0, vec, basis)]
    out = []
    for w, vec in state:
        v, basis = asv(vec, basis)
        out.append((float(w), v, basis))
    if abs(sum(w for w, _, _ in out) - 1.0) > 1e-12:
        raise ValueError("ensemble weights must sum to 1")
    return out


def product_state_battery(seed: int, n_states: int = 24, n_max: int = 12) -> list:
    """Named separable test states: coherent / Fock / thermal-like products.

    Every entry is separable across the a|b beam split by construction:
    pure products ``|beam a> (x) |beam b>``, or convex mixtures of such
    products.  Returns ``[(name, ensemble), ...]`` with ensembles in the
    format :func:`separability_gap` accepts.
    """
    rng = np.random.default_rng(seed)
    d = n_max + 1
    basis = FourModeBasis(n_max)

    def coherent_mode(alpha):
        # exp(-|a|^2/2) a^n / sqrt(n!), renormalized after the cutoff
        n = np.arange(d)
        from scipy.special import gammaln

        if alpha == 0:
            amp = np.zeros(d, complex)
            amp[0] = 1.0
        else:
            amp = np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** n / np.exp(0.5 * gammaln(n + 1.0))
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

    battery = []
    battery.append(("vacuum", [(1.0, basis.vacuum())]))
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


# -- cross-witness table and local-unitary structure -------------------------


def cross_witness_matrix(
    gamma: float, n_max: int | None = None, method: str = "auto"
) -> tuple[np.ndarray, list[WitnessKind], list[BellLabel]]:
    """All four witnesses on all four Bell states at one gain.

    Returns (matrix, row_kinds, col_labels); rows are witness kinds,
    columns states.  The diagonal (matched pairs) is ``-2<S_0>``,
    negative for any gamma > 0.
    """
    if n_max is None:
        n_max = cutoff_for_edge_mass(gamma)
    basis = FourModeBasis(n_max)
    kinds = list(WitnessKind)
    labels = [k.matched_state for k in kinds]
    out = np.empty((4, 4))
    for j, label in enumerate(labels):
        state = build_bell_state(label, gamma, n_max)
        for i, kind in enumerate(kinds):
            out[i, j] = evaluate_witness(kind, state, basis=basis, method=method).value
    return out, kinds, labels


def u_b_pi_phase_diagonal(basis: FourModeBasis) -> np.ndarray:
    """Diagonal of exp(i pi n_bH): +/-1 per ket."""
    return np.where(basis.occupations()[2] % 2 == 0, 1.0, -1.0)


def witness_term_matrices(kind: WitnessKind, basis: FourModeBasis) -> list:
    """Sparse matrices of the three signed combinations of a witness."""
    return [combination_matrix(c, basis) for c in witness_term_coeffs(kind)]


def conjugated_term_matrices(kind: WitnessKind, basis: FourModeBasis) -> list:
    """The witness term matrices conjugated by exp(i pi n_bH).

    Conjugation by the (real, diagonal, involutive) pi-phase flips the
    sign of every operator entry that changes n_bH parity -- S_2^b and
    S_3^b flip, S_1 and S_0 do not.  Exact in floating point.
    """
    u = u_b_pi_phase_diagonal(basis)
    out = []
    for m in witness_term_matrices(kind, basis):
        m = m.tocoo()
        vals = m.data * u[m.row] * u[m.col]
        import scipy.sparse as sp

        out.append(sp.csr_matrix((vals, (m.row, m.col)), shape=m.shape))
    return out


def substituted_t1_matrices(basis: FourModeBasis) -> list:
    """W_T1 terms under S_1 -> S_3, S_3 -> -S_1 (per beam).

    Term order follows the substituted component order (3, 2, 1); the
    third matrix comes out as minus the corresponding W_T2 term, which
    leaves its variance unchanged.
    """
    signs = WitnessKind.W_T1.signs
    subbed = []
    # term for component 1 becomes component 3, same signs
    subbed.append(combination_matrix({(3, "a"): 1.0, (3, "b"): float(signs[0])}, basis))
    subbed.append(combination_matrix({(2, "a"): 1.0, (2, "b"): float(signs[1])}, basis))
    subbed.append(combination_matrix({(1, "a"): -1.0, (1, "b"): -float(signs[2])}, basis))
    return subbed
