"""Four-mode bright-squeezed-vacuum polarization Bell states.

Two collinear type-II downconversion processes pumped coherently produce
four modes (two beams ``a``, ``b`` with polarizations ``H``, ``V``)
whose joint state is a macroscopic analogue of a two-qubit Bell state.
With gain ``gamma`` the un-normalized Schmidt weights of each two-mode
squeezed pair are

    lambda_n = tanh(gamma)^{2n} / cosh(gamma)^2 ,

a geometric law with ratio ``tanh(gamma)^2`` and mean photon number per
mode ``N0 = sinh(gamma)^2``.

The four state labels come in two pairing families.  In the H/V Fock
basis the "psi" states occupy kets ``|n, m>_a |m, n>_b`` (cross pairing:
``n_aH = n_bV``, ``n_aV = n_bH``), the "phi" states occupy
``|n, m>_a |n, m>_b`` (parallel pairing), in both cases with amplitude
``(sign)^m * sqrt(lambda_n lambda_m)`` where ``sign`` is +1 for the
"plus" labels and -1 for the "minus" ones.  The phi states take the
cross-paired (Schmidt) form in their natural polarization bases instead
(circular for phi-plus, +/-45 degrees linear for phi-minus); that basis
is carried as metadata.

The ``(n, m)`` amplitude table is rank one, ``u_n v_m``: the state is a
product of two truncated two-mode squeezed vacua.  It is stored as the
two Schmidt factors ``u``, ``v`` (O(n_max) numbers), so norms, edge
masses, fidelities and sectors are products of 1-D sums; the table is a
view built on request, and :meth:`FourModeState.dense` expands onto a
:class:`~macrobell.basis.FourModeBasis` enumeration for operator work.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import FourModeBasis


class NumericError(RuntimeError):
    """A numerical invariant failed (non-convergence, complex leakage...)."""


class TruncationMassError(ValueError):
    """Too much amplitude mass near the cutoff for the requested claim."""

    def __init__(self, mass: float, tol: float, message: str = ""):
        self.mass = mass
        self.tol = tol
        text = message or (
            f"amplitude mass {mass:.3e} within two photons of the cutoff "
            f"exceeds the allowed {tol:.1e}; raise the cutoff"
        )
        super().__init__(text)


#: complex amplitudes a Stokes-moment route holds at its peak, per
#: amplitude of the state it works on (with headroom over tracemalloc)
PEAK_ARRAYS = 10


def available_memory() -> int:
    """Bytes free for new allocations: ``MemAvailable`` from
    ``/proc/meminfo`` where the kernel reports it, else physical memory."""
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(count: int, what: str, item_bytes: int = PEAK_ARRAYS * 16,
                 unit: str = "amplitudes") -> None:
    """Refuse work on ``count`` items that cannot fit.

    The peak is estimated as ``item_bytes`` per item, by default
    ``PEAK_ARRAYS`` complex128 arrays per complex amplitude; beyond
    :func:`available_memory` this raises :class:`NumericError` before
    anything is allocated.
    """
    need = item_bytes * count
    have = available_memory()
    if need > have:
        raise NumericError(
            f"{what}: {count:.3g} {unit} need an estimated "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of "
            "available memory"
        )


def paired_modes(n, m, pairing: str) -> tuple:
    """Occupations ``(n_aH, n_aV, n_bH, n_bV)`` of table entry ``(n, m)``.

    'cross' pairing puts it on ``|n,m>_a|m,n>_b``, 'parallel' on
    ``|n,m>_a|n,m>_b``; scalars and arrays alike.  The beam-*b* half is
    its own inverse, so ``paired_modes(x_b, y_b, pairing)[2:]`` reads
    back the beam-*b* partners of ``(n_aH, n_aV)``.
    """
    if pairing == "cross":
        return n, m, m, n
    if pairing == "parallel":
        return n, m, n, m
    raise ValueError(f"unknown pairing {pairing!r}")


def mean_photons_per_mode(gamma: float) -> float:
    """N0 = sinh(gamma)^2, the mean occupation of each of the four modes."""
    return math.sinh(gamma) ** 2


def geometric_ratio(gamma: float) -> float:
    """lambda_{n+1}/lambda_n = tanh(gamma)^2."""
    return math.tanh(gamma) ** 2


def _log_q(gamma: float) -> float:
    """ln q = 2 ln tanh(gamma) to a few ulps: 2 (log1p(-x) - log1p(x)) with
    x = e^(-2 gamma) where q nears 1, 2 ln tanh(gamma) where x > 1/2 (the
    rounding of x would be amplified by 1 / (1 - x) there)."""
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gain must be finite and nonnegative, got {gamma!r}")
    if gamma == 0.0:
        return -math.inf
    x = math.exp(-2.0 * gamma)
    if x > 0.5:
        return 2.0 * math.log(math.tanh(gamma))
    return 2.0 * (math.log1p(-x) - math.log1p(x))


def schmidt_spectrum(gamma: float, n_max: int) -> np.ndarray:
    """Per-pair weights lambda_n = tanh(gamma)^{2n}/cosh(gamma)^2, n=0..n_max.

    Parameters
    ----------
    gamma : float
        Parametric gain, >= 0.  gamma = 0 gives the vacuum spectrum
        (1, 0, 0, ...).
    n_max : int
        Largest photon number retained.

    Returns
    -------
    ndarray, shape (n_max + 1,)
        The weights sum to 1 - tanh(gamma)^{2(n_max+1)}.
    """
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    q = math.tanh(gamma) ** 2
    if q == 0.0:
        return (np.arange(n_max + 1) == 0).astype(np.float64)
    return np.exp(np.arange(n_max + 1, dtype=np.float64) * np.log(q)) * (1.0 - q)


class BellLabel(enum.Enum):
    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"
    PHI_PLUS = "phi-plus"
    PHI_MINUS = "phi-minus"

    @property
    def sign(self) -> int:
        """The (sign)^m alternation of the amplitude table."""
        return +1 if self in (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS) else -1

    @property
    def pairing(self) -> str:
        """H/V-basis pairing: 'cross' -> |n,m>_a|m,n>_b, 'parallel' -> |n,m>_a|n,m>_b."""
        return "cross" if self in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS) else "parallel"

    @property
    def natural_basis(self) -> str:
        """Polarization basis in which the state takes the cross-paired Schmidt form."""
        return {
            BellLabel.PSI_PLUS: "H/V linear",
            BellLabel.PSI_MINUS: "H/V linear",
            BellLabel.PHI_PLUS: "R/L circular",
            BellLabel.PHI_MINUS: "+/-45 deg linear",
        }[self]


def _norm_sq(arr: np.ndarray) -> float:
    return float(np.vdot(arr, arr).real)


def factor_table(table: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Schmidt factors ``(u, v)`` of a nonzero rank-one ``(n, m)`` table, else None.

    ``u`` is the column and ``v`` the row through the largest entry, ``v``
    divided by that entry; they are kept when ``||T - u v^T||^2 <= 1e-12 ||T||^2``.
    """
    weight = np.abs(table) ** 2
    i0, j0 = np.unravel_index(np.argmax(weight), table.shape)
    if weight[i0, j0] == 0.0:
        return None
    u, v = table[:, j0].copy(), table[i0, :] / table[i0, j0]
    return (u, v) if _norm_sq(table - np.outer(u, v)) <= 1e-12 * weight.sum() else None


@dataclass
class FourModeState:
    """A (possibly truncated) state of the four modes.

    Exactly one of two storage forms is populated:

    * ``u``, ``v`` -- the Schmidt factors of a paired state, each of
      length ``n_max + 1``, with the pairing given by ``pairing``
      ('cross' or 'parallel'): ket ``|n,m>_a|m,n>_b`` resp.
      ``|n,m>_a|n,m>_b`` has amplitude ``u_n v_m``.
    * ``vector`` -- dense amplitudes over :class:`FourModeBasis`;
      produced by generic polarization transforms that leave the paired
      subspaces.

    States are allowed to be unnormalized (truncation removes mass);
    consumers divide by the norm.
    """

    gamma: float
    n_max: int
    label: BellLabel | None = None
    pairing: str | None = None
    u: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    vector: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        d = self.n_max + 1
        if (self.u is None and self.v is None) == (self.vector is None):
            raise ValueError("exactly one of the factors u, v or vector must be set")
        if self.vector is not None and np.shape(self.vector) != (d**4,):
            raise ValueError(f"vector must have length (n_max + 1)^4 = {d**4}, "
                             f"got shape {np.shape(self.vector)}")
        if self.vector is None and not np.shape(self.u) == np.shape(self.v) == (d,):
            raise ValueError(f"factors u, v must have length n_max + 1 = {d}, "
                             f"got shapes {np.shape(self.u)} and {np.shape(self.v)}")
        if self.vector is None and self.pairing not in ("cross", "parallel"):
            raise ValueError("factored storage requires pairing 'cross' or 'parallel'")

    # -- basic quantities -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.n_max + 1

    @property
    def table(self) -> np.ndarray | None:
        """Read-only ``(n, m)`` table ``u_n v_m``, built on request (None if vector-backed)."""
        if self.u is None:
            return None
        check_memory(self.n_levels**2, f"amplitude table at cutoff {self.n_max}")
        out = np.outer(self.u, self.v)
        out.flags.writeable = False
        return out

    def norm_sq(self) -> float:
        if self.u is not None:
            return _norm_sq(self.u) * _norm_sq(self.v)
        return float(np.sum(np.abs(self.vector) ** 2))

    def amplitude(self, n: int, m: int) -> complex:
        """Amplitude ``u_n v_m`` of table entry (n, m) (factored states only)."""
        if self.u is None:
            raise ValueError("state is not factored")
        return complex(self.u[n] * self.v[m])

    def normalized(self) -> "FourModeState":
        """Unit-norm copy with the global phase fixed: amplitude(0,0) (or the
        vacuum component) rotated to the positive real axis when nonzero."""
        nrm = math.sqrt(self.norm_sq())
        if nrm == 0.0:
            raise NumericError("cannot normalize the zero state")
        ref = self.vector[0] if self.u is None else self.u[0] * self.v[0]
        scale = nrm * (ref / abs(ref) if abs(ref) > 0 else 1.0)
        if self.u is None:
            return replace(self, vector=self.vector / scale)
        return replace(self, u=self.u / scale)

    # -- dense expansion ---------------------------------------------------

    def dense(self, basis: FourModeBasis | None = None) -> np.ndarray:
        """Amplitudes over the flattened four-mode enumeration.

        The target basis may have a larger cutoff than the state; the
        extra entries are zero.
        """
        basis = basis or FourModeBasis(self.n_max)
        if basis.n_max < self.n_max:
            raise ValueError("target basis cutoff smaller than the state's")
        check_memory(basis.dim, f"dense vector at cutoff {basis.n_max}")
        if self.vector is not None:
            if basis.n_max == self.n_max:
                return self.vector.astype(np.complex128, copy=True)
            src = FourModeBasis(self.n_max)
            occ = src.occupations()
            out = np.zeros(basis.dim, dtype=np.complex128)
            out[basis.index(occ[0], occ[1], occ[2], occ[3])] = self.vector
            return out
        n = np.arange(self.n_levels)
        nn, mm = np.meshgrid(n, n, indexing="ij")
        idx = basis.index(*paired_modes(nn, mm, self.pairing))
        out = np.zeros(basis.dim, dtype=np.complex128)
        out[idx.ravel()] = self.table.ravel()
        return out

    def edge_mass(self, depth: int = 2) -> float:
        """Fraction of the state's mass within `depth` photons of the cutoff.

        ``depth=2`` means any mode occupation in {n_max-1, n_max}.  For the
        factors it is ``(t_u s_v + s_u t_v - t_u t_v) / (s_u s_v)`` from
        totals ``s`` and tail sums ``t``, never one minus the interior,
        which would lose the tiny masses the witness gate compares.
        """
        k = max(self.n_levels - depth, 0)
        if self.u is not None:
            wu, wv = np.abs(self.u) ** 2, np.abs(self.v) ** 2
            su, sv = float(wu.sum()), float(wv.sum())
            if su * sv == 0.0:
                return 0.0
            tu, tv = float(wu[k:].sum()), float(wv[k:].sum())
            return (tu * sv + su * tv - tu * tv) / (su * sv)
        w = np.abs(self.vector.reshape((self.n_levels,) * 4)) ** 2
        total = w.sum()
        if total == 0.0:
            return 0.0
        w[(slice(k),) * 4] = 0.0
        return float(w.sum() / total)

    def fidelity(self, other: "FourModeState") -> float:
        """|<self|other>|^2 for the normalized states."""
        if self.u is not None and other.u is not None and self.pairing == other.pairing:
            k = min(self.n_levels, other.n_levels)  # beyond it one of the two is zero
            ov = np.vdot(self.u[:k], other.u[:k]) * np.vdot(self.v[:k], other.v[:k])
        else:
            n = max(self.n_max, other.n_max)
            basis = FourModeBasis(n)
            ov = np.vdot(self.dense(basis), other.dense(basis))
        return float(abs(ov) ** 2 / (self.norm_sq() * other.norm_sq()))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {label, gamma, cutoff, amplitudes: [[n, m, re, im], ...]}."""
        table = self.table
        if table is None:
            raise ValueError("only factored states serialize to the (n, m) schema")
        rows = [[n, m, float(a.real), float(a.imag)]
                for (n, m), a in np.ndenumerate(table) if a != 0.0]
        return {
            "label": self.label.value if self.label else None,
            "gamma": self.gamma,
            "cutoff": self.n_max,
            "amplitudes": rows,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourModeState":
        """Read the (n, m) schema; the table must be rank one (a product u_n v_m)."""
        label = BellLabel(data["label"]) if data.get("label") else None
        n_max = int(data["cutoff"])
        gamma = float(data["gamma"])
        check_memory((n_max + 1) ** 2, f"amplitude table at cutoff {n_max}")
        table = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
        for n, m, re, im in data["amplitudes"]:
            n, m = int(n), int(m)
            if not (0 <= n <= n_max and 0 <= m <= n_max):
                raise ValueError(f"amplitude entry ({n},{m}) outside cutoff {n_max}")
            table[n, m] = complex(re, im)
        if not np.isfinite(table).all():
            raise ValueError("non-finite amplitude in state file")
        factors = factor_table(table)
        if factors is None:
            raise ValueError("state file amplitudes are not a rank-one (n, m) table")
        pairing = label.pairing if label else "cross"
        return cls(gamma=gamma, n_max=n_max, label=label, pairing=pairing,
                   u=factors[0], v=factors[1])

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FourModeState":
        return cls.from_json_dict(json.loads(text))


def build_bell_state(label: BellLabel, gamma: float, n_max: int) -> FourModeState:
    """Closed-form Schmidt factors of one of the four macroscopic Bell states.

    ``u_n = sqrt(lambda_n)`` and ``v_m = (sign)^m sqrt(lambda_m)`` on the
    kets fixed by the label's pairing; see the module docstring.  The
    result is left unnormalized: its squared norm is the retained
    probability mass ``(1 - q^(n_max+1))^2``.
    """
    check_memory(2 * (n_max + 1), f"Schmidt factors at cutoff {n_max}")
    root = np.sqrt(schmidt_spectrum(gamma, n_max))
    signs = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, float(label.sign))
    return FourModeState(gamma=gamma, n_max=n_max, label=label, pairing=label.pairing,
                         u=root, v=root * signs)


def project_total_sector(state: FourModeState, n: int) -> tuple[float, np.ndarray]:
    """Weight and normalized amplitudes of the fixed-total-photon sector.

    Sector ``n`` collects the kets with ``n`` photons in beam *a* (and,
    by pairing, ``n`` in beam *b*); its basis is indexed by
    ``m = 0..n`` photons in the second Schmidt index.  For the
    psi-minus state the normalized sector amplitudes are the maximally
    entangled pattern ``(-1)^m / sqrt(n+1)`` and the weight is
    ``(n+1) tanh(gamma)^{2n} / cosh(gamma)^4``.

    Returns
    -------
    (weight, amplitudes)
        ``weight`` is the squared amplitude mass of the sector in the
        (unnormalized) truncated state; the amplitude vector has unit
        norm, or is all-zero for an empty sector.
    """
    if state.u is None:
        raise ValueError("sector projection requires a factored state")
    if not (0 <= n <= state.n_max):
        raise ValueError(f"sector {n} outside 0..{state.n_max}")
    m = np.arange(n + 1)
    amps = state.u[n - m] * state.v[m]
    weight = float(np.sum(np.abs(amps) ** 2))
    if weight > 0.0:
        amps = amps / math.sqrt(weight)
    return weight, amps.astype(np.complex128)


def sector_weights(state: FourModeState) -> np.ndarray:
    """Weights of all complete total-photon sectors n = 0..n_max."""
    return np.array([project_total_sector(state, n)[0] for n in range(state.n_levels)])
