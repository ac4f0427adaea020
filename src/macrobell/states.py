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

Amplitudes are stored as a compressed ``(n, m)`` table exploiting the
pairing constraint; :meth:`FourModeState.dense` expands onto a
:class:`~macrobell.basis.FourModeBasis` enumeration for operator work.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field

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


def check_memory(n_amplitudes: int, what: str) -> None:
    """Refuse work on ``n_amplitudes`` complex amplitudes that cannot fit.

    The peak is estimated as ``PEAK_ARRAYS`` complex128 arrays of that
    size; beyond :func:`available_memory` this raises
    :class:`NumericError` before anything is allocated.
    """
    need = PEAK_ARRAYS * 16 * n_amplitudes
    have = available_memory()
    if need > have:
        raise NumericError(
            f"{what}: {n_amplitudes:.3g} amplitudes need an estimated "
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
    n = np.arange(n_max + 1, dtype=np.float64)
    # 1/cosh^2 = 1 - tanh^2; exact geometric law in double precision.
    with np.errstate(divide="ignore"):
        logq = np.log(q) if q > 0 else -np.inf
    out = np.exp(n * logq) * (1.0 - q) if q > 0 else np.zeros(n_max + 1)
    if q == 0.0:
        out[0] = 1.0
    return out


class TruncationMode(enum.Enum):
    """How the compressed (n, m) table is cut.

    PER_MODE keeps n <= n_max and m <= n_max independently; this is the
    mode operator calculations assume.  TOTAL_PHOTON keeps n + m <= n_max
    (a triangular table), the natural cut for Hilbert-space dimension
    accounting.
    """

    PER_MODE = "per-mode"
    TOTAL_PHOTON = "total-photon"


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


def _table_mask(n_levels: int, mode: TruncationMode) -> np.ndarray:
    """Boolean mask of (n, m) entries kept by the truncation mode."""
    if mode is TruncationMode.PER_MODE:
        return np.ones((n_levels, n_levels), dtype=bool)
    n = np.arange(n_levels)
    return (n[:, None] + n[None, :]) <= (n_levels - 1)


@dataclass
class FourModeState:
    """A (possibly truncated) state of the four modes.

    Exactly one of two storage forms is populated:

    * ``table`` -- compressed ``(n, m)`` amplitude table with the pairing
      given by ``pairing`` ('cross' or 'parallel'); entry ``(n, m)`` is
      the amplitude of ket ``|n,m>_a|m,n>_b`` resp. ``|n,m>_a|n,m>_b``.
    * ``vector`` -- dense amplitudes over :class:`FourModeBasis`;
      produced by generic polarization transforms that leave the paired
      subspaces.

    States are allowed to be unnormalized (truncation removes mass);
    consumers divide by the norm.
    """

    gamma: float
    n_max: int
    truncation_mode: TruncationMode = TruncationMode.PER_MODE
    label: BellLabel | None = None
    pairing: str | None = None
    table: np.ndarray | None = field(default=None, repr=False)
    vector: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.table is None) == (self.vector is None):
            raise ValueError("exactly one of table/vector must be set")
        if self.table is not None and self.pairing not in ("cross", "parallel"):
            raise ValueError("table storage requires pairing 'cross' or 'parallel'")

    # -- basic quantities -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.n_max + 1

    def norm_sq(self) -> float:
        data = self.table if self.table is not None else self.vector
        return float(np.sum(np.abs(data) ** 2))

    def amplitude(self, n: int, m: int) -> complex:
        """Compressed-table amplitude (table-backed states only)."""
        if self.table is None:
            raise ValueError("state is not table-backed")
        return complex(self.table[n, m])

    def normalized(self) -> "FourModeState":
        """Unit-norm copy with the global phase fixed: amplitude(0,0) (or the
        vacuum component) rotated to the positive real axis when nonzero."""
        nrm = math.sqrt(self.norm_sq())
        if nrm == 0.0:
            raise NumericError("cannot normalize the zero state")
        if self.table is not None:
            ref = self.table[0, 0]
            phase = ref / abs(ref) if abs(ref) > 0 else 1.0
            return FourModeState(
                gamma=self.gamma, n_max=self.n_max, truncation_mode=self.truncation_mode,
                label=self.label, pairing=self.pairing, table=self.table / (nrm * phase),
            )
        ref = self.vector[0]
        phase = ref / abs(ref) if abs(ref) > 0 else 1.0
        return FourModeState(
            gamma=self.gamma, n_max=self.n_max, truncation_mode=self.truncation_mode,
            label=self.label, pairing=None, vector=self.vector / (nrm * phase),
        )

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

        ``depth=2`` means any mode occupation in {n_max-1, n_max}: the
        mass left after zeroing the interior block of ``|amplitude|^2``,
        the table or the ``(d, d, d, d)`` tensor alike.
        """
        data = self.table if self.table is not None else self.vector.reshape((self.n_levels,) * 4)
        w = np.abs(data) ** 2
        total = w.sum()
        if total == 0.0:
            return 0.0
        w[(slice(max(self.n_levels - depth, 0)),) * w.ndim] = 0.0
        return float(w.sum() / total)

    def fidelity(self, other: "FourModeState") -> float:
        """|<self|other>|^2 for the normalized states."""
        if self.table is not None and other.table is not None and self.pairing == other.pairing:
            ov = np.vdot(self.table, other.table)
        else:
            n = max(self.n_max, other.n_max)
            basis = FourModeBasis(n)
            ov = np.vdot(self.dense(basis), other.dense(basis))
        return float(abs(ov) ** 2 / (self.norm_sq() * other.norm_sq()))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {label, gamma, cutoff, truncation_mode, amplitudes: [[n, m, re, im], ...]}."""
        if self.table is None:
            raise ValueError("only table-backed states serialize to the (n, m) schema")
        rows = []
        for n in range(self.n_levels):
            for m in range(self.n_levels):
                a = self.table[n, m]
                if a != 0.0:
                    rows.append([n, m, float(a.real), float(a.imag)])
        return {
            "label": self.label.value if self.label else None,
            "gamma": self.gamma,
            "cutoff": self.n_max,
            "truncation_mode": self.truncation_mode.value,
            "amplitudes": rows,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourModeState":
        label = BellLabel(data["label"]) if data.get("label") else None
        mode = TruncationMode(data["truncation_mode"])
        n_max = int(data["cutoff"])
        gamma = float(data["gamma"])
        table = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
        for n, m, re, im in data["amplitudes"]:
            n, m = int(n), int(m)
            if not (0 <= n <= n_max and 0 <= m <= n_max):
                raise ValueError(f"amplitude entry ({n},{m}) outside cutoff {n_max}")
            table[n, m] = complex(re, im)
        if not np.isfinite(table).all():
            raise ValueError("non-finite amplitude in state file")
        pairing = label.pairing if label else "cross"
        return cls(gamma=gamma, n_max=n_max, truncation_mode=mode,
                   label=label, pairing=pairing, table=table)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FourModeState":
        return cls.from_json_dict(json.loads(text))


def build_bell_state(
    label: BellLabel,
    gamma: float,
    n_max: int,
    truncation_mode: TruncationMode = TruncationMode.PER_MODE,
) -> FourModeState:
    """Closed-form amplitude table of one of the four macroscopic Bell states.

    The table entry is ``(sign)^m sqrt(lambda_n lambda_m)`` on the kets
    fixed by the label's pairing; see the module docstring.  The result
    is left unnormalized: its squared norm is the retained probability
    mass (for TOTAL_PHOTON truncation, exactly ``1 - epsilon`` of the
    truncation analysis).
    """
    check_memory((n_max + 1) ** 2, f"amplitude table at cutoff {n_max}")
    lam = schmidt_spectrum(gamma, n_max)
    root = np.sqrt(lam)
    signs = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, float(label.sign))
    table = np.outer(root, root * signs).astype(np.complex128)
    table *= _table_mask(n_max + 1, truncation_mode)
    return FourModeState(
        gamma=gamma, n_max=n_max, truncation_mode=truncation_mode,
        label=label, pairing=label.pairing, table=table,
    )


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
    if state.table is None:
        raise ValueError("sector projection requires a table-backed state")
    if not (0 <= n <= state.n_max):
        raise ValueError(f"sector {n} outside 0..{state.n_max}")
    m = np.arange(n + 1)
    amps = state.table[n - m, m]
    weight = float(np.sum(np.abs(amps) ** 2))
    if weight > 0.0:
        amps = amps / math.sqrt(weight)
    return weight, amps.astype(np.complex128)


def sector_weights(state: FourModeState) -> np.ndarray:
    """Weights of all complete total-photon sectors n = 0..n_max."""
    return np.array([project_total_sector(state, n)[0] for n in range(state.n_levels)])
