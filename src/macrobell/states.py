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

The ``(n, m)`` amplitude table is rank one, ``u_n v_m``, and both Schmidt
factors are geometric: ``u_n = a w_u^n sqrt(lambda_n)``, ``v_m = w_v^m
sqrt(lambda_m)`` (``w_u = 1``, ``w_v = sign`` for the Bell labels).  A
state is stored as the scale ``a`` and the unit phase steps: its norm,
edge mass and Stokes moments are closed forms at any cutoff, and no
amplitude array is ever built.  Local polarization optics add a per-beam
Jones frame: the state is then this closed form seen through wave
plates, and the same quantities are read off it in any frame.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import dataclass

import numpy as np


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


def check_memory(count: int, what: str, item_bytes: int, unit: str) -> None:
    """Refuse work on ``count`` items (``unit``) that cannot fit: at
    ``item_bytes`` per item past :func:`available_memory`, raise
    :class:`NumericError` before allocating."""
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
    """Per-pair weights lambda_n = tanh(gamma)^{2n}/cosh(gamma)^2, n = 0..n_max.

    ``gamma >= 0``; 0 gives the vacuum spectrum (1, 0, 0, ...).  The
    weights sum to 1 - tanh(gamma)^{2(n_max+1)}.
    """
    _log_q(gamma)  # refuses a gain that is negative or not finite
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    q = math.tanh(gamma) ** 2
    if q == 0.0:
        return (np.arange(n_max + 1) == 0).astype(np.float64)
    return np.exp(np.arange(n_max + 1, dtype=np.float64) * np.log(q)) * (1.0 - q)


def _photon_moments(gamma: float, n_levels: int) -> tuple[float, float]:
    """Mean and variance of n under lambda_n on 0..K-1 (K = n_levels) in O(1):
    ``1/expm1(y) - K/expm1(K y)`` and ``1/(4 sinh(y/2)^2) - K^2/(4 sinh(K
    y/2)^2)``, y = -ln q.  Below y = 1 the poles 1/z, 1/z^2 that cancel
    between the terms are taken out first; below z = 1 the rest is ``-e /
    (z (z + e))``, ``-f / (z^2 (z^2 + f))`` with series of positive terms
    ``e = expm1(z) - z``, ``f = 2 cosh(z) - 2 - z^2``, so nothing cancels (below
    z = 1e-20 they are at their limits -1/2, -1/12).  A K^2 past the float
    range is applied as K (K jk), or as ``(K / z)^2`` once only the pole is left."""
    y = -_log_q(gamma)
    poles = int(y < 1.0)
    parts = []
    for z in (y, n_levels * y):
        if poles and z < 1e-20:
            parts.append((-0.5, -1.0 / 12.0))
        elif poles and z < 1.0:
            term, e, f = z * z / 2.0, 0.0, 0.0
            for k in range(2, 22):
                e, f = e + term, f + (2.0 * term if k % 2 == 0 and k > 2 else 0.0)
                term *= z / (k + 1)
            parts.append((-e / (z * (z + e)), -f / (z * z * (z * z + f))))
        else:
            inv = 1.0 / math.expm1(z) if z < 700.0 else 0.0
            parts.append((inv - poles / z, inv * (1.0 + inv) - poles / (z * z)))
    (h1, j1), (hk, jk) = parts
    if n_levels * n_levels <= sys.float_info.max:
        return h1 - n_levels * hk, j1 - n_levels * n_levels * jk
    return h1 - n_levels * hk, j1 - (n_levels * (n_levels * jk) if z < 700.0
                                     else -poles * (n_levels / z) ** 2)


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


@dataclass
class FourModeState:
    """A (possibly truncated) paired state of the four modes, in closed form:
    ket ``|n,m>_a|m,n>_b`` ('cross' pairing) resp. ``|n,m>_a|n,m>_b``
    ('parallel') has amplitude ``u_n v_m`` for ``n, m <= n_max``, ``u_n =
    scale step_u^n sqrt(lambda_n)`` and ``v_m = step_v^m sqrt(lambda_m)``,
    with unit phase steps.

    ``jones = (J_a, J_b)`` is each beam's polarization frame: the state is
    the closed form after wave plates with these unitary Jones matrices
    (None: the H/V frame).

    States may be unnormalized (truncation removes mass); consumers
    divide by the norm.
    """

    gamma: float
    n_max: int
    label: BellLabel | None = None
    pairing: str | None = None
    scale: complex = 1.0
    step_u: complex = 1.0
    step_v: complex = 1.0
    jones: tuple = (None, None)

    def __post_init__(self):
        if _log_q(self.gamma) == 0.0:  # also refuses a gain that is negative or not finite
            raise NumericError(f"ln tanh(gamma)^2 rounds to 0 at gamma={self.gamma}: "
                               "no representable weights")
        if self.n_max < 0 or self.pairing not in ("cross", "parallel"):
            raise ValueError(f"need n_max >= 0 (got {self.n_max}) and pairing 'cross' "
                             f"or 'parallel' (got {self.pairing!r})")
        if max(abs(abs(w) - 1.0) for w in (self.step_u, self.step_v)) > 1e-12:
            raise ValueError(f"phase steps need unit modulus: {self.step_u!r}, {self.step_v!r}")
        if len(self.jones) != 2 or any(
                np.shape(j) != (2, 2) or np.abs(np.conj(j).T @ j - np.eye(2)).max() > 1e-10
                for j in self.jones if j is not None):
            raise ValueError(f"jones must be two unitary 2x2 matrices or None, got {self.jones!r}")

    # -- basic quantities -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.n_max + 1

    def _tail_share(self, k: int) -> float:
        """Each factor's share of its kept mass at levels ``k..n_max``,
        ``q^k (1 - q^(n_max + 1 - k)) / (1 - q^(n_max + 1))``."""
        if k <= 0:
            return 1.0
        log_q = _log_q(self.gamma)
        return (math.exp(k * log_q) * math.expm1((self.n_levels - k) * log_q)
                / math.expm1(self.n_levels * log_q))

    def norm_sq(self) -> float:
        return abs(self.scale) ** 2 * math.expm1(self.n_levels * _log_q(self.gamma)) ** 2

    def edge_mass(self, depth: int = 2) -> float:
        """Fraction of the state's mass within `depth` photons of the cutoff,
        in the frame where it is truncated (the closed form's, in any frame).

        ``depth=2`` means any mode occupation in {n_max-1, n_max}.  It is
        ``f (2 - f)`` from each factor's tail share ``f``, never one minus
        the interior, which would lose the tiny masses the gate compares.
        """
        f = self._tail_share(max(self.n_levels - depth, 0)) if self.scale != 0 else 0.0
        return f * (2.0 - f)


def build_bell_state(label: BellLabel, gamma: float, n_max: int) -> FourModeState:
    """One of the four macroscopic Bell states, in closed form at any cutoff.

    ``u_n = sqrt(lambda_n)`` and ``v_m = (sign)^m sqrt(lambda_m)`` on the
    kets fixed by the label's pairing (phase steps 1 and ``sign``), with
    nothing allocated; see the module docstring.  It is left unnormalized:
    its squared norm is the retained probability mass ``(1 - q^(n_max+1))^2``.
    """
    return FourModeState(gamma=gamma, n_max=n_max, label=label, pairing=label.pairing,
                         step_v=float(label.sign))
