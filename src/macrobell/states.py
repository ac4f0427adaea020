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

All four are one state seen through local optics.  The psi-plus table is
rank one, ``u_n v_m`` with ``u_n = v_n = sqrt(lambda_n)``, so its norm,
edge mass and Stokes moments are closed forms at any cutoff, and no
amplitude array is ever built.  A state is that closed form seen
through a Jones frame per beam (wave plates, see
:mod:`macrobell.polarization`); each Bell label is a beam-*b* frame: a pi
phase on ``b_H`` for the minus labels, then an H/V swap for the phi
labels.  That frame flips the signs of beam *b*'s (S_1, S_2, S_3), and
this sign triple (``BellLabel.signs``) is the one table from which the
amplitude sign, the pairing, the frame, the witness signs and the sampled
count pairings are read.  The same quantities are read off the closed
form in any frame.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """A numerical invariant failed (non-convergence, complex leakage...)."""


class InputError(ValueError):
    """A caller's argument lies outside the quantity's domain (exit code 2)."""


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


def check_integer(value, what: str) -> None:
    """Refuse a count that is not an integer: a float (even a whole one) or a
    bool is an :class:`InputError`; Python and numpy integers pass (a plain
    int without the slower abstract-class check)."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise InputError(f"{what} must be an integer, got {value!r}")


#: largest entry of ``|J^+ J - 1|`` a Jones matrix may have and still count as unitary
UNITARITY_TOL = 1e-12


def unitarity_defect(jones) -> float:
    """Largest entry of ``|J^+ J - 1|`` for a 2x2 Jones matrix ``J``."""
    jones = np.asarray(jones)
    return float(np.max(np.abs(jones.conj().T @ jones - np.eye(2))))


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
    raise InputError(f"unknown pairing {pairing!r}")


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
        raise InputError(f"gain must be finite and nonnegative, got {gamma!r}")
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
    check_integer(n_max, "n_max")
    if n_max < 0:
        raise InputError(f"n_max must be >= 0, got {n_max}")
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


class Choice(enum.Enum):
    """An enum whose members a caller names by value: an unknown value is an InputError."""

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(repr(member.value) for member in cls)
        raise InputError(f"{value!r} is not a valid {cls.__name__}; choose from {names}")


class BellLabel(Choice):
    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"
    PHI_PLUS = "phi-plus"
    PHI_MINUS = "phi-minus"

    @property
    def signs(self) -> tuple[int, int, int]:
        """The one sign table: the label's frame turns beam *b*'s (S_1, S_2, S_3)
        of the psi-plus closed form into (s_1 S_1, s_2 S_2, s_3 S_3)."""
        return {"psi-plus": (1, 1, 1), "psi-minus": (1, -1, -1),
                "phi-plus": (-1, 1, -1), "phi-minus": (-1, -1, 1)}[self.value]

    @property
    def sign(self) -> int:
        """The (sign)^m alternation of the amplitude table, ``s_2``."""
        return self.signs[1]

    @property
    def pairing(self) -> str:
        """H/V-basis pairing: 'cross' -> |n,m>_a|m,n>_b where ``s_1 = 1``, else
        'parallel' -> |n,m>_a|n,m>_b."""
        return "cross" if self.signs[0] > 0 else "parallel"

    @property
    def frame(self) -> np.ndarray | None:
        """Beam-*b* Jones frame that turns the psi-plus closed form into this
        state, ``(X if parallel else 1) diag(sign, 1)``: a pi phase on ``b_H``
        for the minus labels, then an H/V swap for the phi labels; None for
        psi-plus.  Exact literals, so no rounding reaches the witnesses."""
        if self is BellLabel.PSI_PLUS:
            return None
        return np.array([[0.0, 1.0], [self.sign, 0.0]] if self.pairing == "parallel"
                        else [[self.sign, 0.0], [0.0, 1.0]])

    @property
    def natural_basis(self) -> str:
        """Polarization basis in which the state takes the cross-paired Schmidt form."""
        return {
            BellLabel.PSI_PLUS: "H/V linear",
            BellLabel.PSI_MINUS: "H/V linear",
            BellLabel.PHI_PLUS: "R/L circular",
            BellLabel.PHI_MINUS: "+/-45 deg linear",
        }[self]


def _same_frames(these, those) -> bool:
    """Two per-beam frame pairs agree entry by entry (None: the identity)."""
    return all(np.array_equal(np.eye(2) if g is None else g, np.eye(2) if j is None else j)
               for g, j in zip(these, those))


@dataclass(eq=False)
class FourModeState:
    """A (possibly truncated) state of the four modes, in closed form: the
    psi-plus kets ``|n,m>_a|m,n>_b`` with amplitude ``u_n v_m`` for ``n, m
    <= n_max``, ``u_n = sqrt(lambda_n)``, ``v_m = sqrt(lambda_m)``, seen
    through ``jones = (J_a, J_b)``, each beam's polarization frame: the
    state is the closed form after wave plates with these unitary Jones
    matrices (None: the H/V frame).  A labelled state's frame is its
    label's; another frame given with a label is refused.

    States are unnormalized (truncation removes mass); consumers divide
    by the norm.
    """

    gamma: float
    n_max: int
    label: BellLabel | None = None
    jones: tuple | None = None  # None: the label's frame, or the H/V frame

    def __post_init__(self):
        if _log_q(self.gamma) == 0.0:  # also refuses a gain that is negative or not finite
            raise NumericError(f"ln tanh(gamma)^2 rounds to 0 at gamma={self.gamma}: "
                               "no representable weights")
        check_integer(self.n_max, "n_max")
        # past the float range, n_max + 1 no longer converts in the closed forms
        if not 0 <= self.n_max < sys.float_info.max:
            raise InputError(f"need 0 <= n_max < {sys.float_info.max:.4g} (got {self.n_max})")
        if self.label is not None:
            self.label = BellLabel(self.label)
        frames = (None, None if self.label is None else self.label.frame)
        if self.label is not None and self.jones is not None and (
                len(self.jones) != 2 or not _same_frames(self.jones, frames)):
            raise InputError(f"jones {self.jones!r} is not the {self.label.value} frame")
        if self.label is not None or self.jones is None:
            self.jones = frames  # only frames from transforms need the unitarity check
        elif len(self.jones) != 2 or any(
                np.shape(j) != (2, 2) or unitarity_defect(j) > UNITARITY_TOL
                for j in self.jones if j is not None):
            raise InputError(f"jones must be two unitary 2x2 matrices or None, got {self.jones!r}")
        else:
            self.jones = tuple(None if j is None else np.asarray(j) for j in self.jones)

    def __eq__(self, other):
        """Same gain, cutoff and label, and the same frames entry by entry
        (None is the H/V frame, the identity)."""
        if not isinstance(other, FourModeState):
            return NotImplemented
        return ((self.gamma, self.n_max, self.label) == (other.gamma, other.n_max, other.label)
                and _same_frames(self.jones, other.jones))

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
        return math.expm1(self.n_levels * _log_q(self.gamma)) ** 2

    def edge_mass(self) -> float:
        """Fraction of the state's mass within two photons of the cutoff (any
        mode occupation in {n_max-1, n_max}), the witness gate's measure, in
        the frame where it is truncated (the closed form's, in any frame).

        It is ``f (2 - f)`` from each factor's tail share ``f``, never one minus
        the interior, which would lose the tiny masses the gate compares.
        """
        f = self._tail_share(self.n_max - 1)
        return f * (2.0 - f)


def build_bell_state(label: BellLabel, gamma: float, n_max: int) -> FourModeState:
    """One of the four macroscopic Bell states, in closed form at any cutoff:
    the psi-plus closed form seen through the label's beam-*b* frame, with
    nothing allocated; see the module docstring.  It is left unnormalized:
    its squared norm is the retained probability mass ``(1 - q^(n_max+1))^2``.
    """
    return FourModeState(gamma=gamma, n_max=n_max, label=label)
