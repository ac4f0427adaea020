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
state is stored as the scale ``a`` and the unit phase steps, so its norm
and edge mass are closed forms at any cutoff; the factors, the table and
:meth:`FourModeState.dense` are built on request, behind the pre-flight.
Local polarization optics add a per-beam Jones frame: the state is then
this closed form seen through wave plates, and only the frame-invariant
quantities (norm, edge mass, Stokes moments) are read off it.
"""

from __future__ import annotations

import enum
import json
import math
import os
import sys
from dataclasses import dataclass, replace

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
    """Refuse work on ``count`` items that cannot fit: at ``item_bytes`` per
    item (by default ``PEAK_ARRAYS`` complex128 arrays per amplitude) past
    :func:`available_memory`, raise :class:`NumericError` before allocating."""
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


def _geometric_factor(gamma: float, n_max: int, step=1.0) -> np.ndarray:
    check_memory(n_max + 1, f"Schmidt factor at cutoff {n_max}")
    root = np.sqrt(schmidt_spectrum(gamma, n_max))
    return root if step == 1.0 else root * step ** np.arange(n_max + 1)


def geometric_factors(table: np.ndarray, gamma: float) -> tuple | None:
    """``(scale, step_u, step_v)`` of an ``(n, m)`` table that is, to 1e-12
    of its squared norm, ``scale step_u^n step_v^m sqrt(lambda_n lambda_m)``
    at this gain, else None; read off entries (0, 0), (1, 0) and (0, 1)."""
    n_max = table.shape[0] - 1
    scale = complex(table[0, 0]) / _geometric_factor(gamma, 0)[0] ** 2  # u_0 v_0 as built
    if scale == 0:
        return None
    steps = []
    for entry in (table[1:2, 0], table[0, 1:2]):
        w = complex(entry[0]) / scale if entry.size and entry[0] else 1.0
        steps.append((w / abs(w)).real if w.imag == 0 else w / abs(w))
    fit = scale * np.outer(*(_geometric_factor(gamma, n_max, w) for w in steps))
    return (scale, *steps) if _norm_sq(table - fit) <= 1e-12 * _norm_sq(table) else None


@dataclass
class FourModeState:
    """A (possibly truncated) paired state of the four modes, in closed form:
    ket ``|n,m>_a|m,n>_b`` ('cross' pairing) resp. ``|n,m>_a|n,m>_b``
    ('parallel') has amplitude ``u_n v_m`` for ``n, m <= n_max``, ``u_n =
    scale step_u^n sqrt(lambda_n)`` and ``v_m = step_v^m sqrt(lambda_m)``,
    with unit phase steps.

    ``jones = (J_a, J_b)`` is each beam's polarization frame: the state is
    the closed form after wave plates with these unitary Jones matrices
    (None: the H/V frame).  A framed state refuses the H/V-basis views
    (factors, table, amplitudes, dense vector, JSON, sectors, fidelity).

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

    def _hv_view(self, what: str) -> None:
        """Refuse an H/V-basis view of a state seen through wave plates."""
        framed = [f"J_{beam} = {np.round(j, 6).tolist()}"
                  for beam, j in zip("ab", self.jones) if j is not None]
        if framed:
            raise ValueError(f"{what} is an H/V-basis view, but the state is seen through "
                             f"the polarization frame {', '.join(framed)}")

    # -- basic quantities -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.n_max + 1

    @property
    def u(self) -> np.ndarray:
        """Schmidt factor ``u``, built on request."""
        self._hv_view("u")
        return self.scale * _geometric_factor(self.gamma, self.n_max, self.step_u)

    @property
    def v(self) -> np.ndarray:
        """Schmidt factor ``v``, built on request."""
        self._hv_view("v")
        return _geometric_factor(self.gamma, self.n_max, self.step_v)

    @property
    def table(self) -> np.ndarray:
        """Read-only ``(n, m)`` table ``u_n v_m``, built on request."""
        self._hv_view("table")
        check_memory(self.n_levels**2, f"amplitude table at cutoff {self.n_max}")
        out = np.outer(self.u, self.v)
        out.flags.writeable = False
        return out

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

    def amplitude(self, n: int, m: int) -> complex:
        """Amplitude ``u_n v_m`` of table entry (n, m)."""
        self._hv_view("amplitude")
        return complex(self.u[n] * self.v[m])

    def normalized(self) -> "FourModeState":
        """Unit-norm copy with the global phase fixed: the vacuum amplitude,
        that of entry (0, 0) in any frame, rotated to the positive real axis."""
        nrm = math.sqrt(self.norm_sq())
        if nrm == 0.0:
            raise NumericError("cannot normalize the zero state")
        return replace(self, scale=abs(self.scale) / nrm)

    # -- dense expansion ---------------------------------------------------

    def dense(self) -> np.ndarray:
        """Amplitudes over the flattened four-mode enumeration of
        :class:`~macrobell.basis.FourModeBasis`, at the state's own cutoff."""
        self._hv_view("dense")
        check_memory(self.n_levels**4, f"dense vector at cutoff {self.n_max}")
        n = np.arange(self.n_levels)
        nn, mm = np.meshgrid(n, n, indexing="ij")
        out = np.zeros((self.n_levels,) * 4, dtype=np.complex128)
        out[paired_modes(nn, mm, self.pairing)] = self.table
        return out.reshape(-1)

    def edge_mass(self, depth: int = 2) -> float:
        """Fraction of the state's mass within `depth` photons of the cutoff,
        in the frame where it is truncated (the closed form's, in any frame).

        ``depth=2`` means any mode occupation in {n_max-1, n_max}.  It is
        ``f (2 - f)`` from each factor's tail share ``f``, never one minus
        the interior, which would lose the tiny masses the gate compares.
        """
        f = self._tail_share(max(self.n_levels - depth, 0)) if self.scale != 0 else 0.0
        return f * (2.0 - f)

    def fidelity(self, other: "FourModeState") -> float:
        """|<self|other>|^2 for the normalized states."""
        for st in (self, other):
            st._hv_view("fidelity")
        k = min(self.n_levels, other.n_levels)  # beyond it one of the two is zero
        if self.pairing == other.pairing:
            ov = np.vdot(self.u[:k], other.u[:k]) * np.vdot(self.v[:k], other.v[:k])
        else:  # the two pairings share only the kets with n = m
            ov = np.vdot(self.u[:k] * self.v[:k], other.u[:k] * other.v[:k])
        return float(abs(ov) ** 2 / (self.norm_sq() * other.norm_sq()))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {label, gamma, cutoff, amplitudes: [[n, m, re, im], ...]}."""
        self._hv_view("to_json_dict")
        table = self.table
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
        """Read the (n, m) schema; the table must be a closed form at its gain."""
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
        params = geometric_factors(table, gamma)  # (scale, step_u, step_v)
        if params is None:
            raise ValueError("state file amplitudes are not the rank-one (n, m) table "
                             "of a squeezed-vacuum pair at its gain")
        return cls(gamma, n_max, label, label.pairing if label else "cross", *params)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FourModeState":
        return cls.from_json_dict(json.loads(text))


def build_bell_state(label: BellLabel, gamma: float, n_max: int) -> FourModeState:
    """One of the four macroscopic Bell states, in closed form at any cutoff.

    ``u_n = sqrt(lambda_n)`` and ``v_m = (sign)^m sqrt(lambda_m)`` on the
    kets fixed by the label's pairing (phase steps 1 and ``sign``), with
    nothing allocated; see the module docstring.  It is left unnormalized:
    its squared norm is the retained probability mass ``(1 - q^(n_max+1))^2``.
    """
    return FourModeState(gamma=gamma, n_max=n_max, label=label, pairing=label.pairing,
                         step_v=float(label.sign))


def project_total_sector(state: FourModeState, n: int) -> tuple[float, np.ndarray]:
    """Weight and normalized amplitudes of the fixed-total-photon sector.

    Sector ``n`` collects the kets with ``n`` photons in beam *a* (and,
    by pairing, ``n`` in beam *b*); its basis is indexed by
    ``m = 0..n`` photons in the second Schmidt index.  Returns the sector's
    squared mass in the (unnormalized) state and its unit-norm amplitudes
    (all zero if empty); for psi-minus they are the maximally entangled
    ``(-1)^m / sqrt(n+1)``, with weight ``(n+1) tanh(gamma)^{2n} / cosh(gamma)^4``.
    """
    state._hv_view("project_total_sector")
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
    state._hv_view("sector_weights")
    return np.array([project_total_sector(state, n)[0] for n in range(state.n_levels)])
