"""Indexing for the four-mode truncated Fock space.

The four polarization modes are ordered ``(a_H, a_V, b_H, b_V)`` where
``a``/``b`` are the two beams and ``H``/``V`` the horizontal/vertical
modes.  A per-mode cutoff ``n_max`` keeps occupations ``0..n_max`` in
every mode, so the composite space has dimension ``(n_max + 1)**4``.

Kets are flattened C-style (``a_H`` slowest, ``b_V`` fastest)::

    index = ((n_ah * D + n_av) * D + n_bh) * D + n_bv,   D = n_max + 1

The raw vectors the Stokes moments accept (product states, and in the
tests the dense lifts of closed-form states) run on this enumeration;
closed-form states and polarization frames never need it.
"""

from __future__ import annotations

import numpy as np


class FourModeBasis:
    """Number-state enumeration of four bosonic modes with a shared cutoff."""

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = int(n_max)
        self.n_levels = self.n_max + 1
        self.dim = self.n_levels**4
        self._occupations: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"FourModeBasis(n_max={self.n_max})"

    def occupations(self) -> np.ndarray:
        """(4, dim) int array: occupation of every mode for every ket."""
        if self._occupations is None:
            idx = np.arange(self.dim)
            d = self.n_levels
            occ = np.empty((4, self.dim), dtype=np.int64)
            occ[3] = idx % d
            occ[2] = (idx // d) % d
            occ[1] = (idx // d**2) % d
            occ[0] = idx // d**3
            self._occupations = occ
        return self._occupations

    def vacuum(self, dtype=np.complex128) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=dtype)
        vec[0] = 1.0
        return vec
