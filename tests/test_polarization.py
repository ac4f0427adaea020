import math
import os
import subprocess
import sys

import numpy as np
import pytest

import macrobell
from macrobell.basis import FourModeBasis
from macrobell.polarization import (
    BasisTransform,
    apply_transform,
    beam_transform_matrix,
    half_wave_plate,
    identify_bell_state,
    pi_phase_on_bh,
    polarization_rotator,
    quarter_wave_plate,
    retarder_jones,
    sector_matrix,
    unitarity_defect,
)
from macrobell.states import (
    BellLabel,
    FourModeState,
    NumericError,
    build_bell_state,
    geometric_ratio,
)


# -- Jones matrices -----------------------------------------------------------


def test_retarder_unitarity_battery():
    rng = np.random.default_rng(77)
    for _ in range(30):
        j = retarder_jones(float(rng.uniform(-90, 90)), float(rng.uniform(0, 2 * math.pi)))
        assert unitarity_defect(j) < 1e-14


def test_half_wave_plate_matrix():
    t = math.radians(17.0)
    want = np.array([[math.cos(2 * t), math.sin(2 * t)],
                     [math.sin(2 * t), -math.cos(2 * t)]])
    assert np.allclose(half_wave_plate(17.0).jones, want, atol=1e-15)


def test_quarter_wave_plate_at_zero():
    assert np.allclose(quarter_wave_plate(0.0).jones, np.diag([1.0, 1.0j]), atol=1e-15)


def test_rotator_matrix():
    phi = math.radians(30.0)
    c, s = math.cos(phi), math.sin(phi)
    assert np.allclose(polarization_rotator(30.0).jones,
                       np.array([[c, s], [-s, c]]), atol=1e-15)


def test_pi_phase_matrix():
    tr = pi_phase_on_bh()
    assert tr.target == "b"
    assert np.allclose(tr.jones, np.diag([-1.0, 1.0]))


def test_transform_validation():
    with pytest.raises(ValueError):
        BasisTransform("x", "c", np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        BasisTransform("x", "a", np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


# -- sector lift ---------------------------------------------------------------


def test_sector_matrix_unitary_battery():
    rng = np.random.default_rng(8)
    for n in range(7):
        j = retarder_jones(float(rng.uniform(-90, 90)), float(rng.uniform(0, 2 * math.pi)))
        u = sector_matrix(j, n)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n + 1))) < 1e-12


def test_sector_matrix_identity():
    assert np.allclose(sector_matrix(np.eye(2, dtype=complex), 5), np.eye(6), atol=1e-15)


def test_sector_matrix_single_photon_is_jones():
    # sector basis is |k photons in H> ascending, i.e. (V, H) order for n = 1
    j = retarder_jones(25.0, 1.1)
    u = sector_matrix(j, 1)
    assert np.allclose(u, j[::-1, ::-1], atol=1e-14)


def test_beam_transform_conserves_photon_number():
    d = 5
    rows, cols = np.nonzero(beam_transform_matrix(retarder_jones(33.0, 0.7), d - 1))
    total = lambda idx: idx // d + idx % d
    assert np.all(total(rows) == total(cols))


# -- Bell-family relations --------------------------------------------------------


def test_pi_phase_swaps_psi_states():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.5, 10)
    out = apply_transform(st, pi_phase_on_bh())
    ref = build_bell_state(BellLabel.PSI_PLUS, 0.5, 10)
    assert 1.0 - out.fidelity(ref) < 1e-12
    assert out.table is not None  # stays on the paired subspace
    assert identify_bell_state(out) is BellLabel.PSI_PLUS
    back = apply_transform(out, pi_phase_on_bh())
    assert 1.0 - back.fidelity(st) < 1e-12


def test_qwp45_maps_psi_plus_to_phi_plus():
    gamma, n_max = 0.4, 14
    st = build_bell_state(BellLabel.PSI_PLUS, gamma, n_max)
    out = apply_transform(st, quarter_wave_plate(45.0))
    ref = build_bell_state(BellLabel.PHI_PLUS, gamma, n_max)
    tail = geometric_ratio(gamma) ** (n_max + 1)
    assert 1.0 - out.fidelity(ref) <= 10.0 * tail + 1e-9


def test_rotator45_maps_psi_plus_to_phi_minus():
    gamma, n_max = 0.4, 14
    st = build_bell_state(BellLabel.PSI_PLUS, gamma, n_max)
    out = apply_transform(st, polarization_rotator(45.0))
    ref = build_bell_state(BellLabel.PHI_MINUS, gamma, n_max)
    tail = geometric_ratio(gamma) ** (n_max + 1)
    assert 1.0 - out.fidelity(ref) <= 10.0 * tail + 1e-9


def test_identify_round_trip():
    for label in BellLabel:
        st = build_bell_state(label, 0.35, 8)
        assert identify_bell_state(st) is label


def test_generic_transform_preserves_norm():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.3, 10)
    out = apply_transform(st, half_wave_plate(13.0, target="a"))
    assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-10)
    assert out.vector is not None  # leaves the paired subspaces


def test_phase_retarder_keeps_the_closed_form():
    # a retarder with its axis along H delays each V photon by delta: on a
    # psi state that is a phase step exp(i delta) on v (beam a) or on u
    # (beam b), and the result stays in closed form
    st = build_bell_state(BellLabel.PSI_MINUS, 0.6, 9)
    for target, steps in (("a", (1.0, -np.exp(0.7j))), ("b", (np.exp(0.7j), -1.0))):
        out = apply_transform(st, BasisTransform("retarder", target, retarder_jones(0.0, 0.7)))
        assert out.vector is None and out.pairing == "cross"
        assert out.step_u == pytest.approx(steps[0], abs=1e-14)
        assert out.step_v == pytest.approx(steps[1], abs=1e-14)
        assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-13)


def test_rank_one_table_off_the_closed_form_stays_a_vector():
    # |1, 0>_a |0, 1>_b is a rank-one cross-paired table (one entry at
    # (n, m) = (1, 0)) but not a squeezed-vacuum pair: no closed form
    basis = FourModeBasis(3)
    vec = np.zeros(basis.dim, dtype=np.complex128)
    vec[basis.index(1, 0, 0, 1)] = 1.0
    out = apply_transform(FourModeState(gamma=0.5, n_max=3, vector=vec), pi_phase_on_bh())
    assert out.vector is not None
    np.testing.assert_array_equal(out.vector, vec)


_LEAK_CASE = """
import numpy as np
from macrobell.basis import FourModeBasis
from macrobell.polarization import apply_transform, half_wave_plate
from macrobell.states import FourModeState
vec = np.zeros(5 ** 4, dtype=np.complex128)
vec[FourModeBasis(4).index(4, 4, 0, 0)] = 1.0
apply_transform(FourModeState(gamma=0.5, n_max=4, vector=vec), half_wave_plate(22.5))
"""


def test_transform_norm_leak_is_refused():
    # |4,4> on beam a at n_max=4: a half-wave plate at 22.5 deg spreads the
    # eight photons over (n_H, 8 - n_H), and 86% of the norm falls outside
    # the per-mode cutoff
    vec = np.zeros(5 ** 4, dtype=np.complex128)
    vec[FourModeBasis(4).index(4, 4, 0, 0)] = 1.0
    state = FourModeState(gamma=0.5, n_max=4, vector=vec)
    with pytest.raises(NumericError, match="leaked norm 8.59"):
        apply_transform(state, half_wave_plate(22.5))
    # the refusal survives python -O, which strips assert statements
    src = os.path.dirname(os.path.dirname(macrobell.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _LEAK_CASE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert "NumericError: transform leaked norm" in proc.stderr
