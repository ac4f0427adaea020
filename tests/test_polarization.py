import itertools
import math
import timeit
from dataclasses import replace

import numpy as np
import pytest

from macrobell.polarization import (
    BasisTransform,
    apply_transform,
    half_wave_plate,
    identify_bell_state,
    pi_phase_on_bh,
    polarization_rotator,
    quarter_wave_plate,
    retarder_jones,
    unitarity_defect,
)
from macrobell.states import (
    BellLabel,
    NumericError,
    build_bell_state,
    mean_photons_per_mode,
)
from macrobell.witnesses import cutoff_for_edge_mass, evaluate_witness, matched_witness

from oracles import beam_transform_matrix, lifted_vector, sector_matrix, vector_fidelity


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


# -- sector lift (the oracle in tests/oracles.py) -----------------------------


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


def _framed(state):
    return [beam for beam, j in zip("ab", state.jones) if j is not None]


def _norm_sq(vec):
    return float(np.vdot(vec, vec).real)


def test_pi_phase_swaps_psi_states():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.5, 10)
    out = apply_transform(st, pi_phase_on_bh())
    ref = build_bell_state(BellLabel.PSI_PLUS, 0.5, 10)
    assert 1.0 - vector_fidelity(lifted_vector(out), lifted_vector(ref)) < 1e-12
    assert not _framed(out)  # a phase plate folds into the closed form
    assert identify_bell_state(out) is BellLabel.PSI_PLUS
    back = apply_transform(out, pi_phase_on_bh())
    assert 1.0 - vector_fidelity(lifted_vector(back), lifted_vector(st)) < 1e-12


def test_qwp45_maps_psi_plus_to_phi_plus():
    gamma, n_max = 0.4, 14
    st = build_bell_state(BellLabel.PSI_PLUS, gamma, n_max)
    out = apply_transform(st, quarter_wave_plate(45.0))
    assert _framed(out) == ["a", "b"]
    assert identify_bell_state(out) is BellLabel.PHI_PLUS
    ref = build_bell_state(BellLabel.PHI_PLUS, gamma, n_max)
    # the lift at twice the cutoff holds every sector of the framed state
    assert 1.0 - vector_fidelity(lifted_vector(out, 2 * n_max), lifted_vector(ref)) < 1e-12


def test_rotator45_maps_psi_plus_to_phi_minus():
    gamma, n_max = 0.4, 14
    st = build_bell_state(BellLabel.PSI_PLUS, gamma, n_max)
    out = apply_transform(st, polarization_rotator(45.0))
    assert identify_bell_state(out) is BellLabel.PHI_MINUS
    ref = build_bell_state(BellLabel.PHI_MINUS, gamma, n_max)
    assert 1.0 - vector_fidelity(lifted_vector(out, 2 * n_max), lifted_vector(ref)) < 1e-12


@pytest.mark.parametrize("gamma", [6.0, 17.0])
def test_bell_family_relations_at_high_gain(gamma):
    # the three relations at the gated cutoff, far past any dense lift:
    # identified by the coupling matrix, and by the matched witness at -8 N0
    n_max = cutoff_for_edge_mass(gamma)
    n0 = mean_photons_per_mode(gamma)
    for source, transform, target in (
            (BellLabel.PSI_MINUS, pi_phase_on_bh(), BellLabel.PSI_PLUS),
            (BellLabel.PSI_PLUS, quarter_wave_plate(45.0), BellLabel.PHI_PLUS),
            (BellLabel.PSI_PLUS, polarization_rotator(45.0), BellLabel.PHI_MINUS)):
        out = apply_transform(build_bell_state(source, gamma, n_max), transform)
        assert identify_bell_state(out) is target
        kind = matched_witness(target)
        rep = evaluate_witness(kind, out)
        # -2 <S_0> of the truncated state, which is -8 N0 up to the truncation
        want = evaluate_witness(kind, build_bell_state(target, gamma, n_max)).value
        assert abs(rep.value - want) <= 1e-12 * 8.0 * n0
        assert abs(rep.value + 2.0 * rep.mean_s0) <= 1e-12 * 8.0 * n0
        assert rep.value == pytest.approx(-8.0 * n0, rel=1e-8)
        # O(1) in the cutoff: the best of 20 runs stays under a millisecond
        assert min(timeit.repeat(lambda: evaluate_witness(kind, out), number=1, repeat=20)) < 1e-3


def test_identify_round_trip():
    for label in BellLabel:
        st = build_bell_state(label, 0.35, 8)
        assert identify_bell_state(st) is label
    # a phase on the coupling is a photon-number phase, not a global one
    twisted = apply_transform(build_bell_state(BellLabel.PSI_PLUS, 0.35, 8),
                              BasisTransform("phase", "a", np.exp(0.3j) * np.eye(2)))
    assert identify_bell_state(twisted) is None


def test_generic_transform_preserves_norm():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.3, 10)
    out = apply_transform(st, half_wave_plate(13.0, target="a"))
    assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-13)
    assert out.edge_mass() == st.edge_mass()  # frame-invariant
    assert _framed(out) == ["a"]  # leaves the paired subspaces
    assert _norm_sq(lifted_vector(out, 2 * st.n_max)) == pytest.approx(st.norm_sq(), rel=1e-13)


def test_phase_retarder_keeps_the_closed_form():
    # a retarder with its axis along H delays each V photon by delta: on a
    # psi state that is a phase step exp(i delta) on v (beam a) or on u
    # (beam b), and the result stays in closed form
    st = build_bell_state(BellLabel.PSI_MINUS, 0.6, 9)
    for target, steps in (("a", (1.0, -np.exp(0.7j))), ("b", (np.exp(0.7j), -1.0))):
        out = apply_transform(st, BasisTransform("retarder", target, retarder_jones(0.0, 0.7)))
        assert not _framed(out) and out.pairing == "cross"
        assert out.step_u == pytest.approx(steps[0], abs=1e-14)
        assert out.step_v == pytest.approx(steps[1], abs=1e-14)
        assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-13)


_MONOMIAL = {
    "phase": retarder_jones(0.0, 0.7),
    "phase90": retarder_jones(90.0, 1.9),
    "swap": half_wave_plate(45.0).jones,
    "rotator90": polarization_rotator(90.0).jones,
    "swap-phase": np.array([[0.0, np.exp(0.4j)], [np.exp(-1.3j), 0.0]]),
}


def test_folded_transforms_match_the_lift():
    # phase plates and H/V swaps fold into the pairing and phase steps; the
    # folded closed form equals the sector-by-sector lift of the frame
    for (name, jones), label in itertools.product(_MONOMIAL.items(), BellLabel):
        st = build_bell_state(label, 0.5, 8)
        for target, frame in (("a", (jones, None)), ("b", (None, jones)),
                              ("both", (jones, jones))):
            out = apply_transform(st, BasisTransform(name, target, jones))
            assert not _framed(out)
            want = lifted_vector(replace(st, jones=frame))
            np.testing.assert_allclose(lifted_vector(out), want, rtol=0, atol=5e-15, err_msg=name)


def test_frames_compose():
    # two quarter-wave plates at 45 deg are a half-wave plate at 45 deg, an
    # H/V swap: the frame folds back into the closed form
    st = build_bell_state(BellLabel.PSI_MINUS, 0.4, 6)
    once = apply_transform(st, quarter_wave_plate(45.0, target="b"))
    assert _framed(once) == ["b"]
    twice = apply_transform(once, quarter_wave_plate(45.0, target="b"))
    assert not _framed(twice) and twice.pairing == "parallel"
    want = lifted_vector(replace(st, jones=(None, half_wave_plate(45.0).jones)))
    assert 1.0 - vector_fidelity(lifted_vector(twice), want) < 1e-13


def test_transform_never_refuses():
    # at cutoff 4 and gamma 1.5 a half-wave plate at 22.5 deg sends most of
    # the high sectors past the per-mode cutoff: the library keeps the
    # framed state exact, while a dense lift at that cutoff leaks norm
    st = build_bell_state(BellLabel.PSI_MINUS, 1.5, 4)
    out = apply_transform(st, half_wave_plate(22.5))
    assert out.norm_sq() == st.norm_sq()
    with pytest.raises(NumericError, match="lift leaked norm"):
        lifted_vector(out)
    assert _norm_sq(lifted_vector(out, 8)) == pytest.approx(st.norm_sq(), rel=1e-13)
