import itertools
import math
import timeit

import numpy as np
import pytest

from macrobell.polarization import (
    apply_transform,
    half_wave_plate,
    identify_bell_state,
    pi_phase_on_bh,
    polarization_rotator,
    quarter_wave_plate,
    retarder_jones,
)
from macrobell.states import (
    BellLabel,
    FourModeState,
    InputError,
    NumericError,
    build_bell_state,
    mean_photons_per_mode,
    schmidt_spectrum,
    unitarity_defect,
)
from macrobell.witnesses import evaluate_witness, matched_witness

from oracles import (
    _norm_sq,
    _through_frames,
    beam_transform_matrix,
    bell_vector,
    lifted_vector,
    sector_matrix,
    table_vector,
    vector_fidelity,
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
    # a plate is the frame pair it applies: both beams by default, or one
    for target, pair in (("both", half_wave_plate(17.0)), ("a", half_wave_plate(17.0, "a")),
                         ("b", half_wave_plate(17.0, target="b"))):
        for beam, jones in zip("ab", pair):
            if target in (beam, "both"):
                assert np.allclose(jones, want, atol=1e-15)
            else:
                assert jones is None


def test_quarter_wave_plate_at_zero():
    for jones in quarter_wave_plate(0.0):
        assert np.allclose(jones, np.diag([1.0, 1.0j]), atol=1e-15)


def test_rotator_matrix():
    phi = math.radians(30.0)
    c, s = math.cos(phi), math.sin(phi)
    for jones in polarization_rotator(30.0):
        assert np.allclose(jones, np.array([[c, s], [-s, c]]), atol=1e-15)


def test_pi_phase_matrix():
    ta, tb = pi_phase_on_bh()
    assert ta is None
    assert np.allclose(tb, np.diag([-1.0, 1.0]))


def test_transform_validation():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.5, 4)
    with pytest.raises(InputError, match="target must be 'a', 'b' or 'both', got 'c'"):
        half_wave_plate(10.0, target="c")
    with pytest.raises(InputError, match="jones must be two unitary 2x2 matrices"):
        apply_transform(st, (np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex), None))
    # a bare Jones matrix is not a pair of frames, nor are three matrices, nor a
    # 3x3 plate on a beam whose frame is 2x2
    for bad in (np.eye(2), (np.eye(2), None, None), (None, np.eye(3))):
        with pytest.raises(InputError, match="a transform is a pair of 2x2 Jones matrices"):
            apply_transform(st, bad)


def test_frames_and_transforms_share_one_unitarity_bound():
    # a state's frame and a transform's Jones matrix pass or fail the same bound,
    # the state's own, and a frame given as nested lists is kept as an array
    for defect, unitary in ((1e-11, False), (1e-13, True)):
        near = [[1.0 + defect, 0.0], [0.0, 1.0]]
        for build in (lambda: FourModeState(0.5, 4, jones=(None, near)),
                      lambda: apply_transform(FourModeState(0.5, 4), (None, np.array(near))),
                      lambda: apply_transform(FourModeState(0.5, 4), (near, None))):
            if unitary:
                build()
            else:
                with pytest.raises(InputError):
                    build()
    state = FourModeState(0.5, 4, jones=(None, [[0.0, 1.0], [1.0, 0.0]]))
    assert isinstance(state.jones[1], np.ndarray)
    assert isinstance(apply_transform(state, ([[0.0, 1.0], [1.0, 0.0]], None)).jones[0],
                      np.ndarray)


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


def test_pi_phase_swaps_psi_states():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.5, 10)
    out = apply_transform(st, pi_phase_on_bh())
    ref = build_bell_state(BellLabel.PSI_PLUS, 0.5, 10)
    assert 1.0 - vector_fidelity(lifted_vector(out), lifted_vector(ref)) < 1e-12
    # the pi phase composes with psi-minus's own beam-b frame, exactly
    assert _framed(out) == ["b"] and np.array_equal(out.jones[1], np.eye(2))
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
    # the three relations on the untruncated states, far past any dense lift:
    # identified by the coupling matrix, and by the matched witness at -8 N0
    n0 = mean_photons_per_mode(gamma)
    for source, transform, target in (
            (BellLabel.PSI_MINUS, pi_phase_on_bh(), BellLabel.PSI_PLUS),
            (BellLabel.PSI_PLUS, quarter_wave_plate(45.0), BellLabel.PHI_PLUS),
            (BellLabel.PSI_PLUS, polarization_rotator(45.0), BellLabel.PHI_MINUS)):
        out = apply_transform(build_bell_state(source, gamma), transform)
        assert identify_bell_state(out) is target
        kind = matched_witness(target)
        rep = evaluate_witness(kind, out)
        assert abs(rep.value + 8.0 * n0) <= 1e-12 * 8.0 * n0
        assert abs(rep.value + 2.0 * rep.mean_s0) <= 1e-12 * 8.0 * n0
        # O(1) at any gain: the best of 20 runs stays under a millisecond
        assert min(timeit.repeat(lambda: evaluate_witness(kind, out), number=1, repeat=20)) < 1e-3


def test_identify_round_trip():
    for label in BellLabel:
        st = build_bell_state(label, 0.35, 8)
        assert identify_bell_state(st) is label
    # a phase on the coupling is a photon-number phase, not a global one
    twisted = apply_transform(build_bell_state(BellLabel.PSI_PLUS, 0.35, 8),
                              (np.exp(0.3j) * np.eye(2), None))
    assert identify_bell_state(twisted) is None


def test_generic_transform_preserves_norm():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.3, 10)
    out = apply_transform(st, half_wave_plate(13.0, target="a"))
    assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-13)
    assert out.edge_mass() == st.edge_mass()  # frame-invariant
    assert _framed(out) == ["a", "b"]  # beam b keeps psi-minus's frame
    assert _norm_sq(lifted_vector(out, 2 * st.n_max)) == pytest.approx(st.norm_sq(), rel=1e-13)


def test_phase_retarder_keeps_the_closed_form():
    # a retarder with its axis along H delays each V photon by delta: on
    # psi-minus that is a phase exp(i delta m) (beam a) or exp(i delta n)
    # (beam b) on the ket |n,m>_a|m,n>_b, and the lift of the composed frame
    # is that table
    gamma, n_max, delta = 0.6, 9, 0.7
    st = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    root = np.sqrt(schmidt_spectrum(gamma, n_max))
    alt = (-1.0) ** np.arange(n_max + 1)
    jones = retarder_jones(0.0, delta)
    for plate, u, v in (((jones, None), root,
                         alt * root * np.exp(1j * delta * np.arange(n_max + 1))),
                        ((None, jones), root * np.exp(1j * delta * np.arange(n_max + 1)),
                         alt * root)):
        out = apply_transform(st, plate)
        want = table_vector(np.outer(u, v), "cross", n_max + 1)
        np.testing.assert_allclose(lifted_vector(out), want, rtol=0, atol=5e-15)
        assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-13)


_MONOMIAL = {
    "phase": retarder_jones(0.0, 0.7),
    "phase90": retarder_jones(90.0, 1.9),
    "swap": half_wave_plate(45.0, "a")[0],
    "rotator90": polarization_rotator(90.0, "a")[0],
    "swap-phase": np.array([[0.0, np.exp(0.4j)], [np.exp(-1.3j), 0.0]]),
}


def test_monomial_transforms_match_the_lift():
    # phase plates and H/V swaps compose into each Bell state's frames; the
    # lift of the result equals the plates applied sector by sector to the
    # oracle's per-ket table of the label
    gamma, n_max = 0.5, 8
    d = n_max + 1
    for (name, jones), label in itertools.product(_MONOMIAL.items(), BellLabel):
        st = build_bell_state(label, gamma, n_max)
        table = bell_vector(label.sign, label.pairing, gamma, n_max).reshape(d * d, d * d)
        for frame in ((jones, None), (None, jones), (jones, jones)):
            out = apply_transform(st, frame)
            want = _through_frames(table, frame, n_max).reshape(-1)
            np.testing.assert_allclose(lifted_vector(out), want, rtol=0, atol=5e-15, err_msg=name)


def test_frames_compose():
    # two quarter-wave plates at 45 deg are a half-wave plate at 45 deg, an
    # H/V swap: on psi-minus's beam-b frame that makes phi-minus's
    st = build_bell_state(BellLabel.PSI_MINUS, 0.4, 6)
    once = apply_transform(st, quarter_wave_plate(45.0, target="b"))
    assert identify_bell_state(once) is None
    twice = apply_transform(once, quarter_wave_plate(45.0, target="b"))
    assert _framed(twice) == ["b"] and identify_bell_state(twice) is BellLabel.PHI_MINUS
    want = lifted_vector(build_bell_state(BellLabel.PHI_MINUS, 0.4, 6))
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
