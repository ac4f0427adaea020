import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from macrobell.basis import FourModeBasis
from macrobell.states import (
    BellLabel,
    FourModeState,
    InputError,
    build_bell_state,
    schmidt_spectrum,
)
from macrobell import stokes
from macrobell.stokes import (_closed_form_moments, _through_frame, expectation, moments,
                              variance_of_combination)

from macrobell.polarization import apply_transform, retarder_jones
from macrobell.witnesses import (WitnessKind, cross_witness_matrix, cutoff_for_edge_mass,
                                 evaluate_witness, witness_term_coeffs)

from oracles import (
    _table_moments,
    factored_moments,
    framed_moments,
    interior_mask,
    ket_index,
    kron_moments,
    kron_stokes,
    lifted_vector,
    matvec_expectation,
    matvec_variance,
)

#: frozen reference values at gamma = 0.5, per-mode cutoff 15 (see test bodies)
GOLDEN_VAR_S1A_PSI_MINUS = 0.69054891319153811


def test_interior_angular_momentum_algebra():
    # [S_i, S_j] = 2i S_k cyclically, on kets no raising transition amputates
    d = 5
    sel = np.flatnonzero(interior_mask(FourModeBasis(d - 1)))
    for beam in ("a", "b"):
        ops = {i: kron_stokes(i, beam, d).toarray() for i in (1, 2, 3)}
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            defect = ops[i] @ ops[j] - ops[j] @ ops[i] - 2j * ops[k]
            assert np.max(np.abs(defect[np.ix_(sel, sel)])) < 1e-12


def test_s0_expectation_is_total_mean_photons():
    gamma, n_max = 0.6, 20
    lam = schmidt_spectrum(gamma, n_max)
    n0_trunc = float(np.sum(np.arange(n_max + 1) * lam) / lam.sum())
    state = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    got = expectation({(0, "a"): 1.0, (0, "b"): 1.0}, state)
    assert got == pytest.approx(4.0 * n0_trunc, rel=1e-12)


def test_eigenstate_moments_exact():
    # the kron reference on |2,1,0,0>: S_1^a eigenstate with eigenvalue 1
    # (to the one rounding of its number operator, sqrt(2) sqrt(2));
    # S_2^a has mean 0 and S_2^a |2,1> = sqrt(3)|3,0> + 2|1,2>, so
    # <O^2> = 7.  The cutoff must admit |3,0> or the raising path is
    # truncated away.
    d = 4
    vec = np.zeros(d**4, dtype=np.complex128)
    vec[ket_index(d, 2, 1, 0, 0)] = 1.0
    assert matvec_variance(kron_stokes(1, "a", d), vec) == 0.0
    assert matvec_expectation(kron_stokes(1, "a", d), vec) == pytest.approx(1.0, rel=1e-15)
    assert matvec_variance(kron_stokes(2, "a", d), vec) == pytest.approx(7.0, rel=1e-14)


def test_variance_golden_and_method_agreement():
    # frozen from an independent kron-ladder evaluation at this exact cutoff
    state = build_bell_state(BellLabel.PSI_MINUS, 0.5, 15)
    v = variance_of_combination({(1, "a"): 1.0}, state)
    assert v == pytest.approx(GOLDEN_VAR_S1A_PSI_MINUS, rel=1e-12)
    # infinite-cutoff value is 2 N0 (N0 + 1); truncation shifts the 9th digit
    n0 = math.sinh(0.5) ** 2
    assert GOLDEN_VAR_S1A_PSI_MINUS == pytest.approx(2.0 * n0 * (n0 + 1.0), rel=1e-7)


def test_variance_matches_matvec_oracle():
    d = 6
    st = build_bell_state(BellLabel.PHI_PLUS, 0.35, d - 1)
    vec = lifted_vector(st)
    for component in (1, 2, 3):
        op = kron_stokes(component, "a", d) + kron_stokes(component, "b", d)
        want = matvec_variance(op, vec)
        got = variance_of_combination({(component, "a"): 1.0, (component, "b"): 1.0}, st)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_error_paths():
    big = build_bell_state(BellLabel.PSI_MINUS, 0.3, 4)
    for bad in ({(4, "a"): 1.0}, {(1, "c"): 1.0}):
        with pytest.raises(InputError):
            variance_of_combination(bad, big)
    # a raw amplitude vector is not a state: the refusal names the type it takes
    for call in (expectation, variance_of_combination):
        with pytest.raises(InputError, match="FourModeState, got ndarray"):
            call({(1, "a"): 1.0}, np.ones(16))


_TERMS = hs.tuples(hs.integers(0, 3), hs.sampled_from("ab"))


@settings(max_examples=80, deadline=None, database=None)
@given(n_max=hs.integers(0, 5), swaps=hs.tuples(hs.booleans(), hs.booleans()),
       coeffs=hs.dictionaries(_TERMS, hs.floats(-2.0, 2.0), min_size=1, max_size=8),
       gamma=hs.floats(0.0, 2.0), seed=hs.integers(0, 2**32 - 1))
def test_table_route_matches_kron_oracle(n_max, swaps, coeffs, gamma, seed):
    # random phase plates, each beam's H/V swapped or not, evaluated in
    # closed form at their own cutoff, against kron-built operators on the
    # lift, which these frames keep within the cutoff
    rng = np.random.default_rng(seed)
    jones = tuple(np.diag(np.exp(2j * np.pi * rng.uniform(size=2)))[::-1 if swap else 1]
                  for swap in swaps)
    state = FourModeState(gamma=gamma, n_max=n_max, jones=jones)
    want_mean, want_second = kron_moments(coeffs, lifted_vector(state))
    mean, second = moments(coeffs, state)
    scale = max(1.0, want_second)
    assert abs(mean - want_mean) <= 1e-12 * scale
    assert abs(second - want_second) <= 1e-12 * scale


def test_factored_route_matches_table_oracle():
    # at gamma = 3 (N0 = 100, cutoff 2396) the kron oracle cannot reach;
    # the (n, m) table route of the oracles module can, on all 16
    # witness x state pairs (their distinct term maps) and the <S_0> map
    gamma = 3.0
    n_max = cutoff_for_edge_mass(gamma)
    assert n_max == 2396
    maps = {tuple(sorted(c.items())) for kind in WitnessKind for c in witness_term_coeffs(kind)}
    maps.add((((0, "a"), 1.0), ((0, "b"), 1.0)))
    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        for items in sorted(maps):
            coeffs = dict(items)
            got = moments(coeffs, state)
            want = _table_moments(coeffs, state)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0])
def test_closed_form_matches_factored_oracle(gamma):
    # all 16 witness x state pairs at the gated cutoff: the O(1) closed form
    # against sums over the factor arrays (tests/oracles.py), term by term
    n_max = cutoff_for_edge_mass(gamma)
    s0 = {(0, "a"): 1.0, (0, "b"): 1.0}

    def close(got, want):
        return abs(got - want) <= 1e-14 * max(1.0, abs(want))

    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        mean_s0 = factored_moments(s0, state)[0]
        for kind in WitnessKind:
            rep = evaluate_witness(kind, state)
            terms = [m2 - m1 * m1 for m1, m2 in
                     (factored_moments(c, state) for c in witness_term_coeffs(kind))]
            assert close(rep.mean_s0, mean_s0)
            assert close(rep.value, sum(terms) - 2.0 * mean_s0)
            assert all(close(g, w) for g, w in zip(rep.variance_terms, terms))
            if kind.matched_state is label:  # the hop planes cancel exactly
                assert rep.variance_terms == (0.0, 0.0, 0.0)


@settings(max_examples=150, deadline=None, database=None)
@given(label=hs.sampled_from(list(BellLabel)), gamma=hs.floats(0.0, 5.0),
       n_max=hs.integers(0, 12),
       retarder=hs.one_of(hs.none(), hs.tuples(hs.floats(-90.0, 90.0),
                                               hs.floats(0.0, 2 * math.pi),
                                               hs.sampled_from(["a", "b", "both"]))),
       coeffs=hs.dictionaries(_TERMS, hs.floats(-2.0, 2.0), min_size=1, max_size=8))
def test_closed_form_moments_match_factor_arrays(label, gamma, n_max, retarder, coeffs):
    # Bell states, or Bell states seen through a retarder at any angle, at
    # small cutoffs where the truncation is severe: Bell states against the
    # factor-array oracle of their label, retarded states against their lift
    # at twice the cutoff, where every beam sector fits
    state = build_bell_state(label, gamma, n_max)
    if retarder is not None:
        angle, delta, target = retarder
        jones = retarder_jones(angle, delta)
        state = apply_transform(state, {"a": (jones, None), "b": (None, jones),
                                        "both": (jones, jones)}[target])
    got = moments(coeffs, state)
    if state.label is not None:
        want = factored_moments(coeffs, state)
    else:
        want = framed_moments(coeffs, state)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("gamma", [0.3, 0.5])
def test_framed_moments_match_the_lift(gamma):
    # every Bell state through random retarders on each beam, at cutoff 22:
    # the closed form at rotated coefficients against kron-built operators
    # on the sector-by-sector lift at the state's own cutoff
    rng = np.random.default_rng(16)
    n_max = 22
    maps = [c for kind in WitnessKind for c in witness_term_coeffs(kind)]
    maps += [dict(zip(((k, b) for k in range(4) for b in "ab"), rng.normal(size=8)))
             for _ in range(3)]
    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        for target in ("a", "b", "a"):
            jones = retarder_jones(rng.uniform(-90.0, 90.0), rng.uniform(0.0, 2 * math.pi))
            state = apply_transform(state, (jones, None) if target == "a" else (None, jones))
        assert all(j is not None for j in state.jones)
        vec = lifted_vector(state)
        for coeffs in maps:
            got, want = moments(coeffs, state), kron_moments(coeffs, vec)
            scale = max(1.0, want[1])
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * scale


@settings(max_examples=200, deadline=None, database=None)
@given(label=hs.sampled_from(list(BellLabel)), gamma=hs.floats(0.0, 19.0),
       n_max=hs.integers(0, 10**9),
       coeffs=hs.fixed_dictionaries({key: hs.floats(-1e3, 1e3)
                                     for key in ((k, b) for k in range(4) for b in "ab")}))
def test_sign_table_matches_the_frame_rotation(label, gamma, n_max, coeffs):
    # a labelled state multiplies beam b's coefficients by the label's sign
    # triple; the 9 x 16 rotation of the label's frame gives the same bits
    state = build_bell_state(label, gamma, n_max)
    rotated = _through_frame(coeffs, state.jones)
    assert moments(coeffs, state) == _closed_form_moments(rotated, state)


def test_labelled_states_never_rotate_a_frame(monkeypatch):
    # every witness on every Bell state, and the cross table, by the sign table alone
    def refuse(coeffs, jones):
        raise AssertionError("a labelled state took the frame rotation")

    monkeypatch.setattr(stokes, "_through_frame", refuse)
    for gamma in (0.0, 0.5, 2.5):
        n_max = cutoff_for_edge_mass(gamma)
        for label in BellLabel:
            state = build_bell_state(label, gamma, n_max)
            for kind in WitnessKind:
                assert (evaluate_witness(kind, state).value < 0) == (kind.matched_state is label
                                                                     and gamma > 0)
        matrix = cross_witness_matrix(gamma, n_max)[0]
        assert gamma == 0 or (np.diag(matrix) < 0).all()
