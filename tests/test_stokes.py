import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from macrobell.basis import FourModeBasis
from macrobell.states import (
    BellLabel,
    FourModeState,
    build_bell_state,
    schmidt_spectrum,
)
from macrobell.stokes import expectation, moments, variance_of_combination

from macrobell.polarization import BasisTransform, apply_transform, retarder_jones
from macrobell.witnesses import (WitnessKind, cutoff_for_edge_mass, evaluate_witness,
                                 witness_term_coeffs)

from oracles import (
    _table_moments,
    amplitude_table,
    factored_moments,
    framed_moments,
    interior_mask,
    ket_index,
    kron_stokes,
    lifted_vector,
    matvec_expectation,
    matvec_variance,
    table_vector,
    tensor_route_matrix,
)

#: frozen reference values at gamma = 0.5, per-mode cutoff 15 (see test bodies)
GOLDEN_VAR_S1A_PSI_MINUS = 0.69054891319153811


#: one beam at a time and the compound beam S_k^a + S_k^b
_BEAM_SETS = (("a",), ("b",), ("a", "b"))


def test_hermiticity():
    # the matrix-free route, tabulated, equals its own adjoint to the last bit
    for component in range(4):
        for beams in _BEAM_SETS:
            op = tensor_route_matrix({(component, beam): 1.0 for beam in beams}, 4)
            assert np.array_equal(op, op.conj().T)


def test_matches_kron_ladder_oracle():
    d = 4
    for component in range(4):
        for beams in _BEAM_SETS:
            lib = tensor_route_matrix({(component, beam): 1.0 for beam in beams}, d)
            ref = sum(kron_stokes(component, beam, d) for beam in beams).toarray()
            assert np.max(np.abs(lib - ref)) < 1e-12


def test_interior_angular_momentum_algebra():
    # [S_i, S_j] = 2i S_k cyclically, on kets no raising transition amputates
    d = 5
    sel = np.flatnonzero(interior_mask(FourModeBasis(d - 1)))
    for beam in ("a", "b"):
        ops = {i: tensor_route_matrix({(i, beam): 1.0}, d) for i in (1, 2, 3)}
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            defect = ops[i] @ ops[j] - ops[j] @ ops[i] - 2j * ops[k]
            assert np.max(np.abs(defect[np.ix_(sel, sel)])) < 1e-12


def test_expectation_against_dense_arithmetic():
    basis = FourModeBasis(2)
    rng = np.random.default_rng(99)
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    for component in range(4):
        dense = kron_stokes(component, "a", basis.n_levels).toarray()
        want = (vec.conj() @ dense @ vec).real / (vec.conj() @ vec).real
        assert expectation({(component, "a"): 1.0}, vec) == pytest.approx(want, rel=1e-12)


def test_s0_expectation_is_total_mean_photons():
    gamma, n_max = 0.6, 20
    lam = schmidt_spectrum(gamma, n_max)
    n0_trunc = float(np.sum(np.arange(n_max + 1) * lam) / lam.sum())
    state = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    got = expectation({(0, "a"): 1.0, (0, "b"): 1.0}, state)
    assert got == pytest.approx(4.0 * n0_trunc, rel=1e-12)


def test_eigenstate_moments_exact():
    # |2,1,0,0>: S_1^a eigenstate with eigenvalue 1; S_2^a has mean 0 and
    # S_2^a |2,1> = sqrt(3)|3,0> + 2|1,2>, so <O^2> = 7.  The cutoff must
    # admit |3,0> or the raising path is truncated away.
    basis = FourModeBasis(3)
    vec = np.zeros(basis.dim, dtype=np.complex128)
    vec[ket_index(basis.n_levels, 2, 1, 0, 0)] = 1.0
    assert variance_of_combination({(1, "a"): 1.0}, vec) == 0.0
    assert expectation({(1, "a"): 1.0}, vec) == 1.0
    assert variance_of_combination({(2, "a"): 1.0}, vec) == pytest.approx(7.0, rel=1e-14)


def test_variance_methods_agree_on_random_states():
    # the matrix-free tensor route (dense vectors) against the kron oracle
    basis = FourModeBasis(3)
    rng = np.random.default_rng(2025)
    coeffs = {(1, "a"): 0.7, (2, "b"): -1.3, (3, "a"): 0.4, (2, "a"): 1.0}
    op = sum(c * kron_stokes(k, beam, basis.n_levels) for (k, beam), c in coeffs.items())
    for _ in range(10):
        vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        vt = variance_of_combination(coeffs, vec)
        assert vt == pytest.approx(matvec_variance(op, vec), rel=1e-11)


def test_variance_golden_and_method_agreement():
    # frozen from an independent kron-ladder evaluation at this exact cutoff;
    # the factored route and the tensor route (on the dense vector) both hit it
    state = build_bell_state(BellLabel.PSI_MINUS, 0.5, 15)
    for form in (state, lifted_vector(state)):
        v = variance_of_combination({(1, "a"): 1.0}, form)
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
    s1a = {(1, "a"): 1.0}
    with pytest.raises(ValueError):
        expectation(s1a, np.zeros(FourModeBasis(2).dim, dtype=np.complex128))
    with pytest.raises(ValueError):
        expectation(s1a, FourModeState(gamma=0.0, n_max=2, pairing="cross", scale=0.0))
    big = build_bell_state(BellLabel.PSI_MINUS, 0.3, 4)
    with pytest.raises(ValueError):
        variance_of_combination(s1a, np.ones(7))  # not a 4th power
    for bad in ({(4, "a"): 1.0}, {(1, "c"): 1.0}):
        with pytest.raises(ValueError):
            variance_of_combination(bad, big)


_TERMS = hs.tuples(hs.integers(0, 3), hs.sampled_from("ab"))


@settings(max_examples=80, deadline=None, database=None)
@given(n_max=hs.integers(0, 5), pairing=hs.sampled_from(["cross", "parallel"]),
       coeffs=hs.dictionaries(_TERMS, hs.floats(-2.0, 2.0), min_size=1, max_size=8),
       gamma=hs.floats(0.0, 2.0), seed=hs.integers(0, 2**32 - 1))
def test_table_route_matches_kron_oracle(n_max, pairing, coeffs, gamma, seed):
    # random complex scales and phase steps, evaluated in closed form at
    # their own cutoff, against kron-built operators on the oracle's
    # amplitude table of the state
    rng = np.random.default_rng(seed)
    d = n_max + 1
    scale, step_u, step_v = complex(*rng.normal(size=2)), *np.exp(2j * np.pi * rng.uniform(size=2))
    state = FourModeState(gamma=gamma, n_max=n_max, pairing=pairing,
                          scale=scale, step_u=step_u, step_v=step_v)
    vec = table_vector(amplitude_table(state), pairing, d)
    op = sum(c * kron_stokes(k, beam, d) for (k, beam), c in coeffs.items())
    ov = op @ vec
    want_mean = matvec_expectation(op, vec)
    want_second = float(np.vdot(ov, ov).real / np.vdot(vec, vec).real)
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
    # small cutoffs where the truncation is severe: closed forms against the
    # factor-array oracle, framed states against their lift at twice the
    # cutoff, where every beam sector fits
    state = build_bell_state(label, gamma, n_max)
    if retarder is not None:
        angle, delta, target = retarder
        state = apply_transform(state, BasisTransform("retarder", target,
                                                      retarder_jones(angle, delta)))
    got = moments(coeffs, state)
    if all(j is None for j in state.jones):
        want = factored_moments(coeffs, state)
    else:
        want = framed_moments(coeffs, state)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@pytest.mark.parametrize("gamma", [0.3, 0.5])
def test_framed_moments_match_the_lift(gamma):
    # every Bell state through random retarders on each beam, at cutoff 22:
    # the closed form at rotated coefficients against the tensor route on
    # the sector-by-sector lift at the state's own cutoff
    rng = np.random.default_rng(16)
    n_max = 22
    maps = [c for kind in WitnessKind for c in witness_term_coeffs(kind)]
    maps += [dict(zip(((k, b) for k in range(4) for b in "ab"), rng.normal(size=8)))
             for _ in range(3)]
    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        for target in ("a", "b", "a"):
            jones = retarder_jones(rng.uniform(-90.0, 90.0), rng.uniform(0.0, 2 * math.pi))
            state = apply_transform(state, BasisTransform("retarder", target, jones))
        assert all(j is not None for j in state.jones)
        vec = lifted_vector(state)
        for coeffs in maps:
            got, want = moments(coeffs, state), moments(coeffs, vec)
            scale = max(1.0, want[1])
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * scale
