import math

import numpy as np
import pytest

from macrobell.basis import FourModeBasis
from macrobell.states import (
    BellLabel,
    NumericError,
    TruncationMassError,
    build_bell_state,
    mean_photons_per_mode,
)
from macrobell.stokes import expectation, variance_of_combination
from macrobell.witnesses import (
    EDGE_MASS_TOL,
    WitnessKind,
    cross_witness_matrix,
    cutoff_for_edge_mass,
    evaluate_witness,
    product_state_battery,
    separability_gap,
    witness_term_coeffs,
)

from oracles import (
    edge_mass_cutoff,
    ket_index,
    lifted_vector,
    recomputed_value,
    tensor_route_matrix,
)

#: frozen references at gamma = 0.5, per-mode cutoff 15, from an independent
#: kron-ladder evaluation (matvec moments only)
GOLDEN_WS_ON_PSI_PLUS = 3.3520688331205752
GOLDEN_WS_ON_PSI_MINUS = -2.1723225368661323


def _assemble_witness(kind, state):
    """Witness value from public parts, bypassing the edge-mass gate."""
    terms = [variance_of_combination(c, state) for c in witness_term_coeffs(kind)]
    s0 = expectation({(0, "a"): 1.0, (0, "b"): 1.0}, state)
    return sum(terms) - 2.0 * s0


def test_sign_patterns_and_matched_states():
    assert WitnessKind.W_S.signs == (1, 1, 1)
    assert WitnessKind.W_T1.signs == (1, -1, -1)
    assert WitnessKind.W_T2.signs == (-1, -1, 1)
    assert WitnessKind.W_T3.signs == (-1, 1, -1)
    assert WitnessKind.W_S.matched_state is BellLabel.PSI_MINUS
    assert WitnessKind.W_T1.matched_state is BellLabel.PSI_PLUS
    assert WitnessKind.W_T2.matched_state is BellLabel.PHI_PLUS
    assert WitnessKind.W_T3.matched_state is BellLabel.PHI_MINUS


def test_term_coeff_maps():
    coeffs = witness_term_coeffs(WitnessKind.W_T1)
    assert coeffs[0] == {(1, "a"): 1.0, (1, "b"): 1.0}
    assert coeffs[1] == {(2, "a"): 1.0, (2, "b"): -1.0}
    assert coeffs[2] == {(3, "a"): 1.0, (3, "b"): -1.0}


def test_matched_pairs_saturate():
    gamma = 0.5
    n_max = cutoff_for_edge_mass(gamma)
    for kind in WitnessKind:
        state = build_bell_state(kind.matched_state, gamma, n_max)
        rep = evaluate_witness(kind, state)
        assert max(rep.variance_terms) <= 1e-9
        assert rep.value == pytest.approx(-2.0 * rep.mean_s0, rel=1e-12)
        assert rep.value == pytest.approx(recomputed_value(rep), abs=1e-12)
        assert rep.value < 0.0
        # -2<S_0> = -8 N0 up to truncation
        assert rep.value == pytest.approx(-8.0 * mean_photons_per_mode(gamma), rel=1e-7)


def test_golden_values_at_fixed_cutoff():
    psim = build_bell_state(BellLabel.PSI_MINUS, 0.5, 15)
    psip = build_bell_state(BellLabel.PSI_PLUS, 0.5, 15)
    got_plus = _assemble_witness(WitnessKind.W_S, psip)
    got_minus = _assemble_witness(WitnessKind.W_S, psim)
    assert got_plus == pytest.approx(GOLDEN_WS_ON_PSI_PLUS, rel=1e-12)
    assert got_minus == pytest.approx(GOLDEN_WS_ON_PSI_MINUS, rel=1e-12)
    # infinite-cutoff values: 16 N0^2 + 8 N0 and -8 N0
    n0 = mean_photons_per_mode(0.5)
    assert got_plus == pytest.approx(16.0 * n0 * n0 + 8.0 * n0, rel=1e-7)
    assert got_minus == pytest.approx(-8.0 * n0, rel=1e-7)


def test_edge_mass_gate_refuses_hot_cutoff():
    # at gamma = 0.5 a per-mode cutoff of 15 keeps ~8e-10 near the edge
    state = build_bell_state(BellLabel.PSI_PLUS, 0.5, 15)
    with pytest.raises(TruncationMassError):
        evaluate_witness(WitnessKind.W_S, state)
    assert state.edge_mass(depth=2) > 1e-10


def test_cutoff_for_edge_mass_passes_gate():
    # every Bell state passes the gate at the returned cutoff; the smallest
    # passing cutoff, where the kept state's own edge mass crosses, is lower
    smallest = {0.5: 17, 1.0: 44, 3.0: 1997, 6.0: 561_441}
    for gamma in (0.3, 0.5, 1.0, 3.0, 6.0):
        n_max = cutoff_for_edge_mass(gamma)
        for label in BellLabel:
            assert build_bell_state(label, gamma, n_max).edge_mass(depth=2) <= EDGE_MASS_TOL
        if gamma in smallest:
            k = smallest[gamma]
            mass = [build_bell_state(BellLabel.PSI_MINUS, gamma, n).edge_mass() for n in (k - 1, k)]
            assert mass[1] <= EDGE_MASS_TOL < mass[0] and k < n_max
    # zero gain gets no special case: the formula gives 2 + margin there too
    for gamma in (0.0, 1e-300, 1e-9):
        assert cutoff_for_edge_mass(gamma) == 4


def test_cutoff_for_edge_mass_closed_form_matches_loop():
    gains = np.concatenate([np.linspace(1e-4, 2.0, 4000), [1e-9, 0.5, 1.0, 3.0]])
    for gamma in gains:
        assert cutoff_for_edge_mass(gamma) == edge_mass_cutoff(gamma), gamma
    for tol, margin in ((1e-6, 0), (1e-12, 3)):
        for gamma in gains[::40]:
            got = cutoff_for_edge_mass(gamma, tol=tol, margin=margin)
            assert got == edge_mass_cutoff(gamma, tol=tol, margin=margin), (gamma, tol)
    assert cutoff_for_edge_mass(3.0) == 2396
    with pytest.raises(ValueError):
        cutoff_for_edge_mass(float("nan"))
    with pytest.raises(ValueError):
        cutoff_for_edge_mass(-1.0)
    with pytest.raises(NumericError):
        cutoff_for_edge_mass(25.0)  # tanh(25)^2 == 1 in double precision


def test_cutoff_for_edge_mass_reads_log_q_not_rounded_q():
    # on a 1e-4 grid over (0, 3] the cutoff is the one math.log of the
    # rounded tanh(gamma)^2 gives; past gamma of about 15 that rounding
    # dominates ln q (-43 % at gamma = 19), and the cutoff follows a
    # 50-digit evaluation of ln tanh(gamma)^2 instead, an exact int past 2^53
    import decimal

    tol = 1e-10
    head = math.log(tol / (1.0 + math.sqrt(1.0 - tol)))
    for gamma in np.arange(1, 30_001) * 1e-4:
        rounded = max(2, math.floor(head / math.log(math.tanh(gamma) ** 2)) + 2) + 2
        assert cutoff_for_edge_mass(gamma) == rounded, gamma
    for gamma in (15.0, 17.0, 18.5, 19.0):
        with decimal.localcontext(decimal.Context(prec=50)):
            d_tol, x = decimal.Decimal(tol), decimal.Decimal(-2.0 * gamma).exp()
            bound = (d_tol / (1 + (1 - d_tol).sqrt())).ln() / (2 * ((1 - x) / (1 + x)).ln())
            want = int(bound.to_integral_value(rounding=decimal.ROUND_FLOOR)) + 4
        got = cutoff_for_edge_mass(gamma)
        assert type(got) is int and abs(got - want) <= 1e-14 * want, (gamma, got, want)
    assert cutoff_for_edge_mass(19.0) > 2**53


def test_cross_witness_matrix_allocates_nothing():
    # gamma = 10 gates at cutoff 2.7e9; the closed form holds O(1) numbers
    import tracemalloc

    cross_witness_matrix(10.0)  # first call: imports and caches outside the guard
    tracemalloc.start()
    try:
        cross_witness_matrix(10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_cross_witness_matrix_structure():
    mat, kinds, labels = cross_witness_matrix(0.5)
    n0 = mean_photons_per_mode(0.5)
    assert [k.matched_state for k in kinds] == labels
    for i in range(4):
        for j in range(4):
            if i == j:
                assert mat[i, j] == pytest.approx(-8.0 * n0, rel=1e-7)
            else:
                assert mat[i, j] == pytest.approx(16.0 * n0 * n0 + 8.0 * n0, rel=1e-7)


def test_table_route_matches_tensor_route():
    # every witness on every Bell state at gamma = 1.0 (cutoff 47): the
    # table-native moments against the matrix-free tensor route applied to
    # the same state expanded to a dense vector
    gamma = 1.0
    n_max = cutoff_for_edge_mass(gamma)
    for label in BellLabel:
        state = build_bell_state(label, gamma, n_max)
        vec = lifted_vector(state)
        tensor = {(k, s): variance_of_combination({(k, "a"): 1.0, (k, "b"): float(s)}, vec)
                  for k in (1, 2, 3) for s in (1, -1)}
        mean_s0 = expectation({(0, "a"): 1.0, (0, "b"): 1.0}, vec)
        for kind in WitnessKind:
            rep = evaluate_witness(kind, state)
            terms = [tensor[k, s] for k, s in zip((1, 2, 3), kind.signs)]
            scale = abs(rep.value) + rep.mean_s0
            assert abs(rep.mean_s0 - mean_s0) <= 1e-12 * scale
            assert abs(rep.value - (sum(terms) - 2.0 * mean_s0)) <= 1e-12 * scale
            for got, want in zip(rep.variance_terms, terms):
                assert abs(got - want) <= 1e-12 * scale


def test_separable_battery_nonnegative():
    battery = product_state_battery(seed=2024, n_states=24)
    assert len(battery) >= 20
    for name, ensemble in battery:
        gap = separability_gap(ensemble)
        assert gap >= -1e-9, name


def test_entangled_state_violates():
    st = build_bell_state(BellLabel.PSI_MINUS, 0.4, 12)
    assert separability_gap(st) < -1.0


def test_ensemble_weights_must_sum_to_one():
    vacuum = FourModeBasis(2).vacuum()
    with pytest.raises(ValueError):
        separability_gap([(0.4, vacuum), (0.4, vacuum)])
    # weights that sum to 1 but are no mixture: a negative one would report
    # this combination of product vectors as entangled (gap -2), and a NaN
    # one passes the sum check
    one_photon = np.zeros_like(vacuum)
    one_photon[ket_index(3, 1, 0, 0, 0)] = 1.0
    for ensemble in ([(2.0, one_photon), (-1.0, vacuum)],
                     [(math.nan, vacuum), (1.0, vacuum)]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            separability_gap(ensemble)


# -- local-unitary structure ------------------------------------------------------


def test_conjugation_carries_ws_to_wt1_exactly():
    # exp(i pi n_bH) is the diagonal (-1)^n_bH; conjugating the tabulated
    # W_S terms by it flips S_2^b and S_3^b and gives the W_T1 terms exactly
    d = 6
    u = np.where(FourModeBasis(d - 1).occupations()[2] % 2 == 0, 1.0, -1.0)
    pairs = zip(witness_term_coeffs(WitnessKind.W_S), witness_term_coeffs(WitnessKind.W_T1))
    for ws, wt1 in pairs:
        got = u[:, None] * tensor_route_matrix(ws, d) * u[None, :]
        assert np.array_equal(got, tensor_route_matrix(wt1, d))


def test_substitution_carries_wt1_to_wt2_exactly():
    # S_1 -> S_3, S_3 -> -S_1 in both beams moves the W_T1 term of S_1 onto
    # S_3 and its S_3 term onto -S_1 (same variance), each with its beam-b
    # sign: W_T2's sign pattern is W_T1's reversed
    assert WitnessKind.W_T2.signs == WitnessKind.W_T1.signs[::-1]


def test_mismatched_witness_is_positive():
    gamma = 0.5
    n_max = cutoff_for_edge_mass(gamma)
    state = build_bell_state(BellLabel.PSI_MINUS, gamma, n_max)
    rep = evaluate_witness(WitnessKind.W_T2, state)
    assert rep.value > 0.0


def test_vacuum_witness_is_zero():
    state = build_bell_state(BellLabel.PSI_MINUS, 0.0, 4)
    rep = evaluate_witness(WitnessKind.W_S, state)
    assert rep.value == 0.0
    assert rep.variance_terms == (0.0, 0.0, 0.0)
    assert rep.mean_s0 == 0.0
