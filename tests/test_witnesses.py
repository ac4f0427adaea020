import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

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
    evaluate_witness,
    witness_term_coeffs,
)

from oracles import cutoff_for_edge_mass, recomputed_value

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
    for kind in WitnessKind:
        rep = evaluate_witness(kind, build_bell_state(kind.matched_state, gamma))
        assert rep.variance_terms == (0.0, 0.0, 0.0)
        assert rep.value == -2.0 * rep.mean_s0
        assert rep.value == pytest.approx(recomputed_value(rep), abs=1e-12)
        assert rep.value < 0.0
        # -2<S_0> = -8 N0 on the untruncated state
        assert rep.value == pytest.approx(-8.0 * mean_photons_per_mode(gamma), rel=1e-15)
        assert rep.meta["cutoff"] is None and rep.meta["edge_mass"] == 0.0


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
    assert state.edge_mass() > 1e-10


def test_cutoff_for_edge_mass_passes_gate():
    # every Bell state passes the gate at the returned cutoff; the smallest
    # passing cutoff, where the kept state's own edge mass crosses, is lower
    smallest = {0.5: 17, 1.0: 44, 3.0: 1997, 6.0: 561_441}
    for gamma in (0.3, 0.5, 1.0, 3.0, 6.0):
        n_max = cutoff_for_edge_mass(gamma)
        for label in BellLabel:
            assert build_bell_state(label, gamma, n_max).edge_mass() <= EDGE_MASS_TOL
        if gamma in smallest:
            k = smallest[gamma]
            mass = [build_bell_state(BellLabel.PSI_MINUS, gamma, n).edge_mass() for n in (k - 1, k)]
            assert mass[1] <= EDGE_MASS_TOL < mass[0] and k < n_max
    # zero gain gets no special case: the formula gives 2 plus two levels there too
    for gamma in (0.0, 1e-300, 1e-9):
        assert cutoff_for_edge_mass(gamma) == 4


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
    # gamma = 10 has N0 = 1.2e8; the closed form holds O(1) numbers
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
                assert mat[i, j] == pytest.approx(-8.0 * n0, rel=1e-15)
            else:
                assert mat[i, j] == pytest.approx(16.0 * n0 * n0 + 8.0 * n0, rel=1e-15)
    # a cutoff truncates: at the gated 19 every entry is within 5e-11 of the law
    truncated = cross_witness_matrix(0.5, 19)[0]
    assert np.all(np.abs(truncated / mat - 1.0) <= 5e-11) and not np.array_equal(truncated, mat)


@settings(max_examples=200, deadline=None, database=None)
@given(gamma=hs.floats(0.01, 170.0))
@example(gamma=0.01)
@example(gamma=170.0)
def test_untruncated_table_is_the_paper_law(gamma):
    # -8 N0 on the diagonal and 16 N0^2 + 8 N0 off it, to 1e-15 relative
    mat = cross_witness_matrix(gamma)[0]
    n0 = mean_photons_per_mode(gamma)
    want = np.where(np.eye(4, dtype=bool), -8.0 * n0, 16.0 * n0 * n0 + 8.0 * n0)
    assert np.all(np.abs(mat / want - 1.0) <= 1e-15), (gamma, mat / want - 1.0)


def test_untruncated_state_is_the_limit_of_large_cutoffs():
    # a cutoff of 10^12 leaves nothing to truncate at gamma = 0.5: every
    # witness on every state agrees with the untruncated one to 1e-13
    for label in BellLabel:
        for kind in WitnessKind:
            want = evaluate_witness(kind, build_bell_state(label, 0.5)).value
            got = evaluate_witness(kind, build_bell_state(label, 0.5, 10**12)).value
            assert got == pytest.approx(want, rel=1e-13)


def test_a_value_past_the_float_range_is_refused_by_name():
    # 16 N0^2 overflows near gamma 177.4; the matched witness, -8 N0, holds
    # until N0 itself overflows near gamma 355
    for gamma in (177.5, 200.0, 300.0):
        with pytest.raises(NumericError, match=f"W_T1 at gamma={gamma!r} overflows a double"):
            evaluate_witness(WitnessKind.W_T1, build_bell_state(BellLabel.PSI_MINUS, gamma))
        rep = evaluate_witness(WitnessKind.W_S, build_bell_state(BellLabel.PSI_MINUS, gamma))
        assert rep.value == pytest.approx(-8.0 * mean_photons_per_mode(gamma), rel=1e-15)
    with pytest.raises(NumericError, match="overflows a double"):
        cross_witness_matrix(200.0)
    with pytest.raises(NumericError, match=r"N0 = sinh\(gamma\)\^2 overflows .* gamma=360.0"):
        evaluate_witness(WitnessKind.W_S, build_bell_state(BellLabel.PSI_MINUS, 360.0))


# -- local-unitary structure ------------------------------------------------------


def test_substitution_carries_wt1_to_wt2_exactly():
    # S_1 -> S_3, S_3 -> -S_1 in both beams moves the W_T1 term of S_1 onto
    # S_3 and its S_3 term onto -S_1 (same variance), each with its beam-b
    # sign: W_T2's sign pattern is W_T1's reversed
    assert WitnessKind.W_T2.signs == WitnessKind.W_T1.signs[::-1]


def test_mismatched_witness_is_positive():
    rep = evaluate_witness(WitnessKind.W_T2, build_bell_state(BellLabel.PSI_MINUS, 0.5))
    assert rep.value > 0.0


def test_vacuum_witness_is_zero():
    state = build_bell_state(BellLabel.PSI_MINUS, 0.0, 4)
    rep = evaluate_witness(WitnessKind.W_S, state)
    assert rep.value == 0.0
    assert rep.variance_terms == (0.0, 0.0, 0.0)
    assert rep.mean_s0 == 0.0
