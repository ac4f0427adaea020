"""Closed-form checks of macrobell CLI outputs against the paper.

Every check returns a list of problems; an empty list means the output
passed.  The benchmark counts an invocation with any problem as a failed
operation.
"""

from __future__ import annotations

import csv
import json
import math

#: witness kind -> the Bell state it is maximally violated by
MATCHED = {"W_S": "psi-minus", "W_T1": "psi-plus", "W_T2": "phi-plus", "W_T3": "phi-minus"}

#: exact witnesses: the 1e-10 edge-mass gate leaves a truncation error near 1e-9
EXACT_REL_TOL = 1e-8
#: sampled estimates against their closed form, in jackknife sigma
SIGMA_TOL = 5.0
#: negativity admits the known 2-4e-6 cutoff bias of the spectrum-tail
#: budget; the bias itself is reported as measures.negativity_rel_dev
NEGATIVITY_REL_TOL = 1e-5
#: closed-form measures other than the negativity
CLOSED_REL_TOL = 1e-9
#: simulated width ratio: product of two 1M-pulse means, about 6 sigma
FEDOROV_REL_TOL = 1e-2


def mean_photons(gamma: float) -> float:
    return math.sinh(gamma) ** 2


def gamma_of(n0: float) -> float:
    return math.asinh(math.sqrt(n0))


def witness_expected(witness: str, state: str, gamma: float, eta: float = 1.0) -> float:
    """Detected-level witness value: 4 eta N0 (1 - 3 eta) when matched.

    A mismatched witness flips the sign of two of its three variance
    terms, each of which then gains 8 eta^2 N0 (N0 + 1); at eta = 1 the
    value is 16 N0^2 + 8 N0.
    """
    n0 = mean_photons(gamma)
    value = 4.0 * eta * n0 * (1.0 - 3.0 * eta)
    if MATCHED[witness] != state:
        value += 16.0 * eta * eta * n0 * (n0 + 1.0)
    return value


def epsilon_total_cutoff(gamma: float, n_total: int) -> float:
    """Dropped mass sum_{n+m > N} lambda_n lambda_m = q^(N+1) (1 + (N+1)(1-q))."""
    q = math.tanh(gamma) ** 2
    return q ** (n_total + 1) * (1.0 + (n_total + 1) * (1.0 - q))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def rel_dev(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def _close(what: str, value: float, expected: float, tol: float) -> list[str]:
    dev = rel_dev(value, expected)
    if not dev <= tol:
        return [f"{what}: {value!r} vs closed form {expected!r} (rel dev {dev:.3g} > {tol:g})"]
    return []


def _within_sigma(what: str, value: float, sigma: float, expected: float) -> list[str]:
    if not (math.isfinite(sigma) and sigma > 0.0):
        return [f"{what}: jackknife sigma {sigma!r} is not a positive number"]
    if not abs(value - expected) <= SIGMA_TOL * sigma:
        return [f"{what}: {value!r} is {abs(value - expected) / sigma:.2f} sigma "
                f"from closed form {expected!r} (limit {SIGMA_TOL:g})"]
    return []


def check_exact_witness(rows, witness: str, state: str, gamma: float) -> list[str]:
    if len(rows) != 1 or rows[0]["mode"] != "exact":
        return [f"witness: expected one exact row, got {rows!r}"]
    return _close(f"{witness} on {state} at gamma={gamma}", float(rows[0]["value"]),
                  witness_expected(witness, state, gamma), EXACT_REL_TOL)


def check_crosswitness(rows, gamma: float) -> list[str]:
    problems = []
    if sorted(r["witness"] for r in rows) != sorted(MATCHED):
        return [f"crosswitness: rows {[r.get('witness') for r in rows]!r}"]
    for row in rows:
        for state in MATCHED.values():
            problems += _close(f"{row['witness']} on {state} at gamma={gamma}",
                               float(row[state]),
                               witness_expected(row["witness"], state, gamma), EXACT_REL_TOL)
    return problems


def check_simulated_witness(rows, witness: str, state: str, gamma: float,
                            eta: float) -> list[str]:
    if len(rows) != 1 or rows[0]["mode"] != "simulated":
        return [f"witness: expected one simulated row, got {rows!r}"]
    row = rows[0]
    return _within_sigma(f"simulated {witness} on {state} at eta={eta}",
                         float(row["value"]), float(row["value_error"]),
                         witness_expected(witness, state, gamma, eta))


def check_sweep(rows, state: str, gamma: float) -> list[str]:
    """Every grid point of the matched-witness sweep within SIGMA_TOL of the loss curve."""
    if not rows:
        return ["sweep-eta: no rows"]
    problems = []
    witness = next(k for k, s in MATCHED.items() if s == state)
    for row in rows:
        eta = float(row["eta"])
        expected = witness_expected(witness, state, gamma, eta)
        problems += _close(f"sweep exact column at eta={eta}", float(row["exact"]),
                           expected, CLOSED_REL_TOL)
        problems += _within_sigma(f"sweep at eta={eta}", float(row["value"]),
                                  float(row["sigma"]), expected)
    return problems


def check_fedorov(rows, gamma: float) -> list[str]:
    if len(rows) != 1:
        return [f"fedorov: expected one row, got {len(rows)}"]
    row = rows[0]
    expected = 2.0 * mean_photons(gamma) ** 2
    return (_close("fedorov exact_ratio", float(row["exact_ratio"]), expected, CLOSED_REL_TOL)
            + _close("fedorov sampled ratio", float(row["ratio"]), expected, FEDOROV_REL_TOL))


def check_measures(rows, n0_grid) -> list[str]:
    problems = []
    if sorted(float(r["N0"]) for r in rows) != sorted(n0_grid):
        return [f"measures: N0 column {[r.get('N0') for r in rows]!r} != grid {n0_grid!r}"]
    for row in rows:
        n0 = float(row["N0"])
        problems += _close(f"negativity at N0={n0:g}", float(row["negativity"]),
                           math.expm1(4.0 * gamma_of(n0)), NEGATIVITY_REL_TOL)
        problems += _close(f"K at N0={n0:g}", float(row["kbar"]),
                           (1.0 + 2.0 * n0) ** 2, CLOSED_REL_TOL)
        problems += _close(f"width ratio at N0={n0:g}", float(row["fedorov"]),
                           2.0 * n0 * n0, CLOSED_REL_TOL)
    return problems


def check_truncation(meta: dict, n0_grid, eps_grid) -> list[str]:
    """Achieved epsilon <= target, at the smallest cutoff that reaches it."""
    points = meta.get("points", [])
    if len(points) != len(n0_grid) * len(eps_grid):
        return [f"truncation: {len(points)} points for a {len(n0_grid)}x{len(eps_grid)} grid"]
    problems = []
    for p in points:
        what = f"truncation N0={p['n0']:g} eps<={p['epsilon_target']:g}"
        n_total, target = p["n_total"], p["epsilon_target"]
        gamma = gamma_of(p["n0"])
        if not p["achieved_epsilon"] <= target:
            problems.append(f"{what}: achieved {p['achieved_epsilon']!r} above target")
        problems += _close(f"{what} achieved", p["achieved_epsilon"],
                           epsilon_total_cutoff(gamma, n_total), CLOSED_REL_TOL)
        if n_total > 0 and not epsilon_total_cutoff(gamma, n_total - 1) > target:
            problems.append(f"{what}: cutoff {n_total} is not the smallest that meets the target")
        if p["dimension"] != (n_total + 1) * (n_total + 2) // 2:
            problems.append(f"{what}: dimension {p['dimension']} for cutoff {n_total}")
    return problems
