"""Package surface: the export list and the narrative demos."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import macrobell
from macrobell.measures import WidthConvention, fedorov_ratio, gain_scan, kbar, negativity
from macrobell.basis import FourModeBasis
from macrobell.simulate import (SimConfig, efficiency_sweep, estimate_fedorov, estimate_witness,
                                witness_under_loss)
from macrobell.states import (BellLabel, FourModeState, InputError, build_bell_state,
                              schmidt_spectrum)
from macrobell.truncation import epsilon_from_cutoff, subspace_dimension, truncated_kbar
from macrobell.witnesses import WitnessKind, evaluate_witness, matched_witness

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = os.path.dirname(os.path.dirname(macrobell.__file__))


@pytest.fixture(scope="module")
def no_scipy_env(tmp_path_factory):
    """Environment whose import path puts a ``scipy`` that refuses to import
    ahead of the installed one, so any run-time scipy import fails."""
    stub = tmp_path_factory.mktemp("no-scipy")
    (stub / "scipy").mkdir()
    (stub / "scipy" / "__init__.py").write_text(
        'raise ImportError("scipy is a test-only dependency")\n')
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(stub)])}


def test_every_export_resolves():
    for name in macrobell.__all__:
        assert getattr(macrobell, name) is not None, name
    assert len(set(macrobell.__all__)) == len(macrobell.__all__)
    # the dense Fock enumeration serves the tests and the benchmark alone
    assert "FourModeBasis" not in macrobell.__all__


#: a small width-ratio run, for the bin widths below
_FEDOROV = SimConfig("psi-minus", 0.5, pulses=100, seed=1)

#: a small gated state, for the witness kinds below
_STATE = build_bell_state(BellLabel.PSI_MINUS, 0.5, 40)

# a caller's unknown name is an InputError (exit code 2 at the command line),
# not the plain ValueError of an enum lookup; test_measures, test_simulate and
# test_states hold fedorov_ratio, estimate_fedorov and FourModeState to it
CALLER_ERRORS = {
    "BellLabel('foo')": (lambda: BellLabel("foo"), "'foo' is not a valid BellLabel"),
    "SimConfig('foo', 0.5)": (lambda: SimConfig("foo", 0.5), "'foo' is not a valid BellLabel"),
    "FourModeState(0.5, 4, 'foo')": (lambda: FourModeState(0.5, 4, "foo"),
                                     "'foo' is not a valid BellLabel"),
    "build_bell_state('foo')": (lambda: build_bell_state("foo", 0.5, 4),
                                "'foo' is not a valid BellLabel"),
    "matched_witness('foo')": (lambda: matched_witness("foo"), "'foo' is not a valid BellLabel"),
    "WitnessKind('W_X')": (lambda: WitnessKind("W_X"), "'W_X' is not a valid WitnessKind"),
    "evaluate_witness('W_X')": (lambda: evaluate_witness("W_X", _STATE),
                                "'W_X' is not a valid WitnessKind"),
    "estimate_witness(kind='W_X')": (lambda: estimate_witness(_FEDOROV, kind="W_X"),
                                     "'W_X' is not a valid WitnessKind"),
    "efficiency_sweep(kind='W_X')": (lambda: efficiency_sweep(_FEDOROV, [0.5], kind="W_X"),
                                     "'W_X' is not a valid WitnessKind"),
    "WidthConvention('fwhm')": (lambda: WidthConvention("fwhm"),
                                "'fwhm' is not a valid WidthConvention"),
    "gain_scan(convention='fwhm')": (lambda: gain_scan([1.0], convention="fwhm"),
                                     "'fwhm' is not a valid WidthConvention"),
    # a cutoff, pulse count, seed or bin width is an integer, never a float or a bool
    "FourModeState(0.5, 40.5)": (lambda: FourModeState(0.5, 40.5, BellLabel.PSI_MINUS),
                                 "n_max must be an integer, got 40.5"),
    "FourModeState(0.5, True)": (lambda: FourModeState(0.5, True, BellLabel.PSI_MINUS),
                                 "n_max must be an integer, got True"),
    "schmidt_spectrum(0.5, 2.5)": (lambda: schmidt_spectrum(0.5, 2.5),
                                   "n_max must be an integer, got 2.5"),
    "kbar(0.5, 2.5)": (lambda: kbar(0.5, 2.5), "cutoff must be an integer, got 2.5"),
    "fedorov_ratio(0.5, 2.5)": (lambda: fedorov_ratio(0.5, 2.5),
                                "cutoff must be an integer, got 2.5"),
    "negativity(0.5, 10.5)": (lambda: negativity(0.5, 10.5),
                              "cutoff must be an integer, got 10.5"),
    "subspace_dimension(2.5)": (lambda: subspace_dimension(2.5),
                                "n_total must be an integer, got 2.5"),
    "truncated_kbar(0.5, 2.5)": (lambda: truncated_kbar(0.5, 2.5),
                                 "n_total must be an integer, got 2.5"),
    "truncated_kbar(0.0, 2.5)": (lambda: truncated_kbar(0.0, 2.5),
                                 "n_total must be an integer, got 2.5"),
    "epsilon_from_cutoff(0.5, 2.0)": (lambda: epsilon_from_cutoff(0.5, 2.0),
                                      "n_total must be an integer, got 2.0"),
    "SimConfig(pulses=4100.5)": (lambda: SimConfig(BellLabel.PSI_PLUS, 0.5, pulses=4100.5),
                                 "pulses must be an integer, got 4100.5"),
    "SimConfig(seed=1.5)": (lambda: SimConfig(BellLabel.PSI_PLUS, 0.5, seed=1.5),
                            "seed must be an integer, got 1.5"),
    "estimate_fedorov(bin_width=2.5)": (lambda: estimate_fedorov(_FEDOROV, bin_width=2.5),
                                        "bin_width must be an integer, got 2.5"),
    "estimate_fedorov(bin_width=True)": (lambda: estimate_fedorov(_FEDOROV, bin_width=True),
                                         "bin_width must be an integer, got True"),
    "FourModeBasis(2.5)": (lambda: FourModeBasis(2.5), "n_max must be an integer, got 2.5"),
    "FourModeBasis(-1)": (lambda: FourModeBasis(-1), "n_max must be >= 0, got -1"),
    # an efficiency lies in (0, 1] wherever it is read
    "witness_under_loss(0.5, 2.0)": (lambda: witness_under_loss(0.5, 2.0),
                                     "eta must be in (0, 1]"),
    # a gain is finite and nonnegative wherever it is read
    **{f"witness_under_loss({gamma}, 0.5)": (
        lambda gamma=gamma: witness_under_loss(gamma, 0.5),
        f"gain must be finite and nonnegative, got {gamma!r}")
       for gamma in (-1.0, math.inf, math.nan)},
}


@pytest.mark.parametrize("call", CALLER_ERRORS)
def test_caller_errors_are_input_errors(call):
    refuse, message = CALLER_ERRORS[call]
    with pytest.raises(InputError, match=re.escape(message)):
        refuse()


def test_unknown_name_lists_the_choices():
    with pytest.raises(InputError, match="choose from 'stddev', 'sqrt2-stddev'"):
        WidthConvention("fwhm")
    assert BellLabel("psi-minus") is BellLabel.PSI_MINUS
    assert WitnessKind(WitnessKind.W_S) is WitnessKind.W_S
    # every entry point that takes a label or a kind takes it by name too
    assert matched_witness("psi-minus") is WitnessKind.W_S
    assert FourModeState(0.5, 40, "psi-minus") == _STATE == build_bell_state("psi-minus", 0.5, 40)
    assert evaluate_witness("W_S", _STATE) == evaluate_witness(WitnessKind.W_S, _STATE)
    assert estimate_witness(_FEDOROV, kind="W_T1") == estimate_witness(_FEDOROV,
                                                                       kind=WitnessKind.W_T1)


def test_numpy_integers_are_counts():
    # the integer check takes numpy's integers, which grids and arrays hand over
    assert FourModeState(0.5, np.int64(40), BellLabel.PSI_MINUS).n_max == 40
    assert kbar(0.5, np.int64(2)) == kbar(0.5, 2)
    assert subspace_dimension(np.int32(2)) == 6
    sim = SimConfig(BellLabel.PSI_PLUS, 0.5, pulses=np.int64(100), seed=np.uint8(3))
    assert estimate_witness(sim).value == estimate_witness(replace(sim, pulses=100, seed=3)).value
    assert (estimate_fedorov(_FEDOROV, bin_width=np.int64(2)).ratio
            == estimate_fedorov(_FEDOROV, bin_width=2).ratio)
    assert FourModeBasis(np.int32(2)).dim == FourModeBasis(2).dim == 81


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, no_scipy_env):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=no_scipy_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("module", ["macrobell", "macrobell.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_only_what_a_plain_line_runs():
    # argparse (and its gettext) and configparser load only for help, refusals and
    # --config; basis and polarization serve the library and the tests alone;
    # simulate loads at start-up, so numpy.random is not paid inside a sampled run
    loaded = set(_fresh_python("import sys, macrobell.cli; print(*sys.modules)").split())
    assert not loaded & {"macrobell.basis", "macrobell.polarization", "argparse",
                         "configparser", "gettext"}
    assert {"macrobell.simulate", "numpy.random"} <= loaded


def test_package_import_is_lazy():
    # import macrobell loads no numpy; dir() lists every public name before any is
    # imported, a submodule and every name resolve on access, an unknown one does not
    out = _fresh_python("""
import sys, macrobell
print("numpy" in sys.modules, set(macrobell.__all__) <= set(dir(macrobell)))
print(macrobell.simulate is sys.modules["macrobell.simulate"])
print(all(getattr(macrobell, name) is getattr(sys.modules["macrobell." + module], name)
          for module, names in macrobell._EXPORTS.items() for name in names.split()))
try:
    macrobell.no_such_name
except AttributeError as exc:
    print(exc)
""")
    assert out.splitlines() == ["False True", "True", "True",
                                "module 'macrobell' has no attribute 'no_such_name'"]


@pytest.mark.parametrize("argv", [
    ["truncation", "--n0-grid", "10,1e3", "--epsilon-grid", "0.1"],
    ["witness", "--gamma", "6"],
], ids=" ".join)
def test_cli_runs_without_scipy(argv, tmp_path, no_scipy_env):
    # the stub must bite: importing scipy under this environment fails
    probe = subprocess.run([sys.executable, "-c", "import scipy"], capture_output=True,
                           text=True, env=no_scipy_env, timeout=60)
    assert "scipy is a test-only dependency" in probe.stderr
    proc = subprocess.run([sys.executable, "-m", "macrobell.cli", *argv, "--out", "t.csv"],
                          cwd=tmp_path, capture_output=True, text=True, env=no_scipy_env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["outputs"] and all((tmp_path / f).exists() for f in manifest["outputs"])


def test_readme_quick_start_runs(tmp_path, no_scipy_env):
    # the README's Python block, run as written with numpy alone: the
    # untruncated witness at gamma = 0.5 and 30, and the one at cutoff 19
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, capture_output=True,
                          text=True, env=no_scipy_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    small, big, cut = proc.stdout.split("\n")[:3]
    assert float(small) == pytest.approx(-8.0 * math.sinh(0.5) ** 2, rel=1e-15)
    assert float(big) == pytest.approx(-8.0 * math.sinh(30.0) ** 2, rel=1e-15)
    cutoff, value = cut.split()
    assert int(cutoff) == 19
    assert float(value) == pytest.approx(-8.0 * math.sinh(0.5) ** 2, rel=1e-11)
    # each printed value is the one its comment gives
    for line, printed in zip(re.findall(r"# .*?(-?[0-9.]+(?:e[+-][0-9]+)?)$", block, re.M)[-3:],
                             (small, big, value)):
        assert float(line) == float(printed)
