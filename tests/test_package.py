"""Package surface: the export list and the narrative demos."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import macrobell
from macrobell.measures import WidthConvention, gain_scan
from macrobell.simulate import SimConfig
from macrobell.states import BellLabel, InputError
from macrobell.witnesses import WitnessKind

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


# a caller's unknown name is an InputError (exit code 2 at the command line),
# not the plain ValueError of an enum lookup; test_measures, test_simulate and
# test_states hold fedorov_ratio, estimate_fedorov and FourModeState to it
CALLER_ERRORS = {
    "BellLabel('foo')": (lambda: BellLabel("foo"), "'foo' is not a valid BellLabel"),
    "SimConfig('foo', 0.5)": (lambda: SimConfig("foo", 0.5), "'foo' is not a valid BellLabel"),
    "WitnessKind('W_X')": (lambda: WitnessKind("W_X"), "'W_X' is not a valid WitnessKind"),
    "WidthConvention('fwhm')": (lambda: WidthConvention("fwhm"),
                                "'fwhm' is not a valid WidthConvention"),
    "gain_scan(convention='fwhm')": (lambda: gain_scan([1.0], convention="fwhm"),
                                     "'fwhm' is not a valid WidthConvention"),
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
    # witness at gamma = 0.5 and the gamma = 17 cutoff and witness it prints
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, capture_output=True,
                          text=True, env=no_scipy_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    small, big = proc.stdout.split("\n")[:2]
    assert float(small) == pytest.approx(-8.0 * math.sinh(0.5) ** 2, rel=1e-10)
    cutoff, value = big.split()
    assert int(cutoff) == 3459781992135850
    assert float(value) == pytest.approx(-8.0 * math.sinh(17.0) ** 2, rel=1e-8)
