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
