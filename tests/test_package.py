"""Package surface: the export list and the narrative demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import macrobell

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_export_resolves():
    for name in macrobell.__all__:
        assert getattr(macrobell, name) is not None, name
    assert len(set(macrobell.__all__)) == len(macrobell.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(macrobell.__file__))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
