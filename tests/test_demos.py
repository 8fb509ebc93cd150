"""Smoke test: the quick demos run to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgf2d

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["check_gradient.py", "estimate_constants.py"])
def test_demo_exits_zero(script, tmp_path):
    package_root = Path(sgf2d.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    # neither demo writes files
    assert list(tmp_path.iterdir()) == []
