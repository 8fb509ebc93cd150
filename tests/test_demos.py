"""Smoke test: every demo runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgf2d

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(script, tmp_path):
    package_root = Path(sgf2d.__file__).resolve().parents[1]
    cwd = tmp_path / "cwd"
    scratch = tmp_path / "tmp"
    cwd.mkdir()
    scratch.mkdir()
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / script)],
        capture_output=True,
        text=True,
        cwd=cwd,
        # the walkthrough's temporary directory lands under tmp_path too
        env={**os.environ, "PYTHONPATH": str(package_root), "TMPDIR": str(scratch)},
    )
    assert proc.returncode == 0, proc.stderr
    # a demo writes only under a temporary directory, which it removes, or
    # under demos/demo_outputs/
    assert list(cwd.iterdir()) == []
    assert list(scratch.iterdir()) == []
