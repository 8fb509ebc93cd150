"""Drive the command-line interface end to end from Python.

Four legs: simulate a decaying vortex; manufacture a reachable tracking
target by writing a library-computed stirred trajectory in the snapshot
format the CLI reads back (yd_from); optimize against it; estimate domain
constants and certify a regularized problem with them.  Every artifact
(configs, binary snapshots, logs, certificate) lands in a scratch directory
printed at the end.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import sgf2d
from sgf2d import Grid, ProblemData, solve_state, stream_from_coeffs, velocity_from_stream
from sgf2d.fieldio import write_field
from sgf2d.state import Trajectory

DECAY = """
[problem]
alpha = 0.05
nu = 0.02
T = 2.0
grid = 16
steps = 24
y0_modes = 1,1,0.1
"""

TRACK = """
[problem]
alpha = 0.05
nu = 0.02
T = 2.0
grid = 16
steps = 24
L = 1.335
lambda = 1e-4
y0_modes = 1,1,0.0
yd_from = reference

[run]
max_iter = 400
"""

CERTIFY = """
[problem]
alpha = 0.5
nu = 2.0
T = 0.5
grid = 16
steps = 10
L = 0.3
lambda = 1e-4
y0_modes = 1,1,0.0
yd_modes = 1,1,0.05

[run]
samples = 20
seed = 2026
"""


def run(args, cwd):
    # the child runs in cwd, so it finds sgf2d through the absolute directory
    # this process imported it from; a relative PYTHONPATH would not resolve there
    package_root = str(Path(sgf2d.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    cmd = [sys.executable, "-m", "sgf2d.cli", *args]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"command {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def write_reference(root):
    # steady single-mode stirring from rest: the target is exactly reachable
    g = Grid(16)
    zero = velocity_from_stream(stream_from_coeffs(g, np.zeros((1, 1))))
    pd = ProblemData(alpha=0.05, nu=0.02, T=2.0, grid=g, m_steps=24, y0=zero)
    f = velocity_from_stream(stream_from_coeffs(g, np.array([[0.05]])))
    n = g.n_interior
    u_hat = Trajectory(
        g, pd.dt, "control",
        np.broadcast_to(np.stack([f.u1, f.u2]), (25, 2, n, n)).copy(),
    )
    sol = solve_state(u_hat, pd)
    fields = root / "reference" / "fields"
    fields.mkdir(parents=True)
    for k in range(25):
        write_field(fields / f"y_{k:06d}.bin", sol.velocity_field(k))


def main():
    root = Path(tempfile.mkdtemp(prefix="sgf2d_demo_"))

    (root / "decay.cfg").write_text(DECAY)
    run(["simulate", "--config", "decay.cfg", "--out", "decay"], root)
    print("-- simulate: free decay")
    print((root / "decay" / "report.txt").read_text())

    write_reference(root)
    (root / "track.cfg").write_text(TRACK)
    run(["optimize", "--config", "track.cfg", "--out", "opt"], root)
    print("-- optimize: recover the hidden stirring from its flow")
    print((root / "opt" / "report.txt").read_text())

    (root / "certify.cfg").write_text(CERTIFY)
    run(["estimate-constants", "--config", "certify.cfg", "--out", "consts"], root)
    (root / "certify2.cfg").write_text(CERTIFY + "constants_file = consts/constants.txt\n")
    run(["certify", "--config", "certify2.cfg", "--out", "cert"], root)
    print("-- certify: thresholds with estimated constants")
    print((root / "cert" / "certificate.txt").read_text())

    print(f"all artifacts under {root}")


if __name__ == "__main__":
    main()
