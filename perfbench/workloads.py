"""The three benchmark workloads: inputs from a seed, one op, its checks.

Each workload is a class whose constructor is the set-up (timed as
``setup_s``) and whose ``run`` is one op (timed as ``op_s``). Inputs come
from ``make_input(i)``, seeded by ``(seed, i)``, and are built before the op
clock starts. ``check`` returns the list of violated conditions, empty when
the op is correct; a violation is a failure, never an exception.
``fingerprint`` reduces an op's outputs to values that must be bit-identical
between a traced and an untraced run of the same input; ``iterations`` is the
optimizer iteration count of an op (0 where no optimizer runs).

Every call into sgf2d goes through a module attribute (``optimizer.optimize``,
never a name bound at import), so that the tracer's rebinding sees it.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from sgf2d import adjoint, certificates, cli, config, grid, optimizer, sensitivity, spaces, state

OUT_DIR = Path(__file__).resolve().parent / "out"

# exceptions an op may raise that count as a failed op rather than a crash
OP_FAILURES = (state.BlowUpError, grid.SolverDivergenceError, config.ConfigError)

_BASE_STREAM = 10**6  # rng stream index of set-up inputs, disjoint from op indices


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def stream_velocity(g, coeffs):
    return grid.velocity_from_stream(spaces.stream_from_coeffs(g, np.asarray(coeffs, dtype=float)))


def smooth_control(pd, rng, amplitude, n_modes):
    """cos(pi t) V(c1) + sin(2 pi t) V(c2) with random stream modes c1, c2."""
    v1 = stream_velocity(pd.grid, amplitude * rng.standard_normal((n_modes, n_modes)))
    v2 = stream_velocity(pd.grid, amplitude * rng.standard_normal((n_modes, n_modes)))
    t = np.arange(pd.m_steps + 1) * pd.dt
    data = (
        np.cos(np.pi * t)[:, None, None, None] * np.stack([v1.u1, v1.u2])[None]
        + np.sin(2.0 * np.pi * t)[:, None, None, None] * np.stack([v2.u1, v2.u2])[None]
    )
    return state.Trajectory(pd.grid, pd.dt, "control", data)


class Track16:
    """Projected-gradient tracking to convergence: criterion 10 with 3 time steps."""

    N, M, ALPHA, NU, T, LAM = 16, 3, 0.05, 0.02, 2.0, 1e-4
    MAX_ITER = 400

    def __init__(self, seed: int):
        self.seed = seed
        g = grid.Grid(self.N)
        self.pd_fwd = state.ProblemData(
            alpha=self.ALPHA, nu=self.NU, T=self.T, grid=g, m_steps=self.M,
            y0=stream_velocity(g, [[0.0]]),
        )
        # warm the spectral operator cache and the FFT plans of this shape
        adjoint.solve_adjoint(state.solve_state(None, self.pd_fwd), None, self.pd_fwd)

    def make_input(self, i: int):
        """Reachable target y_d = S(u_hat) of a time-constant stream control."""
        rng = np.random.default_rng([self.seed, i])
        coeffs = np.zeros((2, 2))
        coeffs[0, 0] = rng.uniform(0.03, 0.07)
        coeffs[0, 1], coeffs[1, 0] = rng.uniform(-0.01, 0.01, 2)
        vf = stream_velocity(self.pd_fwd.grid, coeffs)
        n, m = self.N, self.M
        data = np.broadcast_to(np.stack([vf.u1, vf.u2]), (m + 1, 2, n, n)).copy()
        u_hat = state.Trajectory(self.pd_fwd.grid, self.pd_fwd.dt, "control", data)
        p = self.pd_fwd
        return state.ProblemData(
            alpha=p.alpha, nu=p.nu, T=p.T, grid=p.grid, m_steps=p.m_steps, y0=p.y0,
            y_d=state.solve_state(u_hat, p).velocity,
            L=2.0 * state.control_h1_norm(u_hat),
            lam=self.LAM,
        )

    def run(self, pd):
        return optimizer.optimize(pd, opts=optimizer.OptimizeOptions(max_iter=self.MAX_ITER))

    def check(self, pd, rep) -> list[str]:
        problems = []
        if not rep.converged:
            problems.append(f"not converged: {rep.message}")
        j0, j = rep.iterates[0].J, rep.J_final
        if not 0.0 <= 1e3 * j <= j0:
            problems.append(f"J fell from {j0:.3e} to {j:.3e}, less than 1000x")
        return problems

    def fingerprint(self, rep):
        return (rep.J_final, rep.n_iterations, _digest(rep.u_final.data))

    def iterations(self, rep) -> int:
        return rep.n_iterations

    def close(self) -> None:
        pass


class Sweep63:
    """Tangent, second-order and adjoint sweeps on 63^2 x 100 around one base state."""

    N, M, ALPHA, NU, T, L, LAM = 63, 100, 0.5, 0.1, 0.5, 5.0, 1e-3

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, _BASE_STREAM])
        g = grid.Grid(self.N)
        self.pd = state.ProblemData(
            alpha=self.ALPHA, nu=self.NU, T=self.T, grid=g, m_steps=self.M,
            y0=stream_velocity(g, 0.005 * rng.standard_normal((3, 3))),
            y_d=stream_velocity(g, 0.3 * rng.standard_normal((2, 2))),
            L=self.L, lam=self.LAM,
        )
        self.base = state.solve_state(smooth_control(self.pd, rng, 0.02, 3), self.pd)
        pd = self.pd
        self.h2 = pd.grid.h ** 2
        self.rho = state.left_weights(pd.m_steps, pd.dt)
        self.tau = state.trap_weights(pd.m_steps, pd.dt)
        self.mismatch = self.base.y - pd.target_stack()

    def make_input(self, i: int):
        """Direction w and adjoint source phi."""
        rng = np.random.default_rng([self.seed, i])
        return smooth_control(self.pd, rng, 0.5, 4), smooth_control(self.pd, rng, 0.5, 4)

    def run(self, inp):
        w, phi = inp
        base, pd = self.base, self.pd
        gap = adjoint.duality_gap(base, w, phi, pd)
        tan = sensitivity.solve_linearized(base, w, pd)
        second = sensitivity.solve_second(base, tan, tan, pd)
        hess = certificates.hessian_quadratic_form(base, w, pd, pd.lam)
        return gap, tan, second, hess

    def check(self, inp, out) -> list[str]:
        w, phi = inp
        gap, tan, second, hess = out
        h2, rho, tau = self.h2, self.rho, self.tau
        problems = []
        z_sq = h2 * float(np.dot(rho, state.slice_dots(tan.z, tan.z)))
        phi_sq = h2 * float(np.dot(rho, state.slice_dots(phi.data, phi.data)))
        # The gap is scaled by |z|_rho |phi|_rho, which bounds the pairing <z, phi>_rho
        # and sets the size of its rounding error. The pairing itself can be
        # arbitrarily small for a nearly orthogonal draw.
        scaled_gap = gap / math.sqrt(z_sq * phi_sq)
        if not scaled_gap <= 1e-11:
            problems.append(f"duality gap {scaled_gap:.3e} x |z||phi| > 1e-11 x |z||phi|")
        via_second = (
            z_sq
            + h2 * float(np.dot(rho, state.slice_dots(self.mismatch, second.z)))
            + self.pd.lam * h2 * float(np.dot(tau, state.slice_dots(w.data, w.data)))
        )
        disagreement = _rel(hess, via_second)
        if not disagreement <= 1e-8:
            problems.append(f"Hessian forms disagree by {disagreement:.3e} (rel) > 1e-8")
        return problems

    def fingerprint(self, out):
        gap, tan, second, hess = out
        return (gap, hess, _digest(tan.z, second.z))

    def iterations(self, out) -> int:
        return 0

    def close(self) -> None:
        pass


class Pipeline16:
    """simulate -> estimate-constants -> certify through cli.run, in-process."""

    SIM_GRID, SIM_STEPS, SNAPSHOT_EVERY = 32, 50, 5
    EST_GRID, SAMPLES = 16, 10
    PROBLEM = "alpha = 0.5\nnu = 0.1\nT = 0.5\n"

    def __init__(self, seed: int):
        self.seed = seed
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="pipeline16-", dir=OUT_DIR))

    def make_input(self, i: int):
        # drop the previous op's outputs; each run of an op writes to a fresh directory
        shutil.rmtree(self.workdir)
        self.workdir.mkdir()
        rng = np.random.default_rng([self.seed, i])
        y0 = [float(a) for a in rng.uniform(0.005, 0.015, 3)]
        yd = [float(a) for a in rng.uniform(0.05, 0.15, 2)]
        return {
            "y0_modes": f"1,1,{y0[0]!r}; 1,2,{y0[1]!r}; 2,1,{y0[2]!r}",
            "yd_modes": f"1,1,{yd[0]!r}; 2,2,{yd[1]!r}",
            "seed": int(rng.integers(2**31)),
            "L": float(rng.uniform(0.5, 2.0)),
            "lam": float(rng.uniform(1e-4, 1e-2)),
        }

    def _leg(self, op_dir: Path, name: str, subcommand: str, text: str) -> int:
        path = op_dir / f"{name}.cfg"
        path.write_text(text)
        return cli.run(config.parse_config(path), subcommand, op_dir / name)

    def run(self, inp):
        op_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        run_keys = f"[run]\nseed = {inp['seed']}\n"
        sim = (
            f"{self.PROBLEM}grid = {self.SIM_GRID}\nsteps = {self.SIM_STEPS}\n"
            f"y0_modes = {inp['y0_modes']}\n"
        )
        codes = [
            self._leg(op_dir, "sim", "simulate",
                      f"{sim}{run_keys}snapshot_every = {self.SNAPSHOT_EVERY}\n"),
            self._leg(op_dir, "est", "estimate-constants",
                      f"{self.PROBLEM}grid = {self.EST_GRID}\nsteps = 1\n"
                      f"{run_keys}samples = {self.SAMPLES}\nkinds = korn,elliptic,trilinear\n"),
            self._leg(op_dir, "cert", "certify",
                      f"{sim}yd_modes = {inp['yd_modes']}\nL = {inp['L']!r}\n"
                      f"lambda = {inp['lam']!r}\n{run_keys}"
                      f"constants_file = {op_dir / 'est' / 'constants.txt'}\n"),
        ]
        return {
            "codes": codes,
            "certificate": _read(op_dir / "cert" / "certificate.txt"),
            "constants": _read(op_dir / "est" / "constants.txt"),
            "log": _read(op_dir / "sim" / "log.csv"),
        }

    def check(self, inp, out) -> list[str]:
        problems = [f"{name} was not written" for name, text in out.items() if text is None]
        if out["codes"] != [0, 0, 0]:
            problems.append(f"exit codes {out['codes']} (want 0, 0, 0)")
        if out["certificate"] is not None:
            try:
                report = certificates.CertificateReport.from_text(out["certificate"])
            except (ValueError, TypeError) as exc:
                problems.append(f"certificate.txt does not parse: {exc}")
            else:
                if report.to_text() != out["certificate"]:
                    problems.append("certificate.txt does not round-trip")
                if not report.illustrative:
                    problems.append("illustrative = false although C1-C4 are defaults")
        if out["log"] is not None:
            rows = out["log"].splitlines()[1:]
            if len(rows) != self.SIM_STEPS + 1:
                problems.append(f"log.csv has {len(rows)} rows (want {self.SIM_STEPS + 1})")
            if not all(_finite(x) for row in rows for x in row.split(",")):
                problems.append("log.csv has non-finite or unreadable entries")
        return problems

    def fingerprint(self, out):
        return (tuple(out["codes"]), out["certificate"], out["constants"], out["log"])

    def iterations(self, out) -> int:
        return 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"track16": Track16, "sweep63": Sweep63, "pipeline16": Pipeline16}
