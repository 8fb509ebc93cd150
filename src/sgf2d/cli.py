"""Command-line front end.

Subcommands: simulate | optimize | gradcheck | certify | estimate-constants
| multistart. All artifacts land under --out: fields/*.bin, fields/*.csv,
log.csv, report.txt, certificate.txt. Exit codes: 0 success, 1 solver
failure, 2 config error. A config is parsed, validated and built into its
problem and optimizer options before anything is written, so a config error
leaves no partial artifacts; a negative --seed or --snapshot-every exits 2
the same way, before --out is created.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fieldio
from .certificates import CertificateInputs, certify
from .config import ConfigError, RunConfig, parse_config
from .grid import Grid, ScalarField2D, VectorField2D
from .optimizer import _evaluate, multi_start_uniqueness, optimize, start_control
from .adjoint import gradient_field, solve_adjoint
from .spaces import (
    _INEQUALITIES,
    _PENCIL_KINDS,
    CONSTANT_NAMES,
    N_MODES,
    DomainConstants,
    estimate_constant,
    save_constants,
)
from .state import (
    BlowUpError,
    ProblemData,
    _warn_cfl,
    l2q_inner,
    solve_state,
    trap_weights,
)


def _snapshot_indices(m: int, every: int) -> list[int]:
    picks = {0, m}
    if every > 0:
        picks.update(range(0, m + 1, every))
    return sorted(picks)


def _write_snapshot(out: Path, prefix: str, k: int, field: ScalarField2D | VectorField2D) -> None:
    """Write step k of the field prefix as its .bin and .csv snapshot under out."""
    path = fieldio.snapshot_path(out, prefix, k, ".bin")
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldio.write_field(path, field)
    fieldio.write_field_csv(fieldio.snapshot_path(out, prefix, k, ".csv"), field)


def _write_velocity_snapshots(out: Path, prefix: str, grid: Grid, data, idx) -> None:
    """Write the picked slices k of an (m+1, 2, n, n) velocity stack."""
    for k in idx:
        _write_snapshot(out, prefix, k, VectorField2D(grid, data[k, 0], data[k, 1]))


def _report(out: Path, subcommand: str, pd: ProblemData, seed: int, pairs) -> None:
    """report.txt: the subcommand, the problem parameters, then its own pairs."""
    problem = [
        ("alpha", pd.alpha),
        ("nu", pd.nu),
        ("T", pd.T),
        ("grid", pd.grid.n_interior),
        ("steps", pd.m_steps),
        ("L", pd.L),
        ("lambda", pd.lam),
        ("seed", seed),
    ]
    (out / "report.txt").write_text(fieldio.pairs_text(subcommand, problem + pairs))


# Each subcommand writes its artifacts and returns the pairs of its report.txt.

def _cmd_simulate(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> list:
    sol = solve_state(None, pd)
    idx = _snapshot_indices(pd.m_steps, every)
    _write_velocity_snapshots(out, "y", pd.grid, sol.y, idx)
    for k in idx:
        _write_snapshot(out, "omega", k, ScalarField2D(pd.grid, sol.omega[k]))
    fieldio.write_rows(
        out / "log.csv",
        ["step", "time", "norm_h1", "norm_h3"],
        [(k, k * pd.dt, sol.norms_h1[k], sol.norms_h3[k]) for k in range(pd.m_steps + 1)],
    )
    _warn_cfl(sol.cfl_max, stacklevel=2)
    return [
        ("snapshots", len(idx)),
        ("final_norm_h1", sol.norms_h1[-1]),
        ("final_norm_h3", sol.norms_h3[-1]),
        ("max_cfl", sol.cfl_max),
    ]


def _cmd_optimize(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> list:
    rep = optimize(pd, None, rc.options)
    idx = _snapshot_indices(pd.m_steps, every)
    _write_velocity_snapshots(out, "u", pd.grid, rep.u_final.data, idx)
    _write_velocity_snapshots(out, "y", pd.grid, rep.final_state.y, idx)
    rep.write_csv(out / "log.csv")
    return [
        ("J_initial", rep.iterates[0].J),
        ("J_final", rep.J_final),
        ("iterations", rep.n_iterations),
        ("n_state_solves", rep.n_state_solves),
        ("n_adjoint_solves", rep.n_adjoint_solves),
        ("n_halvings", rep.n_halvings),
        ("ball_ratio", rep.ball_ratio),
        ("n_nonfinite_trials", rep.n_nonfinite_trials),
        ("vi_final", rep.iterates[-1].vi),
        ("tol", rep.tol),
        ("converged", rep.converged),
        ("message", rep.message),
        ("wall_time_s", f"{rep.wall_time:.3f}"),
    ]


def _cmd_gradcheck(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> list:
    u = start_control(pd, seed, 0)
    w = start_control(pd, seed, 1)
    sol = solve_state(u, pd)
    g = gradient_field(u, solve_adjoint(sol, None, pd), pd.lam)
    adjoint_val = l2q_inner(g, w, trap_weights(pd.m_steps, pd.dt))
    rows = []
    for eps in (1e-2, 1e-3, 1e-4):
        fd = (_evaluate(pd, u + eps * w)[1] - _evaluate(pd, u - eps * w)[1]) / (2.0 * eps)
        rel = abs(fd - adjoint_val) / max(abs(adjoint_val), 1e-300)
        rows.append((eps, fd, adjoint_val, rel))
    fieldio.write_rows(
        out / "log.csv", ["epsilon", "fd_value", "adjoint_value", "relative_error"], rows
    )
    return [("directional_derivative", adjoint_val)] + [
        (f"rel_error_at_{fieldio.text_value(eps)}", rel) for eps, _, _, rel in rows
    ]


def _cmd_certify(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> list:
    ci = CertificateInputs.from_problem(pd, rc.constants)
    rep = certify(ci, lambda3_reading=rc["lambda3_reading"])
    rep.write_text(out / "certificate.txt")
    rep.write_csv(out / "log.csv")
    return [
        ("coercivity_threshold", rep.coercivity_threshold),
        ("uniqueness_threshold", rep.uniqueness_threshold),
        ("verdict_second_order", rep.verdict_second_order),
        ("verdict_uniqueness", rep.verdict_uniqueness),
        ("illustrative", rep.illustrative),
    ]


def _cmd_estimate(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> list:
    rows = []
    for kind in rc["kinds"]:
        value = estimate_constant(kind, rc["samples"], seed, grid=pd.grid, alpha=pd.alpha)
        # samples and seed steer only the sampled kind; the pencil kinds are exact over the modes
        steered = ("", "") if kind in _PENCIL_KINDS else (rc["samples"], seed)
        rows.append((_INEQUALITIES[kind][2], kind, N_MODES, *steered, value))
    estimated = {row[0]: row[-1] for row in rows}
    sources = {n: "estimated" if n in estimated else "default_unit" for n in CONSTANT_NAMES}
    save_constants(out / "constants.txt", DomainConstants(**estimated, source=sources))
    fieldio.write_rows(out / "log.csv", ["constant", "kind", "n_modes", "samples", "seed", "value"], rows)
    return [(cname, f"{fieldio.text_value(value)} ({kind})") for cname, kind, *_, value in rows]


def _cmd_multistart(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> list:
    constants = rc.constants if rc.constants_inline else None
    ms = multi_start_uniqueness(pd, rc["n_starts"], seed, constants, rc.options)
    mid = pd.m_steps // 2
    for i, rep in enumerate(ms.reports):
        _write_snapshot(out, f"u_start{i}", mid, rep.u_final.slice(mid))
    fieldio.write_rows(
        out / "log.csv",
        ["start", "J_final", "converged", "iterations", "vi_final"],
        [
            (i, rep.J_final, rep.converged, rep.n_iterations, rep.iterates[-1].vi)
            for i, rep in enumerate(ms.reports)
        ],
    )
    pairs = [
        ("n_starts", rc["n_starts"]),
        ("max_pairwise_distance", ms.max_distance),
        ("distance_tol", ms.distance_tol),
        ("relative_spread", ms.relative_spread),
        ("all_within_tol", ms.all_within_tol),
        ("all_converged", ms.all_converged),
    ]
    if ms.uniqueness_threshold is not None:
        pairs += [
            ("uniqueness_threshold", ms.uniqueness_threshold),
            ("lambda_exceeds_threshold", ms.lambda_exceeds_threshold),
            ("illustrative", ms.illustrative),
        ]
    return pairs


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "gradcheck": _cmd_gradcheck,
    "certify": _cmd_certify,
    "estimate-constants": _cmd_estimate,
    "multistart": _cmd_multistart,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgf2d",
        description="Optimal control of a 2D second-grade fluid: "
        "simulation, adjoint gradients, optimization, and optimality certificates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument(
            "--seed", type=int, default=None, help="override the config seed (default: 0)"
        )
        p.add_argument(
            "--snapshot-every",
            type=int,
            default=None,
            metavar="K",
            help="write field snapshots every K steps (default: endpoints only)",
        )
    return parser


def run(config: RunConfig, subcommand: str, out_dir, seed=None, snapshot_every=None) -> int:
    """Dispatch a parsed config on its problem; creates out_dir only after
    validation and writes report.txt from the pairs the subcommand returns."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    pd = config.problem
    seed = config["seed"] if seed is None else seed
    every = config["snapshot_every"] if snapshot_every is None else snapshot_every
    for flag, value in (("seed", seed), ("snapshot-every", every)):
        if value < 0:
            raise ConfigError(f"{flag} must be nonnegative")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = _COMMANDS[subcommand](config, pd, out, seed, every)
    _report(out, subcommand, pd, seed, pairs)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = parse_config(args.config)
        return run(rc, args.subcommand, args.out, args.seed, args.snapshot_every)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
