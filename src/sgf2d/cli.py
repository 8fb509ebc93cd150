"""Command-line front end.

Subcommands: simulate | optimize | gradcheck | certify | estimate-constants
| multistart. All artifacts land under --out: fields/*.bin, fields/*.csv,
log.csv, report.txt, certificate.txt. Exit codes: 0 success, 1 solver
failure, 2 config error. Configs are parsed and validated before anything
is written, so a config error leaves no partial artifacts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fieldio
from .certificates import CertificateInputs, certify
from .config import ConfigError, RunConfig, _kinds_list, build_problem, parse_config
from .grid import ScalarField2D, VectorField2D
from .optimizer import (
    OptimizeOptions,
    cost,
    multi_start_uniqueness,
    optimize,
    start_control,
)
from .adjoint import gradient_field, solve_adjoint
from .spaces import (
    CONSTANT_NAMES,
    DomainConstants,
    estimate_constant,
    save_constants,
)
from .state import (
    BlowUpError,
    ProblemData,
    Trajectory,
    _warn_cfl,
    l2q_inner_values,
    solve_state,
    trap_weights,
)

_KIND_TO_CONSTANT = {"korn": "K", "elliptic": "K_tilde", "trilinear": "K_hat"}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _snapshot_indices(m: int, every: int) -> list[int]:
    picks = {0, m}
    if every > 0:
        picks.update(range(0, m + 1, every))
    return sorted(picks)


def _write_snapshot(fields_dir: Path, name: str, field: ScalarField2D | VectorField2D) -> None:
    """Write one field as fields_dir/name.bin and fields_dir/name.csv."""
    fieldio.write_field(fields_dir / f"{name}.bin", field)
    fieldio.write_field_csv(fields_dir / f"{name}.csv", field)


def _write_velocity_snapshots(fields_dir: Path, prefix: str, traj: Trajectory, idx) -> None:
    for k in idx:
        f = VectorField2D(traj.grid, traj.data[k, 0], traj.data[k, 1])
        _write_snapshot(fields_dir, f"{prefix}_{k:06d}", f)


def _report(out: Path, lines) -> None:
    with open(out / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _problem_lines(pd: ProblemData, seed: int) -> list[str]:
    return [
        f"alpha = {_fmt(pd.alpha)}",
        f"nu = {_fmt(pd.nu)}",
        f"T = {_fmt(pd.T)}",
        f"grid = {pd.grid.n_interior}",
        f"steps = {pd.m_steps}",
        f"L = {_fmt(pd.L)}",
        f"lambda = {_fmt(pd.lam)}",
        f"seed = {seed}",
    ]


def _cmd_simulate(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> int:
    sol = solve_state(None, pd)
    fields_dir = out / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    idx = _snapshot_indices(pd.m_steps, every)
    _write_velocity_snapshots(fields_dir, "y", sol.velocity, idx)
    for k in idx:
        _write_snapshot(fields_dir, f"omega_{k:06d}", ScalarField2D(pd.grid, sol.omega[k]))
    with open(out / "log.csv", "w") as fh:
        fh.write("step,time,norm_h1,norm_h3\n")
        for k in range(pd.m_steps + 1):
            fh.write(
                f"{k},{_fmt(k * pd.dt)},{_fmt(sol.norms_h1[k])},{_fmt(sol.norms_h3[k])}\n"
            )
    _report(
        out,
        ["simulate"]
        + _problem_lines(pd, seed)
        + [
            f"snapshots = {len(idx)}",
            f"final_norm_h1 = {_fmt(sol.norms_h1[-1])}",
            f"final_norm_h3 = {_fmt(sol.norms_h3[-1])}",
            f"max_cfl = {_fmt(sol.cfl_max)}",
        ],
    )
    _warn_cfl(sol.cfl_max, stacklevel=2)
    return 0


def _opts_from(rc: RunConfig) -> OptimizeOptions:
    given = {key: rc[key] for key in ("tol", "max_iter") if rc[key] is not None}
    return OptimizeOptions(**given)


def _cmd_optimize(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> int:
    rep = optimize(pd, None, _opts_from(rc))
    fields_dir = out / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    idx = _snapshot_indices(pd.m_steps, every)
    _write_velocity_snapshots(fields_dir, "u", rep.u_final, idx)
    _write_velocity_snapshots(fields_dir, "y", rep.final_state.velocity, idx)
    rep.write_csv(out / "log.csv")
    first = rep.iterates[0]
    last = rep.iterates[-1]
    _report(
        out,
        ["optimize"]
        + _problem_lines(pd, seed)
        + [
            f"J_initial = {_fmt(first.J)}",
            f"J_final = {_fmt(rep.J_final)}",
            f"iterations = {rep.n_iterations}",
            f"vi_final = {_fmt(last.vi)}",
            f"tol = {_fmt(rep.tol)}",
            f"converged = {'true' if rep.converged else 'false'}",
            f"message = {rep.message}",
            f"wall_time_s = {rep.wall_time:.3f}",
        ],
    )
    return 0


def _cmd_gradcheck(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> int:
    u = start_control(pd, seed, 0)
    w = start_control(pd, seed, 1)

    def J(ctrl: Trajectory) -> float:
        return cost(ctrl, solve_state(ctrl, pd).velocity, pd.y_d, pd.lam)

    sol = solve_state(u, pd)
    g = gradient_field(u, solve_adjoint(sol, None, pd), pd.lam)
    adjoint_val = l2q_inner_values(g.data, w.data, trap_weights(pd.m_steps, pd.dt), pd.grid.h)
    rows = []
    for eps in (1e-2, 1e-3, 1e-4):
        fd = (J(u + eps * w) - J(u - eps * w)) / (2.0 * eps)
        rel = abs(fd - adjoint_val) / max(abs(adjoint_val), 1e-300)
        rows.append((eps, fd, rel))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "log.csv", "w") as fh:
        fh.write("epsilon,fd_value,adjoint_value,relative_error\n")
        for eps, fd, rel in rows:
            fh.write(f"{_fmt(eps)},{_fmt(fd)},{_fmt(adjoint_val)},{_fmt(rel)}\n")
    _report(
        out,
        ["gradcheck"]
        + _problem_lines(pd, seed)
        + [f"directional_derivative = {_fmt(adjoint_val)}"]
        + [f"rel_error_at_{_fmt(eps)} = {_fmt(rel)}" for eps, _, rel in rows],
    )
    return 0


def _cmd_certify(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> int:
    ci = CertificateInputs.from_problem(pd, rc.constants, u_norm_source=rc["u_norm_source"])
    rep = certify(ci, lambda3_reading=rc["lambda3_reading"])
    rep.write_text(out / "certificate.txt")
    rep.write_csv(out / "log.csv")
    _report(
        out,
        ["certify"]
        + _problem_lines(pd, seed)
        + [
            f"coercivity_threshold = {_fmt(rep.coercivity_threshold)}",
            f"uniqueness_threshold = {_fmt(rep.uniqueness_threshold)}",
            f"verdict_second_order = {'true' if rep.verdict_second_order else 'false'}",
            f"verdict_uniqueness = {'true' if rep.verdict_uniqueness else 'false'}",
            f"illustrative = {'true' if rep.illustrative else 'false'}",
        ],
    )
    return 0


def _cmd_estimate(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> int:
    estimates = {}
    for kind in _kinds_list(rc["kinds"]):
        estimates[kind] = estimate_constant(
            kind, rc["samples"], seed, grid=pd.grid, alpha=pd.alpha
        )
    kwargs = {}
    sources = {name: "default_unit" for name in CONSTANT_NAMES}
    for kind, value in estimates.items():
        cname = _KIND_TO_CONSTANT[kind]
        kwargs[cname] = value
        sources[cname] = "estimated"
    dc = DomainConstants(**kwargs, source=sources)
    save_constants(out / "constants.txt", dc)
    with open(out / "log.csv", "w") as fh:
        fh.write("constant,kind,samples,seed,value\n")
        for kind, value in estimates.items():
            fh.write(f"{_KIND_TO_CONSTANT[kind]},{kind},{rc['samples']},{seed},{_fmt(value)}\n")
    _report(
        out,
        ["estimate-constants"]
        + _problem_lines(pd, seed)
        + [f"{_KIND_TO_CONSTANT[k]} = {_fmt(v)} ({k})" for k, v in estimates.items()],
    )
    return 0


def _cmd_multistart(rc: RunConfig, pd: ProblemData, out: Path, seed: int, every: int) -> int:
    constants = rc.constants if rc.constants_inline else None
    ms = multi_start_uniqueness(pd, rc["n_starts"], seed, constants, _opts_from(rc))
    fields_dir = out / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    mid = pd.m_steps // 2
    for i, rep in enumerate(ms.reports):
        u = rep.u_final
        f = VectorField2D(pd.grid, u.data[mid, 0], u.data[mid, 1])
        _write_snapshot(fields_dir, f"u_start{i}_{mid:06d}", f)
    with open(out / "log.csv", "w") as fh:
        fh.write("start,J_final,converged,iterations,vi_final\n")
        for i, rep in enumerate(ms.reports):
            fh.write(
                f"{i},{_fmt(rep.J_final)},{'true' if rep.converged else 'false'},"
                f"{rep.n_iterations},{_fmt(rep.iterates[-1].vi)}\n"
            )
    lines = (
        ["multistart"]
        + _problem_lines(pd, seed)
        + [
            f"n_starts = {rc['n_starts']}",
            f"max_pairwise_distance = {_fmt(ms.max_distance)}",
            f"distance_tol = {_fmt(ms.distance_tol)}",
            f"all_within_tol = {'true' if ms.all_within_tol else 'false'}",
        ]
    )
    if ms.uniqueness_threshold is not None:
        lines += [
            f"uniqueness_threshold = {_fmt(ms.uniqueness_threshold)}",
            f"lambda_exceeds_threshold = {'true' if ms.lambda_exceeds_threshold else 'false'}",
            f"illustrative = {'true' if ms.illustrative else 'false'}",
        ]
    _report(out, lines)
    return 0


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
    """Dispatch a parsed config; creates out_dir only after validation."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    pd = build_problem(config)
    seed = config["seed"] if seed is None else seed
    every = config["snapshot_every"] if snapshot_every is None else snapshot_every
    if every < 0:
        raise ConfigError("snapshot-every must be nonnegative")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[subcommand](config, pd, out, seed, every)


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
