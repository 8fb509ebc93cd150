"""Flat key-value run configuration.

Format: one `name = value` per line, optional `[problem]`, `[run]`,
`[constants]` section headers; keys before any header belong to [problem].
Lines are read by `fieldio.read_pairs`, the reader of constants files and
certificates too: `#` starts a comment anywhere on a line, and a line without
`=`, a repeated key or an unknown section is refused with file:line. Unknown
keys are rejected with file:line and a close-match suggestion; invariant
violations name the offending field.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass

import numpy as np

from .fieldio import read_field, read_pairs
from .grid import Grid, ScalarField2D, VectorField2D, velocity_from_stream
from .spaces import _INEQUALITIES, CONSTANT_NAMES, DomainConstants, load_constants
from .state import ProblemData, Trajectory


class ConfigError(ValueError):
    """Raised for unparsable configs and invariant violations."""


# every key of [problem] and [run] as name: (type, default); _REQUIRED has none
_REQUIRED = object()
_PROBLEM_KEYS = {
    "alpha": (float, _REQUIRED),
    "nu": (float, _REQUIRED),
    "T": (float, _REQUIRED),
    "grid": (int, _REQUIRED),
    "steps": (int, _REQUIRED),
    "L": (float, 1.0),
    "lambda": (float, 0.0),
    "y0_modes": (str, ""),
    "yd_modes": (str, ""),
    "yd_from": (str, ""),
}
_RUN_KEYS = {
    "seed": (int, 0),
    "snapshot_every": (int, 0),
    "tol": (float, None),
    "max_iter": (int, None),
    "n_starts": (int, 4),
    "samples": (int, 100),
    "kinds": (str, "korn,elliptic,trilinear"),
    "lambda3_reading": (str, "printed"),
    "u_norm_source": (str, "ball_bound"),
    "constants_file": (str, ""),
}
_SECTION_KEYS = {
    "problem": _PROBLEM_KEYS,
    "run": _RUN_KEYS,
    # an unset constant keeps DomainConstants's default
    "constants": dict.fromkeys(CONSTANT_NAMES, (float, None)),
}


def _parse_modes(text: str, where: str) -> list[tuple[int, int, float]]:
    """`k1,k2,amplitude` triples separated by `;`."""
    modes = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [b.strip() for b in part.split(",")]
        if len(bits) != 3:
            raise ConfigError(f"{where}: mode {part!r} is not 'k1,k2,amplitude'")
        try:
            k1, k2, amp = int(bits[0]), int(bits[1]), float(bits[2])
        except ValueError as exc:
            raise ConfigError(f"{where}: mode {part!r}: {exc}") from exc
        if k1 < 1 or k2 < 1:
            raise ConfigError(f"{where}: mode numbers must be >= 1 in {part!r}")
        if not math.isfinite(amp):
            raise ConfigError(f"{where}: mode amplitude must be finite in {part!r}")
        modes.append((k1, k2, amp))
    return modes


@dataclass
class RunConfig:
    path: str
    values: dict
    constants: DomainConstants
    constants_inline: bool

    def __getitem__(self, key):
        return self.values[key]

    @property
    def lam(self) -> float:
        return self.values["lambda"]


def parse_config(path) -> RunConfig:
    """Read and validate a config file; all errors carry file:line."""
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    try:
        pairs = list(read_pairs(raw_lines, path, tuple(_SECTION_KEYS)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    values = {k: d for keys in (_PROBLEM_KEYS, _RUN_KEYS) for k, (_, d) in keys.items()}
    inline_constants: dict[str, float] = {}
    for where, section, key, val in pairs:
        keys = _SECTION_KEYS[section]
        if key not in keys:
            hint = ""
            pool = [k for sec in _SECTION_KEYS.values() for k in sec]
            close = difflib.get_close_matches(key, pool, n=1)
            if close:
                hint = f"; did you mean {close[0]!r}?"
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]{hint}")
        try:
            parsed = keys[key][0](val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
        (inline_constants if section == "constants" else values)[key] = parsed
        if key in ("y0_modes", "yd_modes"):
            _parse_modes(parsed, where)

    for key, value in values.items():
        if value is _REQUIRED:
            raise ConfigError(f"{path}: missing required key {key!r}")

    for name, cond, msg in (
        ("alpha", values["alpha"] > 0, "must be positive"),
        ("nu", values["nu"] > 0, "must be positive"),
        ("T", values["T"] > 0, "must be positive"),
        ("grid", values["grid"] >= 4, "must be at least 4"),
        ("steps", values["steps"] >= 1, "must be at least 1"),
        ("L", values["L"] > 0, "must be positive"),
        ("lambda", values["lambda"] >= 0, "must be nonnegative"),
        ("snapshot_every", values["snapshot_every"] >= 0, "must be nonnegative"),
        ("n_starts", values["n_starts"] >= 2, "must be at least 2"),
        ("samples", values["samples"] >= 1, "must be at least 1"),
        (
            "lambda3_reading",
            values["lambda3_reading"] in ("printed", "derived"),
            "must be 'printed' or 'derived'",
        ),
        (
            "u_norm_source",
            values["u_norm_source"] == "ball_bound",
            "must be 'ball_bound': the CLI certifies without a control, "
            "so 'actual' has no norm to read",
        ),
    ):
        if not cond:
            raise ConfigError(f"{path}: {name} {msg} (got {values[name]!r})")
    if values["tol"] is not None and not 0 < values["tol"] < math.inf:
        raise ConfigError(f"{path}: tol must be positive and finite")
    if values["max_iter"] is not None and values["max_iter"] < 1:
        raise ConfigError(f"{path}: max_iter must be at least 1")
    if values["yd_modes"] and values["yd_from"]:
        raise ConfigError(f"{path}: yd_modes and yd_from are mutually exclusive")
    for kind in _kinds_list(values["kinds"]):
        if kind not in _INEQUALITIES:
            raise ConfigError(f"{path}: unknown estimation kind {kind!r}")

    if values["constants_file"] and inline_constants:
        raise ConfigError(
            f"{path}: constants_file and an inline [constants] section are mutually exclusive"
        )
    if values["constants_file"]:
        try:
            constants = load_constants(values["constants_file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: constants_file: {exc}") from exc
        inline = True
    elif inline_constants:
        try:
            constants = DomainConstants(
                **inline_constants,
                source={name: "user_supplied" for name in inline_constants},
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: [constants]: {exc}") from exc
        inline = True
    else:
        constants = DomainConstants()
        inline = False

    return RunConfig(path=str(path), values=values, constants=constants, constants_inline=inline)


def _kinds_list(text: str) -> list[str]:
    return [k.strip() for k in text.split(",") if k.strip()]


def modes_to_stream(grid: Grid, modes) -> ScalarField2D:
    x1, x2 = grid.coords()
    values = np.zeros(grid.shape)
    for k1, k2, amp in modes:
        values += amp * np.sin(k1 * np.pi * x1) * np.sin(k2 * np.pi * x2)
    return ScalarField2D(grid, values)


def _velocity_from_modes(grid: Grid, modes) -> VectorField2D:
    return velocity_from_stream(modes_to_stream(grid, modes))


def _read_reference_trajectory(run_dir, grid: Grid, m_steps: int, dt: float) -> Trajectory:
    data = np.zeros((m_steps + 1, 2, grid.n_interior, grid.n_interior))
    for k in range(m_steps + 1):
        path = f"{run_dir}/fields/y_{k:06d}.bin"
        try:
            f = read_field(path)
        except OSError as exc:
            raise ConfigError(
                f"yd_from: missing snapshot {path} "
                "(reference run must use snapshot_every = 1)"
            ) from exc
        if not isinstance(f, VectorField2D):
            raise ConfigError(f"yd_from: {path} is not a velocity snapshot")
        if f.grid != grid:
            raise ConfigError(f"yd_from: {path} is on a different grid")
        data[k, 0], data[k, 1] = f.u1, f.u2
    return Trajectory(grid, dt, "target", data)


def build_problem(rc: RunConfig) -> ProblemData:
    v = rc.values
    grid = Grid(v["grid"])
    y0 = _velocity_from_modes(grid, _parse_modes(v["y0_modes"], rc.path))
    dt = v["T"] / v["steps"]
    y_d = None
    if v["yd_modes"]:
        y_d = _velocity_from_modes(grid, _parse_modes(v["yd_modes"], rc.path))
    elif v["yd_from"]:
        y_d = _read_reference_trajectory(v["yd_from"], grid, v["steps"], dt)
    try:
        return ProblemData(
            alpha=v["alpha"],
            nu=v["nu"],
            T=v["T"],
            grid=grid,
            m_steps=v["steps"],
            y0=y0,
            y_d=y_d,
            L=v["L"],
            lam=v["lambda"],
        )
    except ValueError as exc:
        raise ConfigError(f"{rc.path}: {exc}") from exc
