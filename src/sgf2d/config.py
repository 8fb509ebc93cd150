"""Flat key-value run configuration.

Format: one `name = value` per line, optional `[problem]`, `[run]`,
`[constants]` section headers; keys before any header belong to [problem].
Lines are read by `fieldio.read_pairs`, the reader of constants files and
certificates too: `#` starts a comment anywhere on a line, and a line without
`=`, a repeated key or an unknown section is refused with file:line. Unknown
keys are rejected with file:line and a close-match suggestion.

Where each check lives: every value is typed and checked once, at its line,
by its key's parser in `_PROBLEM_KEYS`/`_RUN_KEYS` (mode triples and
estimation kinds included) through `fieldio.typed_value`
(`file:line: bad value for KEY: ...`). A run key with a range or a choice
carries that rule in its own row (`_ruled`), so it is refused at its line
before anything runs: `snapshot_every` >= 0, `n_starts` >= 2, `samples` >= 1
and `lambda3_reading` `printed` or `derived`.
The problem's and optimizer's invariants are checked only by the library:
`parse_config` builds the `ProblemData` (with `build_problem`, which reads
`yd_from` snapshots and may raise the y0 CFL warning) and the
`OptimizeOptions`, and turns their ValueError into a ConfigError naming the
file. `parse_config` itself checks only that `yd_modes` and `yd_from`, and
`constants_file` and `[constants]`, exclude each other."""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import _READINGS
from .fieldio import read_field, read_pairs, typed_value
from .grid import Grid, ScalarField2D, VectorField2D, velocity_from_stream
from .optimizer import OptimizeOptions
from .spaces import _INEQUALITIES, CONSTANT_NAMES, DomainConstants, load_constants
from .state import ProblemData, Trajectory


class ConfigError(ValueError):
    """Raised for unparsable configs and invariant violations."""


def _parse_modes(text: str) -> tuple[tuple[int, int, float], ...]:
    """`k1,k2,amplitude` triples separated by `;`."""
    modes = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [b.strip() for b in part.split(",")]
        if len(bits) != 3:
            raise ValueError(f"mode {part!r} is not 'k1,k2,amplitude'")
        try:
            k1, k2, amp = int(bits[0]), int(bits[1]), float(bits[2])
        except ValueError as exc:
            raise ValueError(f"mode {part!r}: {exc}") from exc
        if k1 < 1 or k2 < 1:
            raise ValueError(f"mode numbers must be >= 1 in {part!r}")
        if not math.isfinite(amp):
            raise ValueError(f"mode amplitude must be finite in {part!r}")
        modes.append((k1, k2, amp))
    return tuple(modes)


def _parse_kinds(text: str) -> tuple[str, ...]:
    """Comma-separated estimation kinds, each a key of spaces._INEQUALITIES."""
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    for kind in kinds:
        if kind not in _INEQUALITIES:
            raise ValueError(f"unknown estimation kind {kind!r}")
    return kinds


def _ruled(parse, ok, rule: str):
    """parse with a key's rule: a value v with ok(v) false is refused as `rule (got v)`."""

    def parse_ruled(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{rule} (got {value!r})")
        return value

    return parse_ruled


# every key of [problem] and [run] as name: (parser, default); _REQUIRED has none
_REQUIRED = object()
_PROBLEM_KEYS = {
    "alpha": (float, _REQUIRED),
    "nu": (float, _REQUIRED),
    "T": (float, _REQUIRED),
    "grid": (int, _REQUIRED),
    "steps": (int, _REQUIRED),
    "L": (float, 1.0),
    "lambda": (float, 0.0),
    "y0_modes": (_parse_modes, ()),
    "yd_modes": (_parse_modes, ()),
    "yd_from": (str, ""),
}
_RUN_KEYS = {
    "seed": (int, 0),
    "snapshot_every": (_ruled(int, lambda v: v >= 0, "must be nonnegative"), 0),
    "tol": (float, None),
    "max_iter": (int, None),
    "n_starts": (_ruled(int, lambda v: v >= 2, "must be at least 2"), 4),
    "samples": (_ruled(int, lambda v: v >= 1, "must be at least 1"), 100),
    "kinds": (_parse_kinds, tuple(_INEQUALITIES)),
    "lambda3_reading": (
        _ruled(str, lambda v: v in _READINGS, "must be 'printed' or 'derived'"), "printed"
    ),
    "constants_file": (str, ""),
}
_SECTION_KEYS = {
    "problem": _PROBLEM_KEYS,
    "run": _RUN_KEYS,
    # an unset constant keeps DomainConstants's default
    "constants": dict.fromkeys(CONSTANT_NAMES, (float, None)),
}


@dataclass
class RunConfig:
    path: str
    values: dict
    constants: DomainConstants
    constants_inline: bool
    # built by parse_config from the values, before anything is written
    problem: ProblemData = field(init=False)
    options: OptimizeOptions = field(init=False)

    def __getitem__(self, key):
        return self.values[key]


def parse_config(path) -> RunConfig:
    """Read and validate a config file and build its problem and optimizer
    options; all errors carry file:line or the file."""
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    values = {k: d for keys in (_PROBLEM_KEYS, _RUN_KEYS) for k, (_, d) in keys.items()}
    inline_constants: dict[str, float] = {}
    try:
        for where, section, key, val in read_pairs(raw_lines, path, tuple(_SECTION_KEYS)):
            keys = _SECTION_KEYS[section]
            if key not in keys:
                pool = [k for sec in _SECTION_KEYS.values() for k in sec]
                close = difflib.get_close_matches(key, pool, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ValueError(f"{where}: unknown key {key!r} in [{section}]{hint}")
            parsed = typed_value(where, key, val, keys[key][0])
            (inline_constants if section == "constants" else values)[key] = parsed
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for key, value in values.items():
        if value is _REQUIRED:
            raise ConfigError(f"{path}: missing required key {key!r}")

    if values["yd_modes"] and values["yd_from"]:
        raise ConfigError(f"{path}: yd_modes and yd_from are mutually exclusive")

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

    rc = RunConfig(path=str(path), values=values, constants=constants, constants_inline=inline)
    given = {key: values[key] for key in ("tol", "max_iter") if values[key] is not None}
    try:
        rc.options = OptimizeOptions(**given)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    rc.problem = build_problem(rc)
    return rc


def modes_to_stream(grid: Grid, modes) -> ScalarField2D:
    x1, x2 = grid.coords()
    values = np.zeros(grid.shape)
    for k1, k2, amp in modes:
        values += amp * np.sin(k1 * np.pi * x1) * np.sin(k2 * np.pi * x2)
    return ScalarField2D(grid, values)


def _velocity_from_modes(grid: Grid, modes) -> VectorField2D:
    return velocity_from_stream(modes_to_stream(grid, modes))


def _read_reference_trajectory(run_dir, grid: Grid, m_steps: int, T: float) -> Trajectory:
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
    return Trajectory(grid, T / m_steps, "target", data)


def build_problem(rc: RunConfig) -> ProblemData:
    """The problem of a config's values; a ValueError of the library (an
    invariant of Grid or ProblemData, an unreadable yd_from snapshot) becomes
    a ConfigError naming the config."""
    v = rc.values
    try:
        grid = Grid(v["grid"])
        y_d = None
        if v["yd_modes"]:
            y_d = _velocity_from_modes(grid, v["yd_modes"])
        elif v["yd_from"] and v["steps"] >= 1:  # ProblemData refuses other step counts
            y_d = _read_reference_trajectory(v["yd_from"], grid, v["steps"], v["T"])
        return ProblemData(
            alpha=v["alpha"],
            nu=v["nu"],
            T=v["T"],
            grid=grid,
            m_steps=v["steps"],
            y0=_velocity_from_modes(grid, v["y0_modes"]),
            y_d=y_d,
            L=v["L"],
            lam=v["lambda"],
        )
    except ValueError as exc:
        raise ConfigError(f"{rc.path}: {exc}") from exc
