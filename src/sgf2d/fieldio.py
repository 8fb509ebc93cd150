"""Flat binary and CSV serialization of grid fields.

Binary layout: 16-byte header = magic b"SGF2", u32 n_interior, u32 component
count (1 scalar / 2 vector), u32 reserved zero; then the components as
row-major little-endian float64 blocks (u1 block then u2 block for vectors).

CSV layout: a header line ``x1,x2,value`` (scalar) or ``x1,x2,v1,v2``
(vector), then one row per interior node in i-major order (node (i, j) is
line i*n + j + 2 of the file), holding its coordinates and value(s). Every
number is written with ``%.17g``, so it reads back to the same float64, and
every line ends in ``\r\n``.

A run directory keeps step k of a field named prefix as
``fields/{prefix}_{k:06d}.bin`` and ``.csv``; ``snapshot_path`` is the one
place that spells that name, for the CLI's writer and the ``yd_from`` reader.

Text artifacts (reports, certificates, constants files, logs) spell every
value through ``text_value``: floats, NumPy floats included, as ``%.17g``,
so they read back to the same float64; bools as ``true``/``false``; anything
else as ``str``. ``pairs_text`` writes a title line and one ``key = value``
line per pair; ``write_rows`` writes a CSV of a header line and one line per
row, lines ending in ``\n``. ``read_pairs`` is the one reader of ``key = value``
text (configs, constants files, certificates), ``typed_value`` the one step that
turns each value read into its type, and ``bool_value`` reads a bool back.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from pathlib import Path

import numpy as np

from .grid import Grid, ScalarField2D, VectorField2D

MAGIC = b"SGF2"
_HEADER = struct.Struct("<4sIII")


def write_field(path, f: ScalarField2D | VectorField2D) -> None:
    if isinstance(f, ScalarField2D):
        comps = [f.values]
    else:
        comps = [f.u1, f.u2]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, f.grid.n_interior, len(comps), 0))
        for c in comps:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def read_field(path) -> ScalarField2D | VectorField2D:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated field file")
    magic, n, ncomp, reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if reserved != 0:
        raise ValueError(f"{path}: nonzero reserved header word")
    if ncomp not in (1, 2):
        raise ValueError(f"{path}: unsupported component count {ncomp}")
    need = _HEADER.size + ncomp * n * n * 8
    if len(raw) != need:
        raise ValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    grid = Grid(n)
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if ncomp == 1:
        return ScalarField2D(grid, body.reshape(n, n))
    u1 = body[: n * n].reshape(n, n)
    u2 = body[n * n:].reshape(n, n)
    return VectorField2D(grid, u1, u2)


def snapshot_path(run_dir, prefix: str, k: int, suffix: str) -> Path:
    """Where a run directory keeps step k of the field prefix, as suffix (".bin" or ".csv")."""
    return Path(run_dir, "fields", f"{prefix}_{k:06d}{suffix}")


@lru_cache(maxsize=8)
def _csv_template(n: int, ncomp: int) -> str:
    """Every CSV row of an n x n field with ncomp components, i-major, as one
    ``%`` template: the row's ``x1,x2,`` written out, then one ``%.17g`` slot
    per component."""
    x1, x2 = (x.ravel().tolist() for x in Grid(n).coords())
    row = ",".join(["%.17g"] * ncomp) + "\r\n"
    return "".join(f"{a:.17g},{b:.17g}," + row for a, b in zip(x1, x2))


def write_field_csv(path, f: ScalarField2D | VectorField2D) -> None:
    """Plot-friendly export: one row per node, x1,x2 then the value column(s)."""
    if isinstance(f, ScalarField2D):
        header, comps = "x1,x2,value\r\n", (f.values,)
    else:
        header, comps = "x1,x2,v1,v2\r\n", (f.u1, f.u2)
    values = np.stack(comps, axis=-1).ravel().tolist()  # node by node, v1 then v2
    body = _csv_template(f.grid.n_interior, len(comps)) % tuple(values)
    with open(path, "w", newline="") as fh:
        fh.write(header + body)


def text_value(v) -> str:
    """The text spelling of a value in every text artifact (see the module doc)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    return str(v)


def bool_value(text: str) -> bool:
    """The inverse of text_value on bools: ``true`` or ``false``, nothing else."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def typed_value(where, key, text, parse):
    """parse(text); its ValueError is re-raised as ``where: bad value for key: …``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}: bad value for {key}: {exc}") from exc


def read_pairs(lines, source, sections=()):
    """Yield (where, section, key, value) per ``key = value`` line; the inverse
    of pairs_text. ``where`` is ``source:lineno``.

    ``#`` starts a comment anywhere on a line and blank lines are skipped. A
    ``[name]`` line starts a section and is accepted only for a name in
    ``sections``; lines before any header belong to the first of them (None
    when there are none). A line without ``=`` and a key repeated within a
    section raise ValueError.
    """
    section = sections[0] if sections else None
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        where = f"{source}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                expected = ", ".join(f"[{s}]" for s in sections) or "none"
                raise ValueError(f"{where}: unknown section [{section}]; expected {expected}")
            continue
        if "=" not in line:
            raise ValueError(f"{where}: expected 'name = value'")
        key, _, value = (s.strip() for s in line.partition("="))
        if (section, key) in seen:
            raise ValueError(f"{where}: duplicate key {key!r}")
        seen.add((section, key))
        yield where, section, key, value


def pairs_text(title: str, pairs) -> str:
    """A title line, then one ``key = value`` line per (key, value) pair."""
    return "".join([title + "\n"] + [f"{k} = {text_value(v)}\n" for k, v in pairs])


def write_rows(path, header, rows) -> None:
    """A CSV of the header names, then one line of text_value cells per row."""
    lines = [header] + [[text_value(v) for v in row] for row in rows]
    with open(path, "w") as fh:
        fh.write("".join(",".join(cells) + "\n" for cells in lines))
