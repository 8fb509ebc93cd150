"""Tests for field serialization, config parsing, and the CLI pipelines.

The CLI is exercised through main(argv) so exit codes and artifact layout
are checked exactly as a shell user would see them.  One subprocess test
reads the `sgf2d` console script declared in pyproject.toml, checks that it
names this same main, and runs it through the launcher an installer would
generate for it; when an installed `sgf2d` is on PATH, that is run too.
"""

import importlib
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

import numpy as np
import pytest

from sgf2d import cli as cli_module
from sgf2d import fieldio
from sgf2d import optimizer as optimizer_module
from sgf2d.certificates import CertificateInputs, CertificateReport, certify
from sgf2d.cli import main
from sgf2d.config import ConfigError, build_problem, parse_config
from sgf2d.fieldio import read_field, text_value, write_field, write_field_csv
from sgf2d.grid import Grid, ScalarField2D, VectorField2D
from sgf2d.optimizer import optimize
from sgf2d.spaces import load_constants
from sgf2d.state import solve_state

from helpers import count_calls, count_velocity_reads, row_writer_csv


def write_cfg(tmp_path, body, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(body)
    return p


MINIMAL = """
alpha = 0.4
nu = 0.2
T = 0.25
grid = 12
steps = 8
"""

TRACKING = """
alpha = 0.4
nu = 0.2
T = 0.25
grid = 12
steps = 8
L = 2.0
lambda = 1e-3
y0_modes = 1,1,0.01
yd_modes = 1,1,0.1; 2,1,-0.05
"""


class TestFieldIO:
    def test_scalar_round_trip_bitwise(self, tmp_path):
        g = Grid(9)
        rng = np.random.default_rng(3)
        f = ScalarField2D(g, rng.standard_normal(g.shape))
        p = tmp_path / "f.bin"
        write_field(p, f)
        back = read_field(p)
        assert isinstance(back, ScalarField2D)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_vector_round_trip_bitwise(self, tmp_path):
        g = Grid(7)
        rng = np.random.default_rng(4)
        f = VectorField2D(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
        p = tmp_path / "v.bin"
        write_field(p, f)
        back = read_field(p)
        assert isinstance(back, VectorField2D)
        assert np.array_equal(back.u1, f.u1)
        assert np.array_equal(back.u2, f.u2)

    def test_corrupt_files_rejected(self, tmp_path):
        g = Grid(5)
        f = ScalarField2D(g, np.ones(g.shape))
        p = tmp_path / "f.bin"
        write_field(p, f)
        data = p.read_bytes()
        (tmp_path / "magic.bin").write_bytes(b"XXXX" + data[4:])
        with pytest.raises(ValueError, match="bad magic"):
            read_field(tmp_path / "magic.bin")
        (tmp_path / "short.bin").write_bytes(data[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_field(tmp_path / "short.bin")
        (tmp_path / "tiny.bin").write_bytes(data[:10])
        with pytest.raises(ValueError, match="truncated"):
            read_field(tmp_path / "tiny.bin")
        body = data[fieldio._HEADER.size:]
        reserved = tmp_path / "reserved.bin"
        reserved.write_bytes(fieldio._HEADER.pack(fieldio.MAGIC, 5, 1, 7) + body)
        with pytest.raises(ValueError) as exc:
            read_field(reserved)
        assert str(exc.value) == f"{reserved}: nonzero reserved header word"
        three = tmp_path / "three.bin"
        three.write_bytes(fieldio._HEADER.pack(fieldio.MAGIC, 5, 3, 0) + 3 * body)
        with pytest.raises(ValueError) as exc:
            read_field(three)
        assert str(exc.value) == f"{three}: unsupported component count 3"

    def test_csv_export_layout(self, tmp_path):
        g = Grid(3)
        f = VectorField2D(g, np.ones(g.shape), 2.0 * np.ones(g.shape))
        p = tmp_path / "v.csv"
        write_field_csv(p, f)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,v1,v2"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.25)
        assert float(first[2]) == 1.0

    @pytest.mark.parametrize("n", [3, 16, 63])
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_csv_bytes_equal_row_writer(self, tmp_path, n, kind):
        g = Grid(n)
        rng = np.random.default_rng(n)
        special = [-0.0, 5e-324, 1e300, -1e300, 3.0, -42.0, 2.0**53, 0.0, -5e-324]
        comps = []
        for c in range(1 if kind == "scalar" else 2):
            v = rng.standard_normal(n * n) * 10.0 ** rng.integers(-12, 13, n * n)
            v[len(special)::5] = np.round(v[len(special)::5])  # integer-valued floats
            v[: len(special)] = special[c:] + special[:c]
            comps.append(v.reshape(n, n))
        f = ScalarField2D(g, comps[0]) if kind == "scalar" else VectorField2D(g, *comps)
        p = tmp_path / "f.csv"
        write_field_csv(p, f)
        data = p.read_bytes()
        assert data == row_writer_csv(f)
        assert data.count(b"\r\n") == 1 + n * n


class TestConfigParsing:
    def test_minimal_defaults(self, tmp_path):
        rc = parse_config(write_cfg(tmp_path, MINIMAL))
        assert rc["L"] == 1.0
        assert rc["lambda"] == 0.0
        assert rc["seed"] == 0
        assert rc["n_starts"] == 4
        assert rc["samples"] == 100
        assert "u_norm_source" not in rc.values
        assert rc["lambda3_reading"] == "printed"
        assert not rc.constants_inline
        pd = build_problem(rc)
        assert pd.grid.n_interior == 12
        assert pd.m_steps == 8
        assert np.all(pd.y0.u1 == 0.0)

    def test_unknown_key_names_location_and_suggests(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "alpah = 0.3\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        msg = str(exc.value)
        assert f"{p}:7" in msg
        assert "alpah" in msg
        assert "did you mean 'alpha'" in msg

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "alpha = 0.5\n")
        with pytest.raises(ConfigError, match="duplicate key 'alpha'"):
            parse_config(p)

    def test_duplicate_constant_rejected(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "[constants]\nK = 2.0\nK = 3.0\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:9: duplicate key 'K'"):
            parse_config(p)

    def test_invariants_name_the_field(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL.replace("alpha = 0.4", "alpha = -0.4"))
        with pytest.raises(ConfigError, match="alpha must be positive"):
            parse_config(p)
        p2 = write_cfg(tmp_path, MINIMAL + "lambda = -1\n", name="c2.txt")
        with pytest.raises(ConfigError, match="lambda must be nonnegative"):
            parse_config(p2)

    def test_missing_required_key(self, tmp_path):
        p = write_cfg(tmp_path, "alpha = 0.4\nnu = 0.2\nT = 0.25\ngrid = 12\n")
        with pytest.raises(ConfigError, match="missing required key 'steps'"):
            parse_config(p)

    def test_malformed_line_and_section(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "just words\n")
        with pytest.raises(ConfigError, match="expected 'name = value'"):
            parse_config(p)
        p2 = write_cfg(tmp_path, "[weird]\n" + MINIMAL, name="c2.txt")
        with pytest.raises(ConfigError, match=r"unknown section \[weird\]"):
            parse_config(p2)

    def test_bare_line_message(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "just words  # comment\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}:7: expected 'name = value'"

    def test_mode_syntax_errors(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "y0_modes = 1,1\n")
        with pytest.raises(ConfigError, match="is not 'k1,k2,amplitude'"):
            parse_config(p)
        p2 = write_cfg(tmp_path, MINIMAL + "y0_modes = 0,1,0.5\n", name="c2.txt")
        with pytest.raises(ConfigError, match="mode numbers must be >= 1"):
            parse_config(p2)
        p3 = write_cfg(tmp_path, MINIMAL + "y0_modes = 1,1,nan\n", name="c3.txt")
        with pytest.raises(ConfigError, match="mode amplitude must be finite"):
            parse_config(p3)
        p4 = write_cfg(tmp_path, MINIMAL + "y0_modes = 1.5,2,0.1\n", name="c4.txt")
        with pytest.raises(ConfigError) as exc:
            parse_config(p4)
        assert str(exc.value) == (
            f"{p4}:7: bad value for y0_modes: mode '1.5,2,0.1': "
            "invalid literal for int() with base 10: '1.5'"
        )

    def test_modes_and_kinds_refused_at_their_line(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "y0_modes = 1,1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert str(exc.value) == (
            f"{p}:7: bad value for y0_modes: mode '1,1' is not 'k1,k2,amplitude'"
        )
        p2 = write_cfg(tmp_path, MINIMAL + "[run]\nkinds = korn,weird\n", name="c2.txt")
        with pytest.raises(ConfigError) as exc:
            parse_config(p2)
        assert str(exc.value) == (
            f"{p2}:8: bad value for kinds: estimation kind must be one of "
            "('korn', 'elliptic', 'trilinear'), got 'weird'"
        )

    def test_builds_problem_and_options(self, tmp_path):
        rc = parse_config(write_cfg(tmp_path, TRACKING + "[run]\ntol = 1e-6\nmax_iter = 7\n"))
        assert rc.problem.alpha == 0.4
        assert rc.problem.m_steps == 8
        assert rc.problem.lam == 1e-3
        assert rc.options.tol == 1e-6
        assert rc.options.max_iter == 7
        built = build_problem(rc)
        assert np.array_equal(built.y0.u1, rc.problem.y0.u1)
        assert np.array_equal(built.target_stack(), rc.problem.target_stack())

    def test_library_refuses_infinite_alpha(self, tmp_path):
        # ProblemData holds the check; parse_config builds it and names the file
        p = write_cfg(tmp_path, MINIMAL.replace("alpha = 0.4", "alpha = inf"))
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}: alpha must be positive and finite, got inf"

    def test_yd_from_with_no_steps_refused_by_library(self, tmp_path):
        p = write_cfg(
            tmp_path, MINIMAL.replace("steps = 8", "steps = 0") + "yd_from = nowhere\n"
        )
        with pytest.raises(ConfigError, match="m_steps must be >= 1"):
            parse_config(p)

    def test_yd_sources_mutually_exclusive(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "yd_modes = 1,1,0.1\nyd_from = somewhere\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(p)

    def test_inline_constants_user_supplied(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "[constants]\nK = 2.0\nC1 = 3.0\n")
        rc = parse_config(p)
        assert rc.constants_inline
        assert rc.constants.K == 2.0
        assert rc.constants.C1 == 3.0
        assert rc.constants.source["K"] == "user_supplied"
        # untouched constants remain flagged as defaults
        assert rc.constants.source["C2"] == "default_unit"
        assert "default_unit" in rc.constants.source.values()

    def test_constants_file_conflicts_with_inline(self, tmp_path):
        p = write_cfg(
            tmp_path,
            MINIMAL + "[run]\nconstants_file = c.txt\n[constants]\nK = 2.0\n",
        )
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(p)

    def test_run_section_validation(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL + "[run]\ntol = 0\n")
        with pytest.raises(ConfigError, match="tol must be positive"):
            parse_config(p)
        p2 = write_cfg(tmp_path, MINIMAL + "[run]\nkinds = korn,weird\n", name="c2.txt")
        with pytest.raises(ConfigError, match="estimation kind must be one of .*, got 'weird'"):
            parse_config(p2)
        p3 = write_cfg(
            tmp_path, MINIMAL + "[run]\nlambda3_reading = loose\n", name="c3.txt"
        )
        with pytest.raises(ConfigError, match="lambda3_reading"):
            parse_config(p3)


class TestCliExitCodes:
    def test_config_error_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "alpah = 1\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_certify_actual_norm_source_is_exit_2(self, tmp_path, capsys):
        # the CLI certifies without a control, so the ball bound is the only
        # norm source and the config has no key for it, whatever its value
        line = len(TRACKING.splitlines()) + 2
        for source in ("actual", "ball_bound"):
            cfg = write_cfg(tmp_path, TRACKING + f"[run]\nu_norm_source = {source}\n")
            out = tmp_path / "out"
            assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"config error: {cfg}:{line}: unknown key 'u_norm_source' in [run]" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("snapshot_every", "-1", "must be >= 0, got -1"),
            ("n_starts", "1", "must be >= 2, got 1"),
            ("samples", "0", "must be >= 1, got 0"),
            ("lambda3_reading", "loose", "must be one of ('printed', 'derived'), got 'loose'"),
        ],
    )
    def test_run_key_rule_is_exit_2_at_its_line(self, tmp_path, capsys, key, value, rule):
        # worded by grid's checks, as the library words the same rule
        cfg = write_cfg(tmp_path, MINIMAL + f"[run]\nseed = 3\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}:9: bad value for {key}: {key} {rule}\n"
        assert not out.exists()

    def test_negative_snapshot_override_refused_before_out(self, tmp_path):
        rc = parse_config(write_cfg(tmp_path, MINIMAL))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="^snapshot-every must be >= 0, got -1$"):
            cli_module.run(rc, "simulate", out, snapshot_every=-1)
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["estimate-constants", "gradcheck", "multistart"])
    def test_negative_seed_is_exit_2_and_writes_nothing(self, tmp_path, capsys, subcommand):
        # refused before --out exists and before numpy's generator sees it
        cfg = write_cfg(tmp_path, MINIMAL + "[run]\nseed = -1\n")
        flagged = write_cfg(tmp_path, MINIMAL, name="flagged.txt")
        for path, flags, err in [
            (cfg, [], f"{cfg}:8: bad value for seed: seed must be >= 0, got -1"),
            (flagged, ["--seed", "-1"], "seed must be >= 0, got -1"),
        ]:
            out = tmp_path / "out"
            assert main([subcommand, "--config", str(path), "--out", str(out), *flags]) == 2
            assert capsys.readouterr().err == f"config error: {err}\n"
            assert not out.exists()

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "body",
        [
            MINIMAL.replace("alpha = 0.4", "alpha = inf"),
            MINIMAL + "lambda = inf\n",
            MINIMAL + "y0_modes = 1,1,nan\n",
            MINIMAL + "[run]\ntol = inf\n",
        ],
        ids=["alpha-inf", "lambda-inf", "mode-nan", "tol-inf"],
    )
    def test_non_finite_value_is_exit_2(self, tmp_path, capsys, body):
        # these used to reach the solver and exit 1 ("blew up at step 1"),
        # escape as a traceback, or (tol = inf) let optimize claim convergence
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, body",
        [
            ("simulate", MINIMAL.replace("grid = 12", "grid = 3")),
            ("optimize", TRACKING + "[run]\nmax_iter = 0\n"),
        ],
        ids=["grid-3", "max-iter-0"],
    )
    def test_library_accepted_value_is_exit_0(self, tmp_path, subcommand, body):
        # the smallest grid Grid takes, and an optimize run that evaluates its start only
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.txt").exists()

    def test_blow_up_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "alpha = 0.05\nnu = 1e-6\nT = 4.0\ngrid = 16\nsteps = 40\n"
            "y0_modes = 2,2,5.0\n",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert "solver failure" in capsys.readouterr().err


def reads_back(text, value) -> bool:
    """Whether an artifact's text spells the value it was written from."""
    if isinstance(value, (bool, np.bool_)):
        return text == ("true" if value else "false")
    if isinstance(value, (float, np.floating)):
        return float(text) == value
    return text == str(value)


class TestTextCodec:
    def test_text_value(self):
        assert text_value(np.float64(0.1)) == "0.10000000000000001"
        assert text_value(1e-3) == "0.001"
        assert text_value(True) == "true"
        assert text_value(np.bool_(False)) == "false"
        assert text_value(12) == "12"
        assert text_value("ball_bound") == "ball_bound"

    @pytest.mark.parametrize(
        "subcommand",
        ["simulate", "optimize", "gradcheck", "certify", "estimate-constants", "multistart"],
    )
    def test_report_and_log_read_back(self, tmp_path, monkeypatch, subcommand):
        # record what each writer hands the codec, then read the files back against it
        pairs_text, write_rows = fieldio.pairs_text, fieldio.write_rows
        titled, tables = {}, {}

        def recording_pairs_text(title, pairs):
            titled[title] = list(pairs)
            return pairs_text(title, titled[title])

        def recording_write_rows(path, header, rows):
            tables[Path(path).name] = (list(header), [list(r) for r in rows])
            write_rows(path, header, rows)

        monkeypatch.setattr(fieldio, "pairs_text", recording_pairs_text)
        monkeypatch.setattr(fieldio, "write_rows", recording_write_rows)
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0

        title, *lines = (out / "report.txt").read_text().splitlines()
        assert title == subcommand
        assert [line.split(" = ", 1)[0] for line in lines] == [k for k, _ in titled[title]]
        for line, (_, value) in zip(lines, titled[title]):
            assert reads_back(line.split(" = ", 1)[1], value), line

        header, *rows = (out / "log.csv").read_text().splitlines()
        written_header, written_rows = tables["log.csv"]
        assert header.split(",") == written_header
        assert len(rows) == len(written_rows) > 0
        for row, values in zip(rows, written_rows):
            cells = row.split(",")
            assert len(cells) == len(values) == len(written_header), row
            assert all(reads_back(c, v) for c, v in zip(cells, values)), row


class TestSimulate:
    def test_zero_problem_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        log = (out / "log.csv").read_text().strip().split("\n")
        assert log[0] == "step,time,norm_h1,norm_h3"
        assert len(log) == 1 + 9  # m+1 rows
        # zero initial data stays exactly zero
        assert all(line.endswith(",0,0") for line in log[1:])
        # default snapshots: endpoints only
        assert (out / "fields" / "y_000000.bin").exists()
        assert (out / "fields" / "y_000008.bin").exists()
        assert not (out / "fields" / "y_000004.bin").exists()
        assert (out / "fields" / "omega_000000.csv").exists()
        report = (out / "report.txt").read_text()
        assert report.startswith("simulate\n")
        assert "final_norm_h1 = 0" in report

    @pytest.mark.parametrize("every", [0, 3])
    def test_field_csvs_equal_row_writer(self, tmp_path, every):
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--snapshot-every", str(every)]) == 0
        csvs = sorted((out / "fields").glob("*.csv"))
        bins = sorted((out / "fields").glob("*.bin"))
        assert [p.stem for p in csvs] == [p.stem for p in bins]
        # y and omega at steps 0 and 8, and at 3 and 6 when every = 3
        assert len(csvs) == (4 if every == 0 else 8)
        for p in csvs:
            assert p.read_bytes() == row_writer_csv(read_field(p.with_suffix(".bin"))), p.name

    def test_max_cfl_reported_and_warned(self, tmp_path):
        # zero data: max_cfl = 0 and no advisory
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "zero"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "max_cfl = 0\n" in (out / "report.txt").read_text()
        # dt/h = 13/32 on this grid, so a unit mode gives a CFL number above 0.5:
        # build_problem warns at y0, simulate again on the whole trajectory
        cfg = write_cfg(tmp_path, TRACKING.replace("1,1,0.01", "1,1,1.0"), "fast.txt")
        out = tmp_path / "fast"
        with pytest.warns(UserWarning, match="CFL") as rec:
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len([w for w in rec if "CFL" in str(w.message)]) == 2
        report = dict(
            line.split(" = ") for line in (out / "report.txt").read_text().splitlines()[1:]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pd = build_problem(parse_config(cfg))
        speed0 = max(np.abs(pd.y0.u1).max(), np.abs(pd.y0.u2).max())
        assert float(report["max_cfl"]) >= speed0 * pd.dt / pd.grid.h > 0.5

    @pytest.mark.parametrize("subcommand", ["simulate", "optimize"])
    def test_snapshots_written_from_the_stack(self, tmp_path, monkeypatch, subcommand):
        # the snapshot slices are read from the solution's (m+1, 2, n, n)
        # stack, not from a Trajectory copy of all of it; same bytes
        copies = count_velocity_reads(monkeypatch)
        cfg = write_cfg(tmp_path, TRACKING + "[run]\nmax_iter = 5\n")
        rc = parse_config(cfg)
        pd = build_problem(rc)
        if subcommand == "simulate":
            stacks = {"y": solve_state(None, pd).y}
        else:
            rep = optimize(pd, None, rc.options)
            stacks = {"u": rep.u_final.data, "y": rep.final_state.y}
        in_solver = len(copies)
        assert in_solver == 0  # the optimizer's cost reads the stack, too
        out = tmp_path / "out"
        argv = [subcommand, "--config", str(cfg), "--out", str(out), "--snapshot-every", "3"]
        assert main(argv) == 0
        assert len(copies) == 2 * in_solver
        ref = tmp_path / "ref"
        ref.mkdir()
        for prefix, data in stacks.items():
            for k in (0, 3, 6, 8):
                name = f"{prefix}_{k:06d}"
                f = VectorField2D(pd.grid, data[k, 0], data[k, 1])
                write_field(ref / f"{name}.bin", f)
                write_field_csv(ref / f"{name}.csv", f)
                for ext in (".bin", ".csv"):
                    got = (out / "fields" / f"{name}{ext}").read_bytes()
                    assert got == (ref / f"{name}{ext}").read_bytes(), name + ext

    def test_snapshot_every_writes_all_steps(self, tmp_path):
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--snapshot-every", "1"]
        )
        assert code == 0
        for k in range(9):
            assert (out / "fields" / f"y_{k:06d}.bin").exists()
        f = read_field(out / "fields" / "y_000000.bin")
        assert isinstance(f, VectorField2D)
        assert np.abs(f.u1).max() > 0.0


class TestOptimizeLeg:
    def test_final_state_not_solved_again(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, TRACKING + "[run]\nmax_iter = 30\n")
        rc = parse_config(cfg)
        pd = build_problem(rc)
        in_optimize = count_calls(monkeypatch, optimizer_module, "solve_state")
        in_cli = count_calls(monkeypatch, cli_module, "solve_state")
        rep = optimize(pd, None, rc.options)
        solves = len(in_optimize)
        assert solves > 0
        out = tmp_path / "out"
        argv = ["optimize", "--config", str(cfg), "--out", str(out), "--snapshot-every", "4"]
        assert main(argv) == 0
        # the CLI leg makes exactly the solves of optimize, none of its own
        assert len(in_optimize) == 2 * solves
        assert not in_cli
        fresh = solve_state(rep.u_final, pd)
        for k in (0, 4, 8):
            y = read_field(out / "fields" / f"y_{k:06d}.bin")
            assert np.array_equal(y.u1, fresh.y[k, 0])
            assert np.array_equal(y.u2, fresh.y[k, 1])
            assert (out / "fields" / f"y_{k:06d}.csv").read_bytes() == row_writer_csv(y)


    def test_ball_ratio_reported_after_halvings(self, tmp_path):
        # TRACKING's ball is active: the run ends on the sphere
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        pairs = [line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines()[1:]]
        keys = [k for k, _ in pairs]
        assert keys[keys.index("n_halvings") + 1] == "ball_ratio"
        assert abs(float(dict(pairs)["ball_ratio"]) - 1.0) <= 1e-12

    def test_nonfinite_trials_reported_after_ball_ratio(self, tmp_path):
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        pairs = [line.split(" = ", 1) for line in (out / "report.txt").read_text().splitlines()[1:]]
        keys = [k for k, _ in pairs]
        assert keys[keys.index("ball_ratio") + 1] == "n_nonfinite_trials"
        assert dict(pairs)["n_nonfinite_trials"] == "0"


class TestGradcheck:
    def test_csv_contract_and_accuracy(self, tmp_path):
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "epsilon,fd_value,adjoint_value,relative_error"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [1e-2, 1e-3, 1e-4]
        adjoint_vals = {r[2] for r in rows}
        assert len(adjoint_vals) == 1  # one directional derivative, three eps
        for r in rows:
            assert float(r[3]) <= 1e-6

    def test_builds_no_velocity_copy(self, tmp_path, monkeypatch):
        # its costs come from optimizer._evaluate, which reads the stack
        reads = count_velocity_reads(monkeypatch)
        cfg = write_cfg(tmp_path, TRACKING)
        assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert reads == []

    def test_deterministic_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, TRACKING)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["gradcheck", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "log.csv").read_bytes() == (out2 / "log.csv").read_bytes()

    def test_seed_changes_direction(self, tmp_path):
        cfg = write_cfg(tmp_path, TRACKING)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gradcheck", "--config", str(cfg), "--out", str(out1)])
        main(["gradcheck", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
        assert (out1 / "log.csv").read_bytes() != (out2 / "log.csv").read_bytes()


class TestCertify:
    def test_certificate_artifact_parses_back(self, tmp_path):
        cfg = write_cfg(tmp_path, TRACKING)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        rep = CertificateReport.from_text((out / "certificate.txt").read_text())
        assert rep.illustrative  # defaults in play
        assert rep.lam == 1e-3
        assert rep.coercivity_threshold > 0
        report = (out / "report.txt").read_text()
        assert "illustrative = true" in report
        # the CLI has no control, so the certificate bounds its norm by sqrt(T)*L
        assert "u_norm_source = ball_bound\n" in (out / "certificate.txt").read_text()
        assert rep.u_norm_source == "ball_bound"

    def test_inline_constants_flow_through(self, tmp_path):
        body = TRACKING + "[constants]\n" + "\n".join(
            f"{n} = 1.0" for n in ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")
        ) + "\n"
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        rep = CertificateReport.from_text((out / "certificate.txt").read_text())
        assert not rep.illustrative
        assert rep.constants_source["K"] == "user_supplied"

    def test_source_lines_without_values_refused(self, tmp_path, capsys):
        # such a file loaded as unit constants labelled estimated, and certify
        # wrote illustrative = false
        names = ("K", "K_tilde", "K_hat", "C1", "C2", "C3", "C4")
        consts = tmp_path / "c.txt"
        consts.write_text("".join(f"{n}_source = estimated\n" for n in names))
        cfg = write_cfg(tmp_path, TRACKING + f"[run]\nconstants_file = {consts}\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}: constants_file: {consts}:1: K_source without a K line\n"
        assert not out.exists()

    def test_overflowing_bounds_certify_to_inf(self, tmp_path):
        # math.exp in lambda2 overflowed here and the run ended in a traceback
        body = "alpha = 0.5\nnu = 0.1\nT = 0.5\ngrid = 12\nsteps = 4\ny0_modes = 1,1,5\n"
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # y0's CFL number is 24
            assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        rep = CertificateReport.from_text((out / "certificate.txt").read_text())
        assert rep.coercivity_threshold == rep.uniqueness_threshold == math.inf
        assert not rep.verdict_second_order and not rep.verdict_uniqueness
        report = (out / "report.txt").read_text()
        assert "uniqueness_threshold = inf\n" in report

    def test_tiny_alpha_certifies(self, tmp_path):
        # alpha^2 underflows to 0 in the lambda3 and lambda4 exponents
        cfg = write_cfg(tmp_path, TRACKING.replace("alpha = 0.4", "alpha = 1e-200"))
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        rep = CertificateReport.from_text((out / "certificate.txt").read_text())
        assert rep.coercivity_threshold == rep.uniqueness_threshold == math.inf
        assert not rep.verdict_second_order and not rep.verdict_uniqueness


class TestEstimateConstants:
    def test_estimates_saved_and_loadable(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "alpha = 0.4\nnu = 0.2\nT = 0.25\ngrid = 8\nsteps = 4\n[run]\nsamples = 2\n",
        )
        out = tmp_path / "out"
        assert main(["estimate-constants", "--config", str(cfg), "--out", str(out)]) == 0
        dc = load_constants(out / "constants.txt")
        for name in ("K", "K_tilde", "K_hat"):
            assert dc.source[name] == "estimated"
            assert getattr(dc, name) > 0
        for name in ("C1", "C2", "C3", "C4"):
            assert dc.source[name] == "default_unit"
        lines = (out / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "constant,kind,n_modes,samples,seed,value"
        assert len(lines) == 4
        # samples and seed are left empty where they do not steer the value
        cells = [line.split(",")[:5] for line in lines[1:]]
        assert cells == [["K", "korn", "8", "", ""], ["K_tilde", "elliptic", "8", "", ""], ["K_hat", "trilinear", "8", "2", "0"]]

    def test_kind_subset(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "alpha = 0.4\nnu = 0.2\nT = 0.25\ngrid = 8\nsteps = 4\n"
            "[run]\nsamples = 2\nkinds = korn\n",
        )
        out = tmp_path / "out"
        assert main(["estimate-constants", "--config", str(cfg), "--out", str(out)]) == 0
        dc = load_constants(out / "constants.txt")
        assert dc.source["K"] == "estimated"
        assert dc.source["K_tilde"] == "default_unit"


class TestMultistart:
    def test_artifacts_and_log(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "alpha = 0.4\nnu = 0.2\nT = 0.25\ngrid = 10\nsteps = 6\n"
            "L = 1.0\nlambda = 1.0\n"
            "y0_modes = 1,1,0.01\nyd_modes = 1,1,0.05\n"
            "[run]\nn_starts = 2\nmax_iter = 60\n",
        )
        out = tmp_path / "out"
        assert main(["multistart", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "start,J_final,converged,iterations,vi_final"
        assert len(lines) == 3
        report = (out / "report.txt").read_text()
        assert "max_pairwise_distance = " in report
        # the L-free spread follows distance_tol
        assert re.search(r"\ndistance_tol = [^\n]+\nrelative_spread = [^\n]+\n", report)
        assert "all_within_tol = true\nall_converged = true\n" in report
        # no constants configured: no threshold lines
        assert "uniqueness_threshold" not in report
        assert (out / "fields" / "u_start0_000003.bin").exists()
        assert (out / "fields" / "u_start1_000003.bin").exists()

    # the threshold reads 9.51 here, so lambda 1 is below it and 100 above
    @pytest.mark.parametrize("lam", [1.0, 100.0])
    def test_constants_add_the_certificate_lines(self, tmp_path, lam):
        # with constants configured, report.txt ends with certify's threshold,
        # verdict and illustrative flag on the configured problem
        cfg = write_cfg(
            tmp_path,
            "alpha = 0.4\nnu = 0.2\nT = 0.25\ngrid = 10\nsteps = 6\n"
            f"L = 0.01\nlambda = {lam}\nyd_modes = 1,1,0.05\n"
            "[run]\nn_starts = 2\nmax_iter = 3\n[constants]\nK = 2.0\n",
        )
        rc = parse_config(cfg)
        rep = certify(CertificateInputs.from_problem(rc.problem, rc.constants))
        assert rep.verdict_uniqueness is (lam > 9.51)
        out = tmp_path / "out"
        assert main(["multistart", "--config", str(cfg), "--out", str(out)]) == 0
        tail = "".join(
            f"{key} = {text_value(value)}\n"
            for key, value in [
                ("uniqueness_threshold", rep.uniqueness_threshold),
                ("lambda_exceeds_threshold", rep.verdict_uniqueness),
                ("illustrative", rep.illustrative),
            ]
        )
        report = (out / "report.txt").read_text()
        assert re.search(r"\nall_converged = (true|false)\n" + re.escape(tail) + r"\Z", report)

    def test_stalled_starts_not_converged(self, tmp_path):
        # both starts stop after 3 iterations with vi near 2.3e-5, far above tol
        cfg = write_cfg(tmp_path, TRACKING + "[run]\nn_starts = 2\n")
        out = tmp_path / "out"
        assert main(["multistart", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "all_within_tol = false\nall_converged = false\n" in report
        rows = (out / "log.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == ["false", "false"]


class TestReferenceTarget:
    def test_yd_from_reads_reference_run(self, tmp_path):
        ref_cfg = write_cfg(tmp_path, TRACKING.replace("yd_modes = 1,1,0.1; 2,1,-0.05", ""))
        ref_out = tmp_path / "ref"
        code = main(
            ["simulate", "--config", str(ref_cfg), "--out", str(ref_out), "--snapshot-every", "1"]
        )
        assert code == 0
        cfg = write_cfg(
            tmp_path,
            TRACKING.replace("yd_modes = 1,1,0.1; 2,1,-0.05", f"yd_from = {ref_out}"),
            name="follow.txt",
        )
        rc = parse_config(cfg)
        pd = build_problem(rc)
        from sgf2d.state import Trajectory

        assert isinstance(pd.y_d, Trajectory)
        assert pd.y_d.m_steps == 8
        # the reference initial slice matches the shared y0 modes
        y_ref = read_field(ref_out / "fields" / "y_000000.bin")
        assert np.array_equal(pd.y_d.data[0, 0], y_ref.u1)

    def test_writer_and_reader_share_the_snapshot_names(self, tmp_path):
        ref_cfg = write_cfg(tmp_path, MINIMAL)
        ref_out = tmp_path / "ref"
        assert main(["simulate", "--config", str(ref_cfg), "--out", str(ref_out)]) == 0
        names = sorted(p.name for p in (ref_out / "fields").iterdir())
        assert names == [
            f"{f}_{k:06d}.{ext}" for f in ("omega", "y") for k in (0, 8) for ext in ("bin", "csv")
        ]
        for k in (0, 8):
            path = fieldio.snapshot_path(ref_out, "y", k, ".bin")
            assert path == ref_out / "fields" / f"y_{k:06d}.bin" and path.exists()

    def test_missing_snapshots_reported(self, tmp_path, capsys):
        ref_cfg = write_cfg(tmp_path, MINIMAL)
        ref_out = tmp_path / "ref"
        assert main(["simulate", "--config", str(ref_cfg), "--out", str(ref_out)]) == 0
        cfg = write_cfg(tmp_path, MINIMAL + f"yd_from = {ref_out}\n", name="f.txt")
        out = tmp_path / "out"
        rc = main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing snapshot" in err
        assert not out.exists()


    def test_corrupt_snapshot_is_config_error(self, tmp_path, capsys):
        # read_field's ValueError reaches the user as a config error, not a traceback
        (tmp_path / "ref" / "fields").mkdir(parents=True)
        (tmp_path / "ref" / "fields" / "y_000000.bin").write_bytes(b"XXXX" + bytes(12))
        cfg = write_cfg(tmp_path, MINIMAL + f"yd_from = {tmp_path / 'ref'}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "bad magic" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "field,message",
        [
            (ScalarField2D(Grid(12), np.zeros((12, 12))), "is not a velocity snapshot"),
            (VectorField2D(Grid(5), np.zeros((5, 5)), np.zeros((5, 5))), "is on a different grid"),
        ],
        ids=["scalar", "other-grid"],
    )
    def test_unusable_snapshot_is_config_error(self, tmp_path, field, message):
        fields = tmp_path / "ref" / "fields"
        fields.mkdir(parents=True)
        path = fields / "y_000000.bin"
        write_field(path, field)
        cfg = write_cfg(tmp_path, MINIMAL + f"yd_from = {tmp_path / 'ref'}\n")
        with pytest.raises(ConfigError) as exc:
            build_problem(parse_config(cfg))
        assert str(exc.value) == f"{cfg}: yd_from: {path} {message}"

    @staticmethod
    def reference_run(tmp_path, steps, T):
        """A simulate run with a snapshot at every one of its steps."""
        body = MINIMAL.replace("steps = 8", f"steps = {steps}").replace("T = 0.25", f"T = {T}")
        ref_cfg = write_cfg(tmp_path, body + "y0_modes = 1,1,0.01\n", name="ref.txt")
        ref_out = tmp_path / "ref"
        argv = ["simulate", "--config", str(ref_cfg), "--out", str(ref_out)]
        assert main(argv + ["--snapshot-every", "1"]) == 0
        return ref_out

    def test_other_step_size_refused(self, tmp_path, capsys):
        # 16 reference steps over the config's T: slice k lies at k T/16, not k T/8
        ref_out = self.reference_run(tmp_path, 16, 0.25)
        cfg = write_cfg(tmp_path, MINIMAL + f"yd_from = {ref_out}\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: yd_from: ")
        assert "T/steps" in err
        assert not out.exists()

    def test_missing_report_refused(self, tmp_path, capsys):
        ref_out = self.reference_run(tmp_path, 8, 0.25)
        (ref_out / "report.txt").unlink()
        cfg = write_cfg(tmp_path, MINIMAL + f"yd_from = {ref_out}\n")
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: yd_from: cannot read {ref_out / 'report.txt'}")
        assert not out.exists()

    def test_longer_reference_with_same_step_size_loads_its_prefix(self, tmp_path):
        ref_out = self.reference_run(tmp_path, 16, 0.5)
        pd = parse_config(write_cfg(tmp_path, MINIMAL + f"yd_from = {ref_out}\n")).problem
        assert pd.y_d.m_steps == 8 and pd.y_d.dt == pd.dt == 0.25 / 8
        for k in (0, 8):
            y_ref = read_field(fieldio.snapshot_path(ref_out, "y", k, ".bin"))
            assert np.array_equal(pd.y_d.data[k, 0], y_ref.u1)
            assert np.array_equal(pd.y_d.data[k, 1], y_ref.u2)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["sgf2d"]
        module, _, attr = spec.partition(":")
        assert getattr(importlib.import_module(module), attr) is main

        # the launcher an installer generates for `spec`, importing sgf2d from
        # wherever this test imported it
        launcher = tmp_path / "sgf2d"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        package_root = Path(sys.modules["sgf2d"].__file__).resolve().parents[1]
        runs = [(launcher, {**os.environ, "PYTHONPATH": str(package_root)})]
        installed = shutil.which("sgf2d")
        if installed is not None:
            runs.append((installed, None))

        cfg = write_cfg(tmp_path, MINIMAL)
        for i, (exe, env) in enumerate(runs):
            out = tmp_path / f"out{i}"
            proc = subprocess.run(
                [str(exe), "simulate", "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )
            assert proc.returncode == 0
            assert (out / "report.txt").exists()
