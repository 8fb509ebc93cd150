"""Tests of the benchmark itself: checks, inputs, tracing and the result format.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import ast
import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import worker
import workloads
from sgf2d import state
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def instances():
    made = {name: cls(1) for name, cls in workloads.WORKLOADS.items()}
    yield made
    for wl in made.values():
        wl.close()


@pytest.fixture(scope="module")
def outputs(instances):
    """One input and its untraced output per workload."""
    out = {}
    for name, wl in instances.items():
        inp = wl.make_input(0)
        out[name] = (inp, wl.run(inp))
    return out


def _input_values(name, inp):
    if name == "track16":
        return [inp.y_d.data, inp.L]
    if name == "sweep63":
        return [inp[0].data, inp[1].data]
    return [inp[k] for k in sorted(inp)]


def _same(a, b) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, instances):
    cls = workloads.WORKLOADS[name]
    again, other = cls(1), cls(2)
    try:
        first = _input_values(name, instances[name].make_input(0))
        assert _same(first, _input_values(name, again.make_input(0)))
        assert not _same(first, _input_values(name, other.make_input(0)))
        assert not _same(first, _input_values(name, again.make_input(1)))
        if name == "sweep63":
            assert np.array_equal(instances[name].base.y, again.base.y)
            assert not np.array_equal(instances[name].base.y, other.base.y)
    finally:
        again.close()
        other.close()


# -- checks ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_outputs_pass_their_checks(name, instances, outputs):
    inp, out = outputs[name]
    assert instances[name].check(inp, out) == []


def _violations(name, out):
    """Copies of a correct output, each breaking one checked condition."""
    if name == "track16":
        return [
            SimpleNamespace(converged=False, message="iteration cap reached",
                            iterates=out.iterates, J_final=out.J_final),
            SimpleNamespace(converged=True, message="", iterates=out.iterates,
                            J_final=out.iterates[0].J / 10.0),
            SimpleNamespace(converged=True, message="", iterates=out.iterates,
                            J_final=float("nan")),
        ]
    if name == "sweep63":
        gap, tan, second, hess = out
        return [(1.0, tan, second, hess), (gap, tan, second, hess * (1.0 + 1e-6))]
    cert = out["certificate"]
    return [
        dict(out, codes=[0, 1, 0]),
        dict(out, certificate="not a certificate\n"),
        dict(out, certificate=cert.replace("illustrative = true", "illustrative = false")),
        dict(out, log="\n".join(out["log"].splitlines()[:-1]) + "\n"),
        dict(out, log=out["log"].replace(out["log"].splitlines()[-1].split(",")[-1], "nan")),
        dict(out, log=out["log"] + "x,y,z,w\n"),
        dict(out, certificate=None),
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_violated_check_counts_as_a_failure(name, instances, outputs):
    wl = instances[name]
    inp, out = outputs[name]
    runner = worker.Runner(wl, workloads.OP_FAILURES)
    bad = _violations(name, out)
    for i, broken in enumerate(bad):
        assert wl.check(inp, broken), f"violation {i} not detected"
        assert runner.judge(i, inp, broken, None) is False
    assert (runner.attempted, runner.failed) == (len(bad), len(bad))


def test_a_nearly_orthogonal_draw_is_not_a_failure(instances, outputs):
    """The duality check holds when the pairing <z, phi> itself is ~0."""
    wl = instances["sweep63"]
    (w, phi), (_, tan, _, _) = outputs["sweep63"]
    rho = wl.rho
    coef = np.dot(rho, state.slice_dots(tan.z, phi.data)) / np.dot(
        rho, state.slice_dots(tan.z, tan.z)
    )
    orth = phi.with_data(phi.data - coef * tan.z)
    out = wl.run((w, orth))
    pairing = wl.h2 * np.dot(rho, state.slice_dots(out[1].z, orth.data))
    assert out[0] / abs(pairing) > 1e-10  # a gap relative to the pairing would fail
    assert wl.check((w, orth), out) == []


class _Flaky:
    """Op 1 blows up and op 2 fails its check; the others pass."""

    def make_input(self, i):
        return i

    def run(self, i):
        if i == 1:
            raise state.BlowUpError(3)
        return i

    def check(self, i, out):
        return ["wrong"] if out == 2 else []

    def iterations(self, out):
        return 0


def test_solver_errors_are_failures_and_metrics_are_complete():
    runner = worker.Runner(_Flaky(), workloads.OP_FAILURES)
    record = worker.run_untraced(runner, seconds=1e-3, probe=lambda: 1e-4)
    assert runner.attempted > 2 and runner.failed == 2
    assert "BlowUpError" in runner.problems[0]
    reported = set(record["metrics"]) | {"setup_s"}
    assert reported == set(worker.END_TO_END)
    # with a constant yardstick time each ratio is the op time in yardstick units
    ratios = record["op_rel"]["per_op"]
    assert len(ratios) == runner.attempted and len(record["yardstick_s"]["runs"]) == len(ratios) + 1
    assert record["metrics"]["op_rel.mean"][0] == pytest.approx(sum(ratios) / len(ratios))
    assert record["op_rel"]["median"] == pytest.approx(record["op_s"]["median"] / 1e-4)


def test_the_yardstick_runs_no_sgf2d_code():
    """A change to sgf2d must move op_rel.mean as much as it moves op time."""
    yardstick = importlib.import_module("yardstick")
    tree = ast.parse(Path(yardstick.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert imported == {"__future__", "time", "numpy", "scipy.fft"}
    assert yardstick.timed() > 0.0


# -- tracing -----------------------------------------------------------------------


def _bindings():
    mods = [importlib.import_module("sgf2d")]
    mods += [importlib.import_module(f"sgf2d.{layer}") for layer in LAYERS]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_output_and_restores_bindings(name, instances, outputs):
    wl = instances[name]
    inp, plain = outputs[name]
    before = _bindings()
    tracer = Tracer()
    with tracer:
        import sgf2d.sensitivity
        import sgf2d.state

        # names imported with `from .grid import ...` are wrapped too
        assert sgf2d.state.arakawa is not before[("sgf2d.grid", "arakawa")]
        assert sgf2d.sensitivity.arakawa is sgf2d.state.arakawa
        traced = wl.run(inp)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.totals()
    assert wl.fingerprint(traced) == wl.fingerprint(plain)
    if name == "track16":
        assert traced.J_final == plain.J_final
    elif name == "sweep63":
        assert (traced[0], traced[3]) == (plain[0], plain[3])
    else:
        assert traced["certificate"] == plain["certificate"]


def test_counts_repeat_exactly(instances, outputs):
    wl = instances["track16"]
    inp, plain = outputs["track16"]
    keys = (
        "state_solves_per_op",
        "iterations_per_op",
        "grid.dstn.calls",
        "optimizer.line_search.trials",
    )
    seen = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            rep = wl.run(inp)
        metrics = worker.layer_metrics(tracer, 1, [rep.n_iterations])
        seen.append({k: metrics[k] for k in keys})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())
    assert seen[0]["iterations_per_op"] == plain.n_iterations


# -- the result format -------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == worker.PER_LAYER


def test_launcher_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_the_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline16", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = worker.PER_LAYER if trace else worker.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in expected.items()
    }
    if not trace:
        # five set-up samples, each scaled by the yardstick time right after it
        scaled = [
            s * worker.YARDSTICK_REFERENCE_S / k
            for s, k in zip(record["setup_s_samples"], record["setup_kernel_s"])
        ]
        assert len(scaled) == 5
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(statistics.median(scaled))
    env = record["environment"]
    assert env["threads"] == {v: "1" for v in worker.THREAD_VARS}
    assert {"python", "numpy", "scipy", "cpu_count", "cpu_model", "git_commit"} <= set(env)
