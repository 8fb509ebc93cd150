"""One workload process: set up, run ops back to back, print a JSON record.

Started by run.py with the BLAS/FFT thread variables pinned to 1. The op
loop is closed: one client, the next op starts when the previous one ends.
The window is the summed time of the ops and of the yardstick runs between
them; input generation and checks sit outside it. With --trace 1 every input
is run twice, untraced and then traced, and the two outputs must be
bit-identical.

An untraced run times the yardstick kernel (yardstick.py) before the first
op and after every op. ``op_rel.mean`` is the mean over ops of the op's time
divided by the mean of the two yardstick times around it: the host's speed
switches by up to 1.8x within seconds, and the ratio cancels most of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is given in seconds of a host on which one yardstick run takes this long
YARDSTICK_REFERENCE_S = 0.1

# end-to-end metrics of an untraced run: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_rel.mean": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# per-layer metrics of a traced run: name -> (unit, better); all are given per op
PER_LAYER = {
    "state_solves_per_op": ("count", "lower"),
    "iterations_per_op": ("count", "lower"),
    "grid.dstn.calls": ("count", "lower"),
    "grid.dstn.self_s": ("s", "lower"),
    "grid.dstn.bytes_computed": ("B", "lower"),
    "grid.arakawa.calls": ("count", "lower"),
    "grid.arakawa.self_s": ("s", "lower"),
    "grid.lap5.calls": ("count", "lower"),
    "grid.lap5.self_s": ("s", "lower"),
    "state.solve_state.calls": ("count", "lower"),
    "state.solve_state.self_s": ("s", "lower"),
    "state.control_h1_norm.calls": ("count", "lower"),
    "state.control_h1_norm.self_s": ("s", "lower"),
    "spaces.norm_hk.calls": ("count", "lower"),
    "spaces.norm_hk.self_s": ("s", "lower"),
    "spaces.estimate_constant.self_s": ("s", "lower"),
    "spaces.stream_from_coeffs.calls": ("count", "lower"),
    "sensitivity.solve_linearized.calls": ("count", "lower"),
    "sensitivity.solve_linearized.self_s": ("s", "lower"),
    "sensitivity.solve_second.calls": ("count", "lower"),
    "sensitivity.solve_second.self_s": ("s", "lower"),
    "adjoint.duality_gap.self_s": ("s", "lower"),
    "adjoint.solve_adjoint.calls": ("count", "lower"),
    "adjoint.solve_adjoint.self_s": ("s", "lower"),
    "certificates.hessian_quadratic_form.self_s": ("s", "lower"),
    "certificates.certify.self_s": ("s", "lower"),
    "optimizer.optimize.self_s": ("s", "lower"),
    "optimizer.project_Uad.calls": ("count", "lower"),
    "optimizer.project_Uad.self_s": ("s", "lower"),
    "optimizer.vi_residual.self_s": ("s", "lower"),
    "optimizer.line_search.trials": ("count", "lower"),
    "optimizer.line_search.accept_ratio": ("ratio", "higher"),
    "config.parse_config.self_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "fieldio.write.calls": ("count", "lower"),
    "fieldio.write.self_s": ("s", "lower"),
    "fieldio.write.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metric suffix -> Tracer.totals() field
_SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "bytes": "bytes", "bytes_computed": "bytes"}
# the binary and the CSV writer are reported together as fieldio.write
_MERGED_SPANS = {"fieldio.write": ("fieldio.write_field", "fieldio.write_field_csv")}


def tail(times: list[float]):
    """Highest percentile with at least ten ops beyond it; None unless above the median."""
    n = len(times)
    if n <= 20:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Times ops of one workload and applies its checks."""

    def __init__(self, wl, failures):
        self.wl = wl
        self.failures = failures
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def time_op(self, inp):
        """(seconds, output or None, error message or None)."""
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except self.failures as exc:
            return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, out, None

    def judge(self, i: int, inp, out, err) -> bool:
        """Apply the op's checks, the only source of ``failed``; True if it passed."""
        self.attempted += 1
        problems = [err] if err is not None else self.wl.check(inp, out)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return not problems


def setup_kernel_s() -> float:
    """Median time of three yardstick runs after an untimed one: the host's speed now."""
    import yardstick

    yardstick.kernel()
    return statistics.median(yardstick.timed() for _ in range(3))


def run_untraced(runner: Runner, seconds: float, probe=None) -> dict:
    """Closed loop of ops, with a yardstick run (``probe``) before the first and after each."""
    if probe is None:
        import yardstick

        yardstick.kernel()  # warm-up, untimed
        probe = yardstick.timed
    times, refs, iterations = [], [probe()], []
    busy, i = refs[0], 0
    while busy < seconds or i == 0:
        inp = runner.wl.make_input(i)
        dt, out, err = runner.time_op(inp)
        refs.append(probe())
        runner.judge(i, inp, out, err)
        if out is not None:
            iterations.append(runner.wl.iterations(out))
        times.append(dt)
        busy += dt + refs[-1]
        i += 1
    rel = [dt / (0.5 * (a + b)) for dt, a, b in zip(times, refs, refs[1:])]
    median = statistics.median(times)
    return {
        "metrics": {
            "op_rel.mean": (statistics.mean(rel), "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "op_s": {"median": median, "tail": tail(times), "ops": len(times)},
        "op_rel": {"median": statistics.median(rel), "per_op": rel},
        "yardstick_s": {"median": statistics.median(refs), "runs": refs},
        "ops_per_s": len(times) / sum(times),
        "iterations_per_op": statistics.mean(iterations) if iterations else None,
    }


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, iterations = [], [], []
    identical = True
    busy, i = 0.0, 0
    while busy < seconds or i == 0:
        inp = runner.wl.make_input(i)
        dt_plain, out, err = runner.time_op(inp)
        tracer.op = i
        with tracer:
            dt_traced, out_traced, err_traced = runner.time_op(inp)
        if err is not None or err_traced is not None or (
            runner.wl.fingerprint(out) != runner.wl.fingerprint(out_traced)
        ):
            identical = False
            runner.problems.append(f"op {i}: traced output differs from untraced output")
        runner.judge(i, inp, out, err)
        if out is not None:
            iterations.append(runner.wl.iterations(out))
        plain.append(dt_plain)
        traced.append(dt_traced)
        busy += dt_plain + dt_traced
        i += 1
    spans_path.parent.mkdir(exist_ok=True)
    tracer.save(spans_path)
    metrics = layer_metrics(tracer, i, iterations)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {
        "metrics": {name: (metrics[name], unit) for name, (unit, _) in PER_LAYER.items()},
        "identical": identical,
        "op_s": {
            "untraced_median": statistics.median(plain),
            "traced_median": statistics.median(traced),
            "ops": i,
        },
        "spans": str(spans_path),
        "layer_totals": tracer.totals(),
    }


def layer_metrics(tracer, ops: int, iterations: list[int]) -> dict:
    """Per-op values of the PER_LAYER metrics, except trace.overhead_s."""
    totals = tracer.totals()
    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field in _SPAN_FIELDS:
            out[metric] = sum(
                totals.get(name, {}).get(_SPAN_FIELDS[field], 0)
                for name in _MERGED_SPANS.get(span, (span,))
            ) / ops
    out["state_solves_per_op"] = out["state.solve_state.calls"]
    out["iterations_per_op"] = statistics.mean(iterations) if iterations else 0.0
    # each optimize call makes one state solve before its first line search
    trials = tracer.count_under("state.solve_state", "optimizer.optimize") - totals.get(
        "optimizer.optimize", {}
    ).get("calls", 0)
    accepted = sum(it - 1 for it in iterations)  # the last record is the stopping test
    out["optimizer.line_search.trials"] = trials / ops
    out["optimizer.line_search.accept_ratio"] = accepted / trials if trials > 0 else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports sgf2d: part of the set-up time

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0
    try:
        kernel_s = None if args.trace else setup_kernel_s()
        if args.setup_only:
            record = {"setup_s": setup_s, "setup_kernel_s": kernel_s}
        else:
            runner = Runner(wl, workloads.OP_FAILURES)
            if args.trace:
                spans = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
                record = run_traced(runner, args.seconds, spans)
            else:
                record = run_untraced(runner, args.seconds)
            record.update(
                setup_s=setup_s,
                setup_kernel_s=kernel_s,
                attempted=runner.attempted,
                failed=runner.failed,
                fail_ratio=runner.failed / runner.attempted,
                problems=runner.problems[:20],
                environment=environment(),
            )
    finally:
        wl.close()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
