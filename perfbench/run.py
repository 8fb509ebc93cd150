"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It byte-compiles src/ and perfbench/, then
starts worker processes with the BLAS/FFT thread variables set to 1: one
that runs the timed ops, and, in an untraced run, two before and two after
it that only set up (for the median of five set-up times). It prints the
worker's full record, stamped with the environment, and then, as the last
line, the result object
{"correct", "attempted", "failed", "metrics"}. Untraced runs report the
end-to-end metrics, traced runs the per-layer metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS, YARDSTICK_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("track16", "sweep63", "pipeline16")
SETUPS_EACH_SIDE = 2
DEADLINE_S = 170.0


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over src/sgf2d/*.py, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sgf2d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sgf2d" / "__init__.py").is_file():
        print(f"error: no sgf2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    def setup_only() -> dict:
        return run_worker(args, ["--setup-only"], DEADLINE_S - (time.monotonic() - start))

    # set-up samples before and after the timed run, so that their median does
    # not rest on a single stretch of the host's speed
    setups = [] if args.trace else [setup_only() for _ in range(SETUPS_EACH_SIDE)]
    record = run_worker(args, [], DEADLINE_S - (time.monotonic() - start))
    if not args.trace:
        setups += [dict(record)] + [setup_only() for _ in range(SETUPS_EACH_SIDE)]

    record["environment"].update(
        cpu_model=cpu_model(), git_commit=git_commit(), source_sha256=source_digest()
    )
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in record.pop("metrics").items()}
    correct = record["failed"] == 0
    if args.trace:
        correct = correct and record["identical"]
    else:
        # each sample is scaled by the host's speed measured right after it
        record["setup_s_samples"] = [r["setup_s"] for r in setups]
        record["setup_kernel_s"] = [r["setup_kernel_s"] for r in setups]
        scaled = [r["setup_s"] * YARDSTICK_REFERENCE_S / r["setup_kernel_s"] for r in setups]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
