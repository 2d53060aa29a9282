#!/usr/bin/env python3
"""Run one it2anfis benchmark workload and print its metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload sweep-small|train-r50|serve-r50 \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

The workload runs in a fresh Python process, so that its peak RSS is
its own, with the thread caps and allocator settings of
``workload_env``.  The metric names and units come from
BENCHMARK.json: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer ones.  A results file with every metric,
the parity differences and the environment goes to perfbench/results/.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from stats import valid_metric_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-small", "train-r50", "serve-r50")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def l3_bytes() -> int | None:
    try:
        done = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                              capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def workload_env() -> dict[str, str]:
    """Environment of the workload process, recorded in every results file.

    One BLAS/OpenMP thread: the workloads' time goes to numpy's
    single-threaded elementwise work and their matrix products are
    small, so a second BLAS thread only spins against the sweep's other
    pool worker; with one thread, processes x threads <= cores on every
    workload.

    glibc malloc serves blocks up to 32 MiB, its own largest dynamic
    mmap threshold, from a heap that it does not trim.  With the
    defaults every R=50 epoch page-faults about 14k fresh pages for its
    few-MB temporaries, and on a shared host the cost of those faults
    varies from run to run far more than the arithmetic does.  Larger
    blocks are still mapped and returned as usual.
    """
    env = {name: "1" for name in THREAD_VARS}
    env.update(MALLOC_MMAP_THRESHOLD_=str(32 * 2**20),
               MALLOC_TRIM_THRESHOLD_=str(2**40))
    return env


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _interrupted(signum, _frame):
    raise SystemExit(128 + signum)


def spawn(args: list[str], extra_env: dict[str, str]) -> int:
    """Run workloads.py in its own session; never leave it running.

    The session lets one signal stop the workload and its pool workers.
    """
    env = {**os.environ, **extra_env}
    signal.signal(signal.SIGTERM, _interrupted)
    child = subprocess.Popen([sys.executable, str(HERE / "workloads.py"),
                              *args], env=env, cwd=ROOT,
                             start_new_session=True)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="recompute perfbench/reference.json for parity")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "it2anfis" / "__init__.py").is_file():
        return fail(f"no package sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    work_root = HERE / "work"
    if args.write_reference:
        workdir = work_root / "reference"
        try:
            return spawn(["--write-reference", "--workdir", str(workdir)],
                         workload_env())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = work_root / f"{label}-{os.getpid()}"
    result_path = workdir / "outcome.json"
    extra_env = workload_env()
    try:
        code = spawn(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--workdir", str(workdir),
                      "--result", str(result_path)], extra_env)
        if code != 0 or not result_path.is_file():
            return fail(f"workload process exited with code {code}")
        outcome = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome["layers"] if args.trace else outcome["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = source.get(name)
        if not valid_metric_name(name):
            return fail(f"invalid metric name {name!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return fail(f"metric {name} was not measured: {value!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    correct = bool(outcome["checks"]) and all(outcome["checks"].values())
    notes = outcome["notes"]
    environment = {
        "backend": notes.get("backend"),
        "numpy": notes.get("numpy"),
        "blas": notes.get("blas"),
        "python": platform.python_version(),
        "nproc": nproc(),
        "l3_bytes": l3_bytes(),
        "workload_env": extra_env,
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{label}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "environment": environment,
        "metrics": metrics, **outcome}, indent=1) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in outcome["named"].items():
        print(f"  {args.workload}.{name} = {value:.6g} {unit}")
    for name, diff in outcome["parity"].items():
        shown = "not comparable" if diff is None else f"{diff:.3g}"
        print(f"  parity.{name} max_abs_diff = {shown}")
    for name, ok in outcome["checks"].items():
        if not ok:
            print(f"  check failed: {name}")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
